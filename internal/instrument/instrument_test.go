package instrument

import (
	"slices"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
)

func TestTracerRecordsRoutine(t *testing.T) {
	tr := NewTracer()
	tr.Begin()
	exit := tr.Enter("do_page_fault")
	tr.ALU(100)
	tr.Load(0x1000)
	tr.Store(0x2000)
	tr.Atomic(0x3000)
	exit()
	s := tr.Take()
	if got := s.Instructions(); got != 105 { // 100 ALU + 3 mem + 2 call/ret branches
		t.Fatalf("instructions = %d", got)
	}
	if got := s.MemOps(); got != 3 {
		t.Fatalf("mem ops = %d", got)
	}
}

func TestTracerBeginResets(t *testing.T) {
	tr := NewTracer()
	tr.Begin()
	tr.ALU(10)
	tr.Begin()
	if len(tr.Take()) != 0 {
		t.Fatal("Begin did not reset the stream")
	}
}

func TestZeroRangeEmitsLineStores(t *testing.T) {
	tr := NewTracer()
	tr.Begin()
	tr.ZeroRange(0x10000, 2*mem.MB)
	stores := uint64(0)
	for in := range tr.Take().All() {
		if in.Op == isa.OpStore {
			stores += in.N()
		}
	}
	if stores != 2*mem.MB/64 {
		t.Fatalf("zeroing stores = %d, want %d", stores, 2*mem.MB/64)
	}
}

func TestCopyRangePairsLoadsStores(t *testing.T) {
	tr := NewTracer()
	tr.Begin()
	tr.CopyRange(0x2000, 0x1000, 4096)
	var loads, stores uint64
	for in := range tr.Take().All() {
		switch in.Op {
		case isa.OpLoad:
			loads += in.N()
		case isa.OpStore:
			stores += in.N()
		}
	}
	if loads != 64 || stores != 64 {
		t.Fatalf("copy = %d loads / %d stores", loads, stores)
	}
}

func TestDelaySplitsLargeValues(t *testing.T) {
	tr := NewTracer()
	tr.Begin()
	tr.Delay(3 << 31)
	var total uint64
	for _, in := range tr.Take() {
		if in.Op != isa.OpDelay {
			t.Fatalf("unexpected op %v", in.Op)
		}
		total += in.N()
	}
	if total != 3<<31 {
		t.Fatalf("delay total = %d", total)
	}
}

func TestRoutinePCsDistinct(t *testing.T) {
	tr := NewTracer()
	tr.Begin()
	e1 := tr.Enter("alloc_pages")
	tr.ALU(1)
	e1()
	e2 := tr.Enter("swap_out")
	tr.ALU(1)
	e2()
	s := tr.Take()
	if s[0].PC == s[3].PC {
		t.Fatal("distinct routines share a code region")
	}
}

// TestRangesUnrollToLineRecords pins the compact range records to the
// per-line records a routine would emit through Load and Store: same
// ops, addresses and PCs, and the same PC afterwards (the trailing ALU).
func TestRangesUnrollToLineRecords(t *testing.T) {
	compact, lines := NewTracer(), NewTracer()
	for _, tr := range []*Tracer{compact, lines} {
		tr.Begin()
		tr.Enter("copy_and_zero")
	}
	compact.ZeroRange(0x10000, 4096)
	compact.CopyRange(0x2000, 0x1000, 4096)
	compact.ZeroRange(0x10000, 0)
	compact.ALU(1)
	// The call, each range's record(s) and loop ALU, the trailing ALU.
	if n := len(compact.Take()); n != 7 {
		t.Fatalf("compact stream holds %d records, want 7", n)
	}
	for i := mem.PAddr(0); i < 64; i++ {
		lines.Store(0x10000 + i*64)
	}
	lines.ALU(64)
	for i := mem.PAddr(0); i < 64; i++ {
		lines.Load(0x1000 + i*64)
		lines.Store(0x2000 + i*64)
	}
	lines.ALU(64)
	lines.ALU(1)
	if got, want := compact.Take().Unroll(), lines.Take(); !slices.Equal(got, want) {
		t.Fatalf("unrolled ranges differ from per-line records:\n%v\n%v", got, want)
	}
}

func TestRangeSplitsLargeCounts(t *testing.T) {
	// 2^31+5 lines: too many for one record's Count; checked on the
	// compact records alone, since unrolling would run 2^31 stores.
	const lines = maxCount + 5
	tr := NewTracer()
	tr.Begin()
	tr.ZeroRange(0x10000, lines*mem.CacheLineBytes)
	s := tr.Take()
	if len(s) != 3 || s[0].Op != isa.OpZeroRange || s[1].Op != isa.OpZeroRange {
		t.Fatalf("split stream = %+v", s)
	}
	if s[0].N()+s[1].N() != lines {
		t.Fatalf("split counts %d + %d, want %d", s[0].N(), s[1].N(), uint64(lines))
	}
	if s[1].Addr != s[0].Addr+s[0].N()*mem.CacheLineBytes || s[1].PC != s[0].PC+4*s[0].N() {
		t.Fatalf("second chunk does not continue the first: %+v", s[:2])
	}
	if s[2].Op != isa.OpALU || s[2].N() != lines { // the loop overhead
		t.Fatalf("loop ALU = %+v", s[2])
	}
}

func TestEnterExitAllocatesNothing(t *testing.T) {
	tr := NewTracer()
	tr.Enter("warm")() // builds the depth-0 exit once
	if n := testing.AllocsPerRun(100, func() {
		tr.Begin()
		tr.Enter("do_page_fault")()
	}); n != 0 {
		t.Fatalf("Enter/exit allocated %v times per run", n)
	}
}

func TestExitRestoresOwnPCOnce(t *testing.T) {
	tr := NewTracer()
	tr.Begin()
	outer := tr.Enter("outer")
	tr.ALU(1)
	pcOuter := tr.pc
	inner := tr.Enter("inner")
	inner()
	if tr.pc != pcOuter {
		t.Fatalf("inner exit restored pc %#x, want %#x", tr.pc, pcOuter)
	}
	before := len(tr.Take())
	inner() // second call: harmless
	if len(tr.Take()) != before || tr.pc != pcOuter {
		t.Fatal("a second exit recorded a return or moved the pc")
	}
	outer()
	outer()
	if tr.pc != 0 || len(tr.Take()) != before+1 {
		t.Fatalf("outer exits: pc %#x, %d records", tr.pc, len(tr.Take()))
	}
}
