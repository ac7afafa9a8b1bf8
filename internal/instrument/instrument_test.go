package instrument

import (
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
	if tr.TotalInsts() != 10 {
		t.Fatalf("lifetime count = %d", tr.TotalInsts())
	}
}

func TestZeroRangeEmitsLineStores(t *testing.T) {
	tr := NewTracer()
	tr.Begin()
	tr.ZeroRange(0x10000, 2*mem.MB)
	stores := uint64(0)
	for _, in := range tr.Take() {
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
	for _, in := range tr.Take() {
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
