package isa

import (
	"slices"
	"testing"

	"repro/internal/mem"
)

func TestStreamCounts(t *testing.T) {
	s := Stream{
		ALU(100),
		Load(0x400000, 0x1000),
		Store(0x400004, 0x2000),
		{Op: OpDelay, Count: 5000},
		{Op: OpAtomic, Count: 1, Addr: 0x3000},
		{Op: OpZeroRange, Count: 10, Addr: 0x4000},
		{Op: OpCopyRange, Count: 5, Addr: 0x5000},
		{Op: OpCopyRange, Count: 5, Addr: 0x6000},
	}
	if got := s.Instructions(); got != 123 {
		t.Fatalf("instructions = %d (delays must not count)", got)
	}
	if got := s.MemOps(); got != 23 {
		t.Fatalf("mem ops = %d", got)
	}
}

func TestUnrollExpandsRanges(t *testing.T) {
	s := Stream{
		{Op: OpZeroRange, Phys: true, Count: 3, PC: 0x100, Addr: 0x1000},
		ALU(2),
		{Op: OpCopyRange, Phys: true, Count: 2, PC: 0x200, Addr: 0x8000},
		{Op: OpCopyRange, Phys: true, Count: 2, PC: 0x200, Addr: 0x9000},
	}
	want := Stream{
		{Op: OpStore, Phys: true, Count: 1, PC: 0x100, Addr: 0x1000},
		{Op: OpStore, Phys: true, Count: 1, PC: 0x104, Addr: 0x1040},
		{Op: OpStore, Phys: true, Count: 1, PC: 0x108, Addr: 0x1080},
		ALU(2),
		{Op: OpLoad, Phys: true, Count: 1, PC: 0x200, Addr: 0x8000},
		{Op: OpStore, Phys: true, Count: 1, PC: 0x204, Addr: 0x9000},
		{Op: OpLoad, Phys: true, Count: 1, PC: 0x208, Addr: 0x8040},
		{Op: OpStore, Phys: true, Count: 1, PC: 0x20c, Addr: 0x9040},
	}
	got := s.Unroll()
	if !slices.Equal(got, want) {
		t.Fatalf("Unroll =\n%v\nwant\n%v", got, want)
	}
	if s.Instructions() != want.Instructions() || s.MemOps() != want.MemOps() {
		t.Fatalf("compact counts %d/%d, unrolled %d/%d", s.Instructions(), s.MemOps(), want.Instructions(), want.MemOps())
	}
	if cap(got) != len(want) {
		t.Fatalf("Unroll capacity %d, want exactly %d", cap(got), len(want))
	}
	// Breaking out mid-range must stop the expansion (the runtime
	// panics if an iterator yields after its loop body returned false).
	n := 0
	for range s.All() {
		if n++; n == 5 {
			break
		}
	}
}

func TestOpClassification(t *testing.T) {
	if !OpLoad.HasMemOperand() || !OpStore.HasMemOperand() || !OpAtomic.HasMemOperand() ||
		!OpZeroRange.HasMemOperand() || !OpCopyRange.HasMemOperand() {
		t.Fatal("memory ops misclassified")
	}
	if OpALU.HasMemOperand() || OpDelay.HasMemOperand() || OpMagic.HasMemOperand() {
		t.Fatal("non-memory ops misclassified")
	}
	if OpLoad.IsWrite() || !OpStore.IsWrite() || !OpAtomic.IsWrite() {
		t.Fatal("write classification wrong")
	}
}

func TestSliceSource(t *testing.T) {
	s := Stream{ALU(1), ALU(2), ALU(3)}
	src := &SliceSource{S: s}
	var in Inst
	n := 0
	for src.Next(&in) {
		n++
	}
	if n != 3 {
		t.Fatalf("drained %d", n)
	}
	src.Reset()
	if !src.Next(&in) || in.Count != 1 {
		t.Fatal("reset failed")
	}
}

func TestBatchCount(t *testing.T) {
	if (Inst{Op: OpALU}).N() != 1 {
		t.Fatal("zero count should mean 1")
	}
	if (Inst{Op: OpALU, Count: 7}).N() != 7 {
		t.Fatal("batch count lost")
	}
}

func TestConstructors(t *testing.T) {
	l := Load(0x400100, mem.VAddr(0x1234))
	if l.Op != OpLoad || l.Addr != 0x1234 || l.PC != 0x400100 || l.Phys {
		t.Fatalf("Load = %+v", l)
	}
	st := Store(0x400104, mem.VAddr(0x5678))
	if st.Op != OpStore || !st.Op.IsWrite() {
		t.Fatalf("Store = %+v", st)
	}
}
