// Package isa defines the synthetic instruction format shared by the
// application frontends and the kernel instrumentation layer. It plays the
// role of the instruction stream that, in the paper, a binary
// instrumentation tool (Intel Pin / DynamoRIO) produces for both the
// simulated application and MimicOS routines, and that the simulator's
// core model consumes.
package isa

import (
	"fmt"
	"iter"
	"slices"

	"repro/internal/mem"
)

// Op is a synthetic instruction class. The core model only needs
// instruction classes, not full semantics: it charges pipeline occupancy
// per class and routes memory operands through the MMU and cache models.
type Op uint8

const (
	// OpALU is a register-only integer operation. Count may batch several.
	OpALU Op = iota
	// OpFP is a floating-point operation (longer issue latency).
	OpFP
	// OpBranch is a conditional branch.
	OpBranch
	// OpLoad reads Addr.
	OpLoad
	// OpStore writes Addr.
	OpStore
	// OpAtomic is a locked read-modify-write on Addr (kernel
	// synchronisation; models the §4.3 multithreaded-kernel overheads).
	OpAtomic
	// OpDelay stalls the pipeline for Count cycles. Used to represent
	// device time (e.g., SSD access latency returned by MQSim) inside an
	// injected kernel stream.
	OpDelay
	// OpMagic is a magic instruction (xchg rN,rN / m5op imitation): a
	// doorbell marking functional-channel synchronisation points. The
	// core model executes it in one cycle; the Virtuoso engine intercepts
	// it to switch between application and kernel instruction streams.
	OpMagic
	// OpZeroRange is a kernel-only range record standing for Count
	// cache-line stores: line i at Addr+64*i, with PC PC+4*i.
	OpZeroRange
	// OpCopyRange is a kernel-only range record pair standing for Count
	// line copies: the load of line i at Addr+64*i (PC PC+8*i), then the
	// store of line i at the destination (PC PC+8*i+4). The second slot
	// of the pair repeats the op and Count and carries the destination
	// in Addr, so each slot counts its Count of memory instructions.
	OpCopyRange
)

func (o Op) String() string {
	switch o {
	case OpALU:
		return "alu"
	case OpFP:
		return "fp"
	case OpBranch:
		return "branch"
	case OpLoad:
		return "load"
	case OpStore:
		return "store"
	case OpAtomic:
		return "atomic"
	case OpDelay:
		return "delay"
	case OpMagic:
		return "magic"
	case OpZeroRange:
		return "zero-range"
	case OpCopyRange:
		return "copy-range"
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// HasMemOperand reports whether the op carries a memory address.
func (o Op) HasMemOperand() bool {
	return o == OpLoad || o == OpStore || o == OpAtomic || o == OpZeroRange || o == OpCopyRange
}

// IsWrite reports whether the op writes memory.
func (o Op) IsWrite() bool { return o == OpStore || o == OpAtomic }

// Inst is one synthetic instruction.
//
// Application streams carry virtual addresses (Phys=false) that the core
// model translates through the MMU. Kernel streams produced by the
// instrumentation layer carry physical addresses in the kernel direct map
// (Phys=true), bypassing translation but still traversing the cache
// hierarchy and DRAM — this is how injected OS routines pollute caches and
// contend for memory bandwidth, the effect emulation-based simulators miss.
type Inst struct {
	Op    Op
	Phys  bool
	Count uint32 // batch size for OpALU/OpFP/OpBranch; delay cycles for OpDelay; else 1
	PC    uint64 // synthetic program counter (drives the IP-stride prefetcher)
	Addr  uint64 // memory operand if Op.HasMemOperand()
}

// N returns the effective batch count (at least 1).
func (i Inst) N() uint64 {
	if i.Count == 0 {
		return 1
	}
	return uint64(i.Count)
}

// Stream is a materialised instruction sequence (e.g., one kernel routine's
// dynamically generated instructions). A kernel stream is a compact
// program whose range records stand for many line loads and stores.
type Stream []Inst

// All yields the stream's unrolled form: each range record expanded
// into the per-line stores (OpZeroRange) or load/store pairs
// (OpCopyRange) it stands for, every other record as is. This is the
// only definition of what a range record means.
func (s Stream) All() iter.Seq[Inst] {
	return func(yield func(Inst) bool) {
		for i := 0; i < len(s); i++ {
			in := s[i]
			switch in.Op {
			case OpZeroRange:
				for k := uint64(0); k < uint64(in.Count); k++ {
					if !yield(Inst{Op: OpStore, Phys: in.Phys, Count: 1, PC: in.PC + 4*k, Addr: in.Addr + k*mem.CacheLineBytes}) {
						return
					}
				}
			case OpCopyRange:
				i++
				dst := s[i].Addr
				for k := uint64(0); k < uint64(in.Count); k++ {
					off := k * mem.CacheLineBytes
					if !yield(Inst{Op: OpLoad, Phys: in.Phys, Count: 1, PC: in.PC + 8*k, Addr: in.Addr + off}) ||
						!yield(Inst{Op: OpStore, Phys: in.Phys, Count: 1, PC: in.PC + 8*k + 4, Addr: dst + off}) {
						return
					}
				}
			default:
				if !yield(in) {
					return
				}
			}
		}
	}
}

// Unroll returns the unrolled form of s (see All) as a new stream of
// exactly its length.
func (s Stream) Unroll() Stream {
	n := 0
	for range s.All() {
		n++
	}
	return slices.AppendSeq(make(Stream, 0, n), s.All())
}

// Instructions returns the total dynamic instruction count of the stream,
// counting batched ops and range records at their Count, excluding delays.
func (s Stream) Instructions() uint64 {
	var n uint64
	for _, in := range s {
		if in.Op == OpDelay {
			continue
		}
		n += in.N()
	}
	return n
}

// MemOps returns the number of memory-operand instructions in the stream.
func (s Stream) MemOps() uint64 {
	var n uint64
	for _, in := range s {
		if in.Op.HasMemOperand() {
			n += in.N()
		}
	}
	return n
}

// Source produces an instruction stream one instruction at a time; it is
// the frontend-facing abstraction (trace-driven, execution-driven, or
// emulation-driven frontends all implement it).
type Source interface {
	// Next stores the next instruction into out and reports whether one
	// was produced. After Next returns false the source is exhausted.
	Next(out *Inst) bool
}

// BatchSource is implemented by sources that can hand out many
// instructions per call, letting the engine's fast lane amortize the
// per-instruction interface dispatch of Next. Sources without a
// natural batch form are adapted by FillBatch.
type BatchSource interface {
	Source
	// NextBatch fills out with up to len(out) instructions and returns
	// how many were produced. Zero means the source is exhausted.
	// Interleaving NextBatch and Next is allowed; both consume the same
	// underlying stream.
	NextBatch(out []Inst) int
}

// FillBatch fills out from src — natively when src implements
// BatchSource, otherwise by repeated Next calls — and returns the
// number of instructions produced. Zero means src is exhausted.
func FillBatch(src Source, out []Inst) int {
	if bs, ok := src.(BatchSource); ok {
		return bs.NextBatch(out)
	}
	n := 0
	for n < len(out) && src.Next(&out[n]) {
		n++
	}
	return n
}

// SliceSource adapts a Stream into a Source.
type SliceSource struct {
	S   Stream
	pos int
}

// Next implements Source.
func (ss *SliceSource) Next(out *Inst) bool {
	if ss.pos >= len(ss.S) {
		return false
	}
	*out = ss.S[ss.pos]
	ss.pos++
	return true
}

// NextBatch implements BatchSource.
func (ss *SliceSource) NextBatch(out []Inst) int {
	n := copy(out, ss.S[ss.pos:])
	ss.pos += n
	return n
}

// Reset rewinds the source to the beginning.
func (ss *SliceSource) Reset() { ss.pos = 0 }

// Load constructs a load instruction at a virtual address.
func Load(pc uint64, va mem.VAddr) Inst { return Inst{Op: OpLoad, PC: pc, Addr: uint64(va)} }

// Store constructs a store instruction at a virtual address.
func Store(pc uint64, va mem.VAddr) Inst { return Inst{Op: OpStore, PC: pc, Addr: uint64(va)} }

// ALU constructs a batch of n register-only operations.
func ALU(n uint32) Inst { return Inst{Op: OpALU, Count: n} }
