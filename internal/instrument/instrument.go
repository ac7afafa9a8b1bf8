// Package instrument is this repository's stand-in for the dynamic binary
// instrumentation tool (Intel Pin / DynamoRIO) of the paper's methodology
// (§4.2): MimicOS routines execute against a Tracer that records, as they
// run, the instruction stream they would have executed — ALU work,
// branches, and loads/stores at the *actual physical addresses* of kernel
// objects, page-table entries and data pages. The Virtuoso engine then
// injects that stream into the simulator's core model through the
// instruction-stream channel, so OS routines are charged their real
// latency and create real cache pollution and DRAM interference.
//
// The instruction count is path-dependent by construction: a page fault
// that zeroes a 2 MB page executes 32768 cache-line stores (recorded as
// one isa.OpZeroRange record), while a fault served from the zero-page
// pool executes a handful — reproducing the heavy-tailed minor-fault
// latency distributions of Fig. 2.
package instrument

import (
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/xrand"
)

// Tracer records the instruction stream of the currently executing kernel
// event. One Tracer serves one kernel worker; Begin/Take bracket one
// event (e.g., one page fault).
type Tracer struct {
	stream isa.Stream
	pc     uint64
	// savedPC holds, per routine entered and not yet exited, the PC its
	// exit restores; exits[d] is the exit of the routine at depth d,
	// built once per depth so Enter allocates nothing.
	savedPC []uint64
	exits   []func()
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer { return &Tracer{} }

// Begin resets the tracer for a new kernel event.
func (t *Tracer) Begin() { t.stream = t.stream[:0] }

// Take returns the recorded stream for the completed event. The returned
// slice is valid until the next Begin; callers that retain it must copy.
func (t *Tracer) Take() isa.Stream { return t.stream }

// Enter marks entry into a named kernel routine and returns the matching
// exit function. Routine names give each routine a distinct synthetic
// code region so injected kernel code exercises the I-cache realistically.
//
// Exits run in reverse order of entry, as defer runs them. An exit
// restores the PC saved at its own entry, and exiting a routine also
// exits any routine entered inside it that is still open. Exit
// functions are reused per nesting depth: a second call is harmless
// until the next Enter at the same depth, which it would exit.
func (t *Tracer) Enter(name string) func() {
	d := len(t.savedPC)
	t.savedPC = append(t.savedPC, t.pc)
	if d == len(t.exits) {
		t.exits = append(t.exits, func() { t.exit(d) })
	}
	// Each routine occupies a 16 KB synthetic code region derived from
	// its name.
	t.pc = 0xffff_8000_0000_0000 | (xrand.Hash64(hashName(name), 0x05) & 0x3fff_ffff << 14)
	t.emit(isa.Inst{Op: isa.OpBranch, Count: 1, PC: t.pc, Phys: true}) // call
	return t.exits[d]
}

// exit leaves the routine entered at depth d.
func (t *Tracer) exit(d int) {
	if d >= len(t.savedPC) {
		return
	}
	t.emit(isa.Inst{Op: isa.OpBranch, Count: 1, PC: t.pc, Phys: true}) // ret
	t.pc = t.savedPC[d]
	t.savedPC = t.savedPC[:d]
}

func hashName(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func (t *Tracer) emit(in isa.Inst) { t.stream = append(t.stream, in) }

func (t *Tracer) bumpPC(n uint64) { t.pc += 4 * n }

// ALU records n register-only instructions.
func (t *Tracer) ALU(n uint32) {
	if n == 0 {
		return
	}
	t.emit(isa.Inst{Op: isa.OpALU, Count: n, PC: t.pc, Phys: true})
	t.bumpPC(uint64(n))
}

// Branch records n branches.
func (t *Tracer) Branch(n uint32) {
	if n == 0 {
		return
	}
	t.emit(isa.Inst{Op: isa.OpBranch, Count: n, PC: t.pc, Phys: true})
	t.bumpPC(uint64(n))
}

// Load records a kernel load at physical address pa.
func (t *Tracer) Load(pa mem.PAddr) {
	t.emit(isa.Inst{Op: isa.OpLoad, Count: 1, PC: t.pc, Addr: uint64(pa), Phys: true})
	t.bumpPC(1)
}

// Store records a kernel store at physical address pa.
func (t *Tracer) Store(pa mem.PAddr) {
	t.emit(isa.Inst{Op: isa.OpStore, Count: 1, PC: t.pc, Addr: uint64(pa), Phys: true})
	t.bumpPC(1)
}

// Atomic records a locked RMW at pa (spinlock acquisition, refcounts);
// these are the §4.3 synchronisation overheads of the multithreaded
// kernel.
func (t *Tracer) Atomic(pa mem.PAddr) {
	t.emit(isa.Inst{Op: isa.OpAtomic, Count: 1, PC: t.pc, Addr: uint64(pa), Phys: true})
	t.bumpPC(1)
}

// maxCount bounds the Count of one record; longer delays and ranges are
// split into several records.
const maxCount = 1 << 31

// Delay records a pipeline stall of the given cycles (device time, e.g.,
// an SSD access simulated by MQSim).
func (t *Tracer) Delay(cycles uint64) {
	for cycles > 0 {
		chunk := min(cycles, maxCount)
		t.emit(isa.Inst{Op: isa.OpDelay, Count: uint32(chunk), Phys: true})
		cycles -= chunk
	}
}

// ZeroRange records clearing [pa, pa+bytes): one cache-line store per
// 64 B plus loop overhead — the dominant cost of huge-page allocation.
// The stores are recorded as one isa.OpZeroRange record.
func (t *Tracer) ZeroRange(pa mem.PAddr, bytes uint64) {
	lines := bytes / mem.CacheLineBytes
	for left := lines; left > 0; {
		n := min(left, maxCount)
		t.emit(isa.Inst{Op: isa.OpZeroRange, Count: uint32(n), PC: t.pc, Addr: uint64(pa), Phys: true})
		t.bumpPC(n)
		pa += mem.PAddr(n * mem.CacheLineBytes)
		left -= n
	}
	t.ALU(uint32(lines)) // loop counter + address generation
}

// CopyRange records copying bytes from src to dst, one cache line at a
// time (khugepaged collapse, swap-in fill, CoW). The load/store pairs
// are recorded as one isa.OpCopyRange record pair.
func (t *Tracer) CopyRange(dst, src mem.PAddr, bytes uint64) {
	lines := bytes / mem.CacheLineBytes
	for left := lines; left > 0; {
		n := min(left, maxCount)
		t.emit(isa.Inst{Op: isa.OpCopyRange, Count: uint32(n), PC: t.pc, Addr: uint64(src), Phys: true})
		t.emit(isa.Inst{Op: isa.OpCopyRange, Count: uint32(n), PC: t.pc, Addr: uint64(dst), Phys: true})
		t.bumpPC(2 * n)
		off := mem.PAddr(n * mem.CacheLineBytes)
		src, dst, left = src+off, dst+off, left-n
	}
	t.ALU(uint32(lines))
}

// TouchObject records a read-modify access pattern over a kernel object:
// reads of loads cache lines and writes of stores cache lines at pa.
func (t *Tracer) TouchObject(pa mem.PAddr, loads, stores int) {
	for i := 0; i < loads; i++ {
		t.Load(pa + mem.PAddr(i*mem.CacheLineBytes))
	}
	for i := 0; i < stores; i++ {
		t.Store(pa + mem.PAddr(i*mem.CacheLineBytes))
	}
}

// Interface checks.
var _ KernelMem = (*Tracer)(nil)

// KernelMem is the narrow interface kernel data structures use to report
// their memory accesses; Tracer implements it.
type KernelMem interface {
	Load(pa mem.PAddr)
	Store(pa mem.PAddr)
	ALU(n uint32)
}

// NopMem discards recorded accesses; used for functional-only operations
// (e.g., engine-internal bookkeeping that must not be charged).
type NopMem struct{}

// Load implements KernelMem.
func (NopMem) Load(mem.PAddr) {}

// Store implements KernelMem.
func (NopMem) Store(mem.PAddr) {}

// ALU implements KernelMem.
func (NopMem) ALU(uint32) {}
