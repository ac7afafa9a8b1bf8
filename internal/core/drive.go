package core

import (
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/mimicos"
	"repro/internal/workloads"
)

// The run loop. Every run shape — Run, RunRecording, RunSteps, each
// RunMulti scheduling slice and VirtualizedSystem.Run — retires its
// frontend instructions through drive, so they cannot drift apart. The
// reference path (Config.ReferencePath) only narrows the feed to one
// slot, which reads the source with one Next per instruction instead
// of FillBatch.

// cancelStride is how many frontend instructions drive retires between
// cancellation polls: rare enough to stay off the hot path, frequent
// enough that a cancelled context stops a simulation within microseconds
// of simulated work.
const cancelStride = 1 << 13

// batchSize is the fast lane's frontend read-ahead: large enough to
// amortize the per-batch isa.Source dispatch to noise, small enough to
// stay cache-resident.
const batchSize = 256

// feedSize is a run's read-ahead: batchSize on the fast lane, one slot
// on the reference path.
func feedSize(reference bool) int {
	if reference {
		return 1
	}
	return batchSize
}

// feed is a frontend source plus its read-ahead. The read-ahead
// persists across drive calls, so a RunMulti slice that ends mid-batch
// resumes at the next unread instruction in the process's next slice.
// Feeds live on the heap-resident System, Process or VirtualizedSystem,
// which keeps the steady state allocation-free (alloc_test.go).
type feed struct {
	src    isa.Source
	buf    []isa.Inst
	pos, n int
}

// reset points f at src with a read-ahead of size instructions, reusing
// f's buffer when it is large enough.
func (f *feed) reset(src isa.Source, size int) {
	buf := f.buf
	if cap(buf) < size {
		buf = make([]isa.Inst, size)
	}
	*f = feed{src: src, buf: buf[:size]}
}

// fill refills the drained read-ahead and reports whether the source
// produced anything.
func (f *feed) fill() bool {
	f.pos, f.n = 0, 0
	if len(f.buf) > 1 {
		f.n = isa.FillBatch(f.src, f.buf)
	} else if f.src.Next(&f.buf[0]) {
		f.n = 1
	}
	return f.n > 0
}

// driver is the state drive reads besides its feed: the core it steps,
// the optional frontend tap, observer hook and cancellation check, and
// whether a cancellation stopped a run. System and VirtualizedSystem
// embed it, so both share the loop and its Set*/Interrupted surface.
type driver struct {
	Core *cpu.Core

	cancelCheck func() bool
	frontendTap func(isa.Inst)
	observe     func()
	interrupted bool
	// polled counts instructions toward the next cancellation poll. It
	// persists across drive calls, so scheduling slices shorter than
	// cancelStride still poll.
	polled uint64
}

// SetCancelCheck installs a cooperative cancellation poll: the run loop
// calls f every cancelStride instructions and stops early when it
// returns true. Used by the sweep runner to honour context.Context
// cancellation mid-simulation. Pass nil to remove the check.
func (d *driver) SetCancelCheck(f func() bool) { d.cancelCheck = f }

// SetFrontendTap installs an observer invoked for every application
// instruction the frontend feeds the core, before it is simulated —
// the hook trace recording uses (see internal/trace.Recorder). Kernel
// streams injected by MimicOS do not pass the tap: a trace captures
// the application, and replaying it regenerates the kernel work under
// whatever OS configuration the replay run uses. Pass nil to remove.
func (d *driver) SetFrontendTap(f func(isa.Inst)) { d.frontendTap = f }

// Cancelled reports whether the installed cancellation check fired.
func (d *driver) Cancelled() bool {
	return d.cancelCheck != nil && d.cancelCheck()
}

// Interrupted reports whether a run on this system was actually stopped
// early by the cancellation check — as opposed to the check's context
// being cancelled after the simulation already completed. Callers use
// it to tell truncated metrics from valid ones under a racing cancel.
func (d *driver) Interrupted() bool { return d.interrupted }

// drive retires instructions from f until f runs dry, the core's
// application-instruction count reaches appLimit, its clock reaches
// cycleLimit, or the cancellation check fires; a zero limit is no
// bound. Every instruction takes the same steps in the same order:
// frontend tap, core step, observer hook, app bound, cycle bound,
// cancellation poll. finished reports that the feed ran dry or the app
// bound was reached; on a cycle bound or cancellation it is false, and
// the unread read-ahead stays in f for the next call.
func (d *driver) drive(f *feed, appLimit, cycleLimit uint64) (finished bool) {
	for {
		if f.pos == f.n && !f.fill() {
			return true
		}
		in := f.buf[f.pos]
		f.pos++
		if d.frontendTap != nil {
			d.frontendTap(in)
		}
		d.Core.Run(in)
		if d.observe != nil {
			d.observe()
		}
		if appLimit > 0 && d.Core.Stats().AppInsts >= appLimit {
			return true
		}
		if cycleLimit > 0 && d.Core.Now() >= cycleLimit {
			return false
		}
		if d.polled++; d.polled%cancelStride == 0 && d.Cancelled() {
			d.interrupted = true
			return false
		}
	}
}

// load is the exec/loader phase for one process: it maps the text
// segment that backs instruction fetches at the workloads' PCs, then
// lets w build its address space. It is functional only; callers drop
// the setup's kernel streams with Tracer.Begin.
func load(k *mimicos.Kernel, pid int, w *workloads.Workload) {
	k.Mmap(pid, TextSegBytes, mimicos.MmapFlags{
		File: true, FileID: TextSegFileID, FixedAddr: TextSegBase,
	})
	w.Setup(k, pid)
}
