package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	virtuoso "repro"
	"repro/internal/core"
)

// A tracer collects the per-layer measurements of a traced run from
// outside the program: spans around calls into public entry points
// (kept in memory, written out at the end), the layers' public Stats()
// read after each run, and a CPU profile of each run folded by the
// package of its leaf frame. All its methods are no-ops on a nil
// tracer, which is what untraced repetitions pass.
type tracer struct {
	origin time.Time
	rep    int
	spans  []span

	callUS  []float64 // every MimicOS call, pooled over repetitions
	busyS   []float64 // per repetition: host seconds inside MimicOS
	callsN  []float64 // per repetition: MimicOS calls
	runS    []float64 // per repetition: the Run/RunMulti/Sweep.Run span
	layers  map[string]float64
	samples map[string]int64 // profile samples by layer
	gcCPU   float64          // GC CPU seconds over the profiled runs
	allCPU  float64          // available CPU seconds over the profiled runs

	pointS   []float64 // sweep point wall times, pooled
	busyFrac []float64 // per repetition: sweep worker busy fraction
	points   int
	decode   map[string]float64
}

type span struct {
	Name    string `json:"name"`
	Rep     int    `json:"rep"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), samples: map[string]int64{}, decode: map[string]float64{}}
}

// beginRep starts a traced repetition.
func (t *tracer) beginRep() {
	t.rep++
	t.busyS = append(t.busyS, 0)
	t.callsN = append(t.callsN, 0)
}

func (t *tracer) span(name string, start time.Time, durS float64) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{name, t.rep, start.Sub(t.origin).Nanoseconds(), int64(durS * 1e9)})
	if name == "Run" || name == "RunMulti" || name == "Sweep.Run" {
		t.runS = append(t.runS, durS)
	}
}

// timeKernel installs, on the system's functional channel, a handler
// that serves each request exactly as the engine's own handler does and
// times it. The replacement happens before Run, when no message has
// crossed the channel yet, so the message count the metrics report is
// unchanged.
func (t *tracer) timeKernel(sys *virtuoso.System) {
	if t == nil {
		return
	}
	sys.FuncChan = core.NewFunctionalChannel(kernelHandler(sys, t.kernelCall))
}

// kernelHandler returns a functional-channel handler equivalent to the
// engine's serveRequest that reports each call's kind, start and
// duration to record.
func kernelHandler(sys *virtuoso.System, record func(core.EventKind, time.Time, time.Duration)) func(core.Request) core.Response {
	return func(req core.Request) core.Response {
		start := time.Now()
		var resp core.Response
		switch req.Kind {
		case core.EvPageFault:
			resp.Fault = sys.OS.HandlePageFault(req.PID, req.VA, req.Write, req.Now)
		case core.EvMmap:
			resp.MmapBase = sys.OS.Mmap(req.PID, req.Length, req.Flags)
		case core.EvMunmap:
			sys.OS.Munmap(req.PID, req.VA, req.Length)
		default:
			panic(fmt.Sprintf("simbench: unknown request kind %d", req.Kind))
		}
		record(req.Kind, start, time.Since(start))
		return resp
	}
}

var kindNames = [...]string{core.EvPageFault: "mimicos.fault", core.EvMmap: "mimicos.mmap", core.EvMunmap: "mimicos.munmap"}

func (t *tracer) kernelCall(k core.EventKind, start time.Time, d time.Duration) {
	t.spans = append(t.spans, span{kindNames[k], t.rep, start.Sub(t.origin).Nanoseconds(), d.Nanoseconds()})
	t.callUS = append(t.callUS, float64(d.Nanoseconds())/1e3)
	t.busyS[len(t.busyS)-1] += d.Seconds()
	t.callsN[len(t.callsN)-1]++
}

var cpuMetrics = []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}

// startRun starts the CPU profile of one run; the returned function
// stops it and folds the samples by layer.
func (t *tracer) startRun() (stop func()) {
	if t == nil {
		return func() {}
	}
	var buf bytes.Buffer
	before := readCPUMetrics()
	if err := pprof.StartCPUProfile(&buf); err != nil {
		fmt.Fprintln(os.Stderr, "simbench: cpu profile:", err)
		return func() {}
	}
	return func() {
		pprof.StopCPUProfile()
		after := readCPUMetrics()
		t.gcCPU += after[0] - before[0]
		t.allCPU += after[1] - before[1]
		stacks, err := parseProfile(buf.Bytes())
		if err != nil {
			fmt.Fprintln(os.Stderr, "simbench: cpu profile:", err)
			return
		}
		for _, s := range stacks {
			t.samples[foldLayer(s.frames)] += s.count
		}
	}
}

func readCPUMetrics() [2]float64 {
	s := make([]metrics.Sample, len(cpuMetrics))
	copy(s, cpuMetrics)
	metrics.Read(s)
	return [2]float64{s[0].Value.Float64(), s[1].Value.Float64()}
}

// readLayers reads the public counters of every modelled component
// after a run. The counters are deterministic, so the last traced
// repetition's values stand for all of them.
func (t *tracer) readLayers(sys *virtuoso.System, m virtuoso.Metrics) {
	if t == nil {
		return
	}
	l := map[string]float64{}
	h := sys.Hier
	l["cache.l1i.hit_rate"] = h.L1I.Stats().HitRate()
	l["cache.l1d.hit_rate"] = h.L1D.Stats().HitRate()
	l["cache.l2.hit_rate"] = h.L2.Stats().HitRate()
	l["cache.l3.hit_rate"] = h.L3.Stats().HitRate()
	l["cache.l2.prefetch_fills"] = float64(h.L2.Stats().PrefetchFills)

	cs := sys.Core.Stats()
	ms := sys.MMU.Stats()
	l["tlb.l1d_miss_rate"] = ratio(ms.L1DTLBMisses, ms.DataTranslations)
	l["tlb.stlb_hit_rate"] = sys.MMU.STLB().Stats().HitRate()
	l["mmu.l2tlb_mpki"] = 1000 * ratio(ms.L2TLBMisses, cs.AppInsts)
	l["mmu.walks"] = float64(ms.Walks)
	l["mmu.avg_walk_cycles"] = ms.AvgWalkLatency()

	ds := sys.Dram.Stats()
	var rowHits uint64
	for _, v := range ds.RowHits {
		rowHits += v
	}
	l["dram.accesses"] = float64(ds.TotalAccesses())
	l["dram.row_hit_rate"] = ratio(rowHits, ds.TotalAccesses())
	l["dram.queue_cycles"] = float64(ds.QueueCycles)

	l["cpu.ipc"] = cs.IPC()
	l["cpu.translation_cycle_share"] = ratio(cs.TranslationCycles, cs.Cycles)
	l["cpu.memory_cycle_share"] = ratio(cs.MemoryCycles, cs.Cycles)
	l["cpu.fault_cycle_share"] = ratio(cs.FaultCycles, cs.Cycles)

	l["core.functional_messages"] = float64(sys.FuncChan.Messages)
	l["core.kernel_streams"] = float64(sys.StreamChan.Streams)
	l["core.kernel_inst_share"] = ratio(cs.KernelInsts, cs.AppInsts+cs.KernelInsts)
	l["core.segvs"] = float64(m.Segvs)

	ks := sys.OS.Stats()
	l["mimicos.minor_faults"] = float64(ks.MinorFaults)
	l["mimicos.major_faults"] = float64(ks.MajorFaults)
	l["mimicos.reclaim_runs"] = float64(ks.ReclaimRuns)
	l["mimicos.demotions"] = float64(ks.Demotions)
	l["mimicos.promotions"] = float64(ks.Promotions)
	l["mimicos.swap_outs"] = float64(ks.SwapOuts)
	t.layers = l
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// sweepProgress records each finished sweep point as a span ending at
// its completion event and lasting its reported wall time.
func (t *tracer) sweepProgress(sw *virtuoso.Sweep) {
	if t == nil {
		return
	}
	sw.Progress = func(ev virtuoso.SweepEvent) {
		if ev.Metrics == nil {
			return
		}
		d := ev.Metrics.WallTime
		t.span(fmt.Sprintf("point.%d", ev.Point.Index), time.Now().Add(-d), d.Seconds())
		t.pointS = append(t.pointS, d.Seconds())
	}
}

// sweepDone records a finished sweep's runner counters.
func (t *tracer) sweepDone(rep *virtuoso.Report, parallel int, wallS float64) {
	var busy float64
	for _, r := range rep.Results {
		busy += r.Metrics.WallTime.Seconds()
	}
	t.busyFrac = append(t.busyFrac, busy/(float64(parallel)*wallS))
	t.points = len(rep.Results)
}

// tailPercentiles are the candidates for the reported tail percentile.
var tailPercentiles = []float64{99.999, 99.99, 99.9, 99, 95, 90, 75, 50}

// percentile returns the nearest-rank p-th percentile of sorted and the
// number of samples above that rank.
func percentile(sorted []float64, p float64) (v float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	idx := int(float64(n)*p/100+0.999999999) - 1
	idx = max(0, min(idx, n-1))
	return sorted[idx], n - 1 - idx
}

// tailPercentile returns the highest candidate percentile with at least
// ten samples beyond it, its value, and whether one exists.
func tailPercentile(sorted []float64) (p, v float64, ok bool) {
	for _, p := range tailPercentiles {
		if v, beyond := percentile(sorted, p); beyond >= 10 {
			return p, v, true
		}
	}
	return 0, 0, false
}

// layerMetrics assembles every per-layer metric of the traced run; it
// is called once, at the end, and reorders the tracer's samples.
// Metrics of a layer the workload does not use read 0.
func (t *tracer) layerMetrics() map[string]float64 {
	out := map[string]float64{}
	for k := range perLayerUnits {
		out[k] = 0
	}
	for k, v := range t.layers {
		out[k] = v
	}
	out["core.run_s"] = median(t.runS)
	out["mimicos.calls"] = median(t.callsN)
	out["mimicos.busy_s"] = median(t.busyS)
	sort.Float64s(t.callUS)
	out["mimicos.call_us.samples"] = float64(len(t.callUS))
	out["mimicos.call_us.p50"], _ = percentile(t.callUS, 50)
	if p, v, ok := tailPercentile(t.callUS); ok {
		out["mimicos.call_us.tail_pct"] = p
		out["mimicos.call_us.tail"] = v
	}

	// Every <layer>.self_share metric but other.self_share names a
	// layer foldLayer can return; other takes the remaining samples.
	var total int64
	for _, n := range t.samples {
		total += n
	}
	out["bench.profile_samples"] = float64(total)
	if total > 0 {
		other := 1.0
		for k := range perLayerUnits {
			if l, ok := strings.CutSuffix(k, ".self_share"); ok && l != "other" {
				out[k] = float64(t.samples[l]) / float64(total)
				other -= out[k]
			}
		}
		out["other.self_share"] = other
	}
	if t.allCPU > 0 {
		out["runtime.gc_cpu_frac"] = t.gcCPU / t.allCPU
	}

	out["runner.points"] = float64(t.points)
	if len(t.pointS) > 0 {
		sort.Float64s(t.pointS)
		out["runner.point_s.p50"], _ = percentile(t.pointS, 50)
		out["runner.point_s.max"] = t.pointS[len(t.pointS)-1]
		out["runner.worker_busy_frac"] = median(t.busyFrac)
	}
	for k, v := range t.decode {
		out[k] = v
	}
	return out
}

// writeSpans writes every recorded span as one JSON object per line.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
