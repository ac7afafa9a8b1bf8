package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"
	"time"

	virtuoso "repro"
	"repro/internal/core"
)

func TestTailPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		return v
	}
	for _, tc := range []struct {
		n       int
		wantP   float64
		wantV   float64
		wantOK  bool
		comment string
	}{
		{19, 0, 0, false, "even the median has only 9 samples above it"},
		{20, 50, 10, true, "10 samples above the median"},
		{100, 90, 90, true, "p95 would leave 5 beyond"},
		{1000, 99, 990, true, "p99.9 would leave 1 beyond"},
		{10000, 99.9, 9990, true, ""},
	} {
		p, v, ok := tailPercentile(seq(tc.n))
		if p != tc.wantP || v != tc.wantV || ok != tc.wantOK {
			t.Errorf("n=%d: got p%v=%v ok=%v, want p%v=%v ok=%v (%s)", tc.n, p, v, ok, tc.wantP, tc.wantV, tc.wantOK, tc.comment)
		}
		if ok {
			if _, beyond := percentile(seq(tc.n), p); beyond < 10 {
				t.Errorf("n=%d: p%v has %d samples beyond it", tc.n, p, beyond)
			}
		}
	}
	if v, _ := percentile(seq(5), 50); v != 3 {
		t.Errorf("median of 1..5 = %v, want 3", v)
	}
}

func TestFoldLayer(t *testing.T) {
	for _, tc := range []struct {
		frames []string
		want   string
	}{
		{[]string{"repro/internal/cache.(*Cache).fill", "repro/internal/cache.(*Hierarchy).Access"}, "cache"},
		{[]string{"runtime.mallocgc", "repro/internal/cache.(*Cache).fill"}, "runtime"},
		{[]string{"internal/runtime/atomic.(*Uint32).Load", "repro/internal/core.(*System).Run"}, "runtime"},
		{[]string{"compress/flate.(*decompressor).huffSym", "io.ReadAtLeast", "repro/internal/trace.(*Reader).loadBlock"}, "trace"},
		{[]string{"slices.SortFunc[go.shape.struct { a int }]", "repro/internal/tier.(*Manager).Victim"}, "tier"},
		{[]string{"repro/internal/mimicos/sub.f", "main.main"}, "mimicos"},
		{[]string{"repro.(*Sweep).Run.func1"}, "runner"},
		{[]string{"time.Now", "repro/simbench.kernelHandler.func1", "repro/internal/core.(*System).handleFault"}, "other"},
		{[]string{"type:.eq.repro/internal/isa.Inst", "repro/internal/cpu.(*Core).Step"}, "isa"},
		{[]string{"sync.(*Mutex).Lock", "main.main"}, "other"},
	} {
		if got := foldLayer(tc.frames); got != tc.want {
			t.Errorf("foldLayer(%q) = %q, want %q", tc.frames, got, tc.want)
		}
	}
}

//go:noinline
func spin(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		s += i * i % 7
	}
	return s
}

var sink int

func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		sink += spin(1 << 16)
	}
	pprof.StopCPUProfile()
	stacks, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, inSpin int64
	for _, s := range stacks {
		total += s.count
		if len(s.frames) > 0 && s.frames[0] == "repro/simbench.spin" {
			inSpin += s.count
		}
	}
	if total == 0 || inSpin*2 < total {
		t.Errorf("%d of %d samples have repro/simbench.spin as their leaf, want most", inSpin, total)
	}
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Error("parseProfile accepted garbage")
	}
}

func TestDigestStripsHostTime(t *testing.T) {
	a := virtuoso.Metrics{Workload: "BFS", AppInsts: 10, Cycles: 20, WallTime: time.Second, SimHeapBytes: 5}
	b := a
	b.WallTime, b.SimHeapBytes = 3*time.Second, 99
	c := a
	c.Cycles++
	for _, m := range []*virtuoso.Metrics{&a, &b, &c} {
		stripMetrics(m)
	}
	da, _ := digest(a)
	db, _ := digest(b)
	dc, _ := digest(c)
	if da != db {
		t.Error("metrics differing only in host-time fields digest differently")
	}
	if da == dc {
		t.Error("metrics differing in a simulated counter digest identically")
	}

	ma := virtuoso.MultiMetrics{Aggregate: virtuoso.Metrics{AppInsts: 1, WallTime: time.Second, SimHeapBytes: 1}}
	mb := ma
	mb.Aggregate.WallTime, mb.Aggregate.SimHeapBytes = time.Minute, 2
	stripMulti(&ma)
	stripMulti(&mb)
	dma, _ := digest(ma)
	dmb, _ := digest(mb)
	if dma != dmb {
		t.Error("multi metrics differing only in host-time fields digest differently")
	}
}

// TestKernelHandlerMatchesServeRequest sends the same requests through
// the engine's own functional-channel handler and through the
// benchmark's timing handler, then runs both sessions: every response
// and the simulated outputs must be identical. The run is a short
// multiprogrammed one on undersized DRAM backed by swap, so that swap
// writeback and device queueing make the outcome depend on each
// fault's write flag and time; the mmap and munmap requests, which the
// workloads do not send, are issued directly.
func TestKernelHandlerMatchesServeRequest(t *testing.T) {
	run := func(tr *tracer) (string, virtuoso.MultiMetrics) {
		cfg := virtuoso.ScaledConfig()
		cfg.MaxAppInsts = 150_000
		cfg.Policy = virtuoso.PolicyBuddy
		cfg.OSCfg.PhysBytes = 12 << 20
		cfg.OSCfg.SwapBytes = 512 << 20
		cfg.OSCfg.SwapThreshold = 0.5
		sess, err := virtuoso.Open(
			virtuoso.WithConfig(cfg),
			virtuoso.WithWorkloadScale(0.05),
			virtuoso.WithProcesses("RND", "BFS"),
		)
		if err != nil {
			t.Fatal(err)
		}
		sys := sess.System()
		tr.timeKernel(sys)
		call := func(req core.Request) core.Response {
			req.PID = sys.Proc.PID
			return sys.FuncChan.Call(req)
		}
		base := call(core.Request{Kind: core.EvMmap, Length: 4 << 20, Flags: virtuoso.MmapFlags{Anon: true}}).MmapBase
		resps := []core.Response{
			call(core.Request{Kind: core.EvMunmap, VA: base + 1<<20, Length: 1 << 20}),
			call(core.Request{Kind: core.EvPageFault, VA: base + 1<<20, Write: true}),
			call(core.Request{Kind: core.EvMmap, Length: 2 << 20, Flags: virtuoso.MmapFlags{Anon: true}}),
		}
		mm, err := sess.RunMultiContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		stripMulti(&mm)
		d, err := digest(struct {
			Base      uint64
			Responses []core.Response
			Metrics   virtuoso.MultiMetrics
		}{uint64(base), resps, mm})
		if err != nil {
			t.Fatal(err)
		}
		return d, mm
	}
	tr := newTracer()
	tr.beginRep()
	plain, mm := run(nil)
	timed, _ := run(tr)
	if plain != timed {
		t.Errorf("timing handler changed the simulated outputs: digest %s, engine handler %s", timed, plain)
	}
	if mm.Aggregate.OS.SwapOuts == 0 || mm.Aggregate.OS.SwapIns == 0 {
		t.Errorf("run too light to test the handler: %d swap-outs, %d swap-ins", mm.Aggregate.OS.SwapOuts, mm.Aggregate.OS.SwapIns)
	}
	if tr.callsN[0] == 0 || len(tr.callUS) != int(tr.callsN[0]) {
		t.Errorf("timing handler recorded %v calls and %d durations", tr.callsN[0], len(tr.callUS))
	}
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	check := func(list string, got []struct{ Name, Unit string }, want map[string]string) {
		seen := map[string]bool{}
		for _, m := range got {
			if u, ok := want[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s: %s [%s] is not reported with that unit (program says %q)", list, m.Name, m.Unit, u)
			}
			seen[m.Name] = true
		}
		var missing []string
		for k := range want {
			if !seen[k] {
				missing = append(missing, k)
			}
		}
		sort.Strings(missing)
		if len(missing) > 0 {
			t.Errorf("%s lacks reported metrics: %s", list, strings.Join(missing, ", "))
		}
	}
	check("end_to_end", bj.EndToEnd, endToEndUnits)
	check("per_layer", bj.PerLayer, perLayerUnits)
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown to the program", w.Name)
		}
	}
}
