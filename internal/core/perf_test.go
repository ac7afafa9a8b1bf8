package core

import (
	"path/filepath"
	"testing"

	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// This file holds the engine's profile targets: the throughput probe
// plus core-level benchmarks for the three run shapes the fast lane
// covers (single-process, multiprogrammed, trace replay). Profiling any
// of them is one invocation, e.g.:
//
//	go test -run '^$' -bench BenchmarkCoreRunMulti -benchtime 5x \
//	    -cpuprofile cpu.out ./internal/core
//
// The root-package benchmarks (bench_test.go) gate CI via benchdiff;
// these sit below the public API so a profile shows engine frames
// without Session/Option noise on top.

// TestThroughputProbe reports simulation speed at experiment scale; it
// guards against pathological slowdowns in the hot path.
func TestThroughputProbe(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput probe")
	}
	cfg := DefaultConfig()
	cfg.OSCfg.PhysBytes = 2 * mem.GB
	cfg.MaxAppInsts = 2_000_000
	s := MustNewSystem(cfg)
	m := s.Run(byName(t, "BFS", workloads.Params{Scale: 0.25}))

	total := m.AppInsts + m.KernelInsts
	ips := float64(total) / m.WallTime.Seconds()
	t.Logf("app=%d kernel=%d wall=%v => %.1f Minst/s, faults=%d mpki=%.2f ptw=%.1f ipc=%.3f trans=%.1f%% alloc=%.1f%%",
		m.AppInsts, m.KernelInsts, m.WallTime, ips/1e6, m.MinorFaults, m.L2TLBMPKI, m.AvgPTWLat, m.IPC,
		100*m.TranslationFraction(), 100*m.AllocationFraction())
	if ips < 100_000 {
		t.Fatalf("simulation too slow: %.0f inst/s", ips)
	}
}

// BenchmarkCoreSingle is the single-process engine under the default
// (batched) run loop — the baseline profile target.
func BenchmarkCoreSingle(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig()
		cfg.OSCfg.PhysBytes = 2 * mem.GB
		cfg.MaxAppInsts = 1_000_000
		s := MustNewSystem(cfg)
		m := s.Run(byName(b, "BFS", workloads.Params{Scale: 0.1}))
		b.ReportMetric(float64(m.AppInsts+m.KernelInsts)/m.WallTime.Seconds(), "sim-inst/s")
	}
}

// BenchmarkCoreRunMulti profiles the multiprogrammed engine: the
// round-robin scheduler, per-process batch buffers, context switches,
// and TLB flush/retention policy all show up here and nowhere else.
func BenchmarkCoreRunMulti(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig()
		cfg.OSCfg.PhysBytes = 2 * mem.GB
		cfg.MaxAppInsts = 1_000_000
		s := MustNewSystem(cfg)
		mm, err := s.RunMulti(mixFor(b, workloads.Params{Scale: 0.1}, "BFS", "RND"))
		if err != nil {
			b.Fatal(err)
		}
		agg := mm.Aggregate
		b.ReportMetric(float64(agg.AppInsts+agg.KernelInsts)/agg.WallTime.Seconds(), "sim-inst/s")
		b.ReportMetric(float64(mm.ContextSwitches), "ctx-switches")
	}
}

// BenchmarkCoreTraceReplay profiles the trace-driven frontend at the
// engine level: record decode feeding the
// batched run loop, with no workload generation in the measured region.
func BenchmarkCoreTraceReplay(b *testing.B) {
	path := filepath.Join(b.TempDir(), "perf.trc")
	rcfg := DefaultConfig()
	rcfg.OSCfg.PhysBytes = 2 * mem.GB
	rcfg.MaxAppInsts = 1_000_000
	rec := MustNewSystem(rcfg)
	tw, err := trace.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := rec.RunRecording(byName(b, "BFS", workloads.Params{Scale: 0.1}), tw); err != nil {
		b.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		b.Fatal(err)
	}
	w, err := trace.NewWorkload(path)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := rcfg
		cfg.TracePath = path
		cfg.Frontend = FrontendTrace
		s := MustNewSystem(cfg)
		m := s.Run(w)
		b.ReportMetric(float64(m.AppInsts+m.KernelInsts)/m.WallTime.Seconds(), "sim-inst/s")
	}
}
