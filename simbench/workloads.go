package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	virtuoso "repro"
)

// The three workloads. README.md says why each was chosen and which
// layers it loads; the sizes below keep one repetition at roughly one
// to three host seconds on a 2-CPU machine.

// runExecBFS is one execution-driven session of the catalog BFS run to
// completion: translation and the cache hierarchy do almost all the
// work, the kernel little.
func runExecBFS(ctx context.Context, seed uint64, tr *tracer) (rep, error) {
	return runSession(ctx, tr, false,
		virtuoso.WithScaledConfig(),
		virtuoso.WithSeed(seed),
		virtuoso.WithMode(virtuoso.Imitation),
		virtuoso.WithDesign(virtuoso.DesignRadix),
		virtuoso.WithPolicy(virtuoso.PolicyTHP),
		virtuoso.WithWorkloadScale(0.1),
		virtuoso.WithWorkload("BFS"),
		virtuoso.WithMaxInstructions(0),
	)
}

// tierMixInsts bounds each process of tier-pressure-mix: far enough
// past the point where hint-fault promotions start that reclaim,
// demotion and promotion all run many thousand times.
const tierMixInsts = 800_000

// runTierMix is one multiprogrammed session (RND+BFS) on undersized
// DRAM backed by CXL and NVM tiers: MimicOS spends its time in reclaim,
// demotion and hint-fault promotion, and nearly all simulated
// instructions are injected kernel streams.
func runTierMix(ctx context.Context, seed uint64, tr *tracer) (rep, error) {
	cfg := virtuoso.ScaledConfig()
	cfg.Seed = seed
	cfg.MaxAppInsts = tierMixInsts
	cfg.Policy = virtuoso.PolicyBuddy
	cfg.OSCfg.PhysBytes = 12 << 20
	cfg.OSCfg.SwapBytes = 512 << 20
	cfg.OSCfg.SwapThreshold = 0.5
	return runSession(ctx, tr, true,
		virtuoso.WithConfig(cfg),
		virtuoso.WithTiers(
			virtuoso.TierSpec{Name: "cxl", Bytes: 64 << 20, ReadLat: 600, WriteLat: 900, BytesPerCycle: 8},
			virtuoso.TierSpec{Name: "nvm", Bytes: 128 << 20, ReadLat: 2500, WriteLat: 8000, BytesPerCycle: 2},
		),
		virtuoso.WithTierPolicy(virtuoso.TierPolicyHotCold),
		virtuoso.WithWorkloadScale(0.05),
		virtuoso.WithProcesses("RND", "BFS"),
	)
}

// openRounds is how many times a session repetition opens its session,
// running only the last one. Open takes well under a millisecond, so a
// single sample is mostly noise; setup_s is the median of them all.
// Each Open starts from a collected heap: otherwise the garbage of the
// sessions before it decides whether a GC cycle lands inside it. The
// collections also empty the process-wide pool through which finished
// sessions pass on their kernel stream buffer, so the session that
// runs grows its own, as a lone session in a fresh process does.
const openRounds = 9

// runSession opens one session (the set-up) and runs it (the timed
// simulation). A traced repetition times every MimicOS call, profiles
// the run and reads the layers' counters afterwards.
func runSession(ctx context.Context, tr *tracer, multi bool, opts ...virtuoso.Option) (rep, error) {
	var r rep
	var sess *virtuoso.Session
	var alloc0 uint64
	var err error
	r.setupS = make([]float64, openRounds)
	for i := range r.setupS {
		runtime.GC()
		alloc0 = memAlloc()
		t0 := time.Now()
		sess, err = virtuoso.Open(opts...)
		r.setupS[i] = time.Since(t0).Seconds()
		tr.span("Open", t0, r.setupS[i])
		if err != nil {
			return r, err
		}
	}
	tr.timeKernel(sess.System())

	var out any
	var m virtuoso.Metrics
	runName := "Run"
	if multi {
		runName = "RunMulti"
	}
	stop := tr.startRun()
	t0 := time.Now()
	if multi {
		var mm virtuoso.MultiMetrics
		mm, err = sess.RunMultiContext(ctx)
		m = mm.Aggregate
		stripMulti(&mm)
		out = mm
		if err == nil {
			for _, p := range mm.Procs {
				if !p.Finished {
					err = fmt.Errorf("process %d (%s) did not finish", p.PID, p.Workload)
				}
			}
		}
	} else {
		m, err = sess.RunContext(ctx)
		stripMetrics(&m)
		out = m
	}
	r.runS = time.Since(t0).Seconds()
	stop()
	tr.span(runName, t0, r.runS)
	if err != nil {
		return r, err
	}
	if err := checkMetrics(m); err != nil {
		return r, err
	}
	tr.readLayers(sess.System(), m)
	r.simInsts = m.AppInsts + m.KernelInsts
	r.points = 1
	r.allocBytes = memAlloc() - alloc0
	r.digest, err = digest(out)
	return r, err
}

// checkMetrics rejects a result no correct run produces. Simulated
// segmentation faults are not rejected here: they are simulated
// outcomes, part of the digest, and reported as core.segvs.
func checkMetrics(m virtuoso.Metrics) error {
	if m.AppInsts == 0 || m.Cycles == 0 {
		return fmt.Errorf("%s: empty run (%d app instructions, %d cycles)", m.Workload, m.AppInsts, m.Cycles)
	}
	return nil
}

// The replay-sweep grid: four translation designs × two policies.
var (
	sweepDesigns  = []virtuoso.DesignName{virtuoso.DesignRadix, virtuoso.DesignECH, virtuoso.DesignHDC, virtuoso.DesignHT}
	sweepPolicies = []virtuoso.PolicyName{virtuoso.PolicyTHP, virtuoso.PolicyBuddy}
)

// fixtureInsts is the length of the recorded replay-sweep fixture.
const fixtureInsts = 2_000_000

func fixturePath(seed uint64) string {
	return filepath.Join(outDir, fmt.Sprintf("replay-bfs-seed%d.trc", seed))
}

// runReplaySweep records the BFS fixture (set-up, every repetition)
// and replays it on every point of a design × policy sweep through the
// Ramulator-style memory-trace frontend and the default decode route.
func runReplaySweep(ctx context.Context, seed uint64, tr *tracer) (rep, error) {
	var r rep
	runtime.GC()
	alloc0 := memAlloc()
	t0 := time.Now()
	path := fixturePath(seed)
	rec, err := virtuoso.Open(
		virtuoso.WithScaledConfig(),
		virtuoso.WithSeed(seed),
		virtuoso.WithDesign(virtuoso.DesignRadix),
		virtuoso.WithPolicy(virtuoso.PolicyTHP),
		virtuoso.WithWorkloadScale(0.1),
		virtuoso.WithWorkload("BFS"),
		virtuoso.WithMaxInstructions(fixtureInsts),
	)
	if err != nil {
		return r, err
	}
	if _, _, err := rec.Record(path); err != nil {
		return r, err
	}
	base := rec.Config()
	base.MaxAppInsts = 0
	sw := &virtuoso.Sweep{
		Base:      base,
		Workloads: []string{"BFS"},
		Designs:   sweepDesigns,
		Policies:  sweepPolicies,
		WorkloadFactory: func(virtuoso.Point) (*virtuoso.Workload, error) {
			return virtuoso.TraceWorkload(path)
		},
		Configure: func(cfg *virtuoso.Config, _ virtuoso.Point) error {
			cfg.TracePath = path
			cfg.Frontend = virtuoso.FrontendMemTrace
			return nil
		},
		Parallel: runtime.NumCPU(),
	}
	tr.sweepProgress(sw)
	r.setupS = []float64{time.Since(t0).Seconds()}
	tr.span("Setup", t0, r.setupS[0])

	stop := tr.startRun()
	t0 = time.Now()
	report, err := sw.Run(ctx)
	r.runS = time.Since(t0).Seconds()
	stop()
	tr.span("Sweep.Run", t0, r.runS)
	if err != nil {
		return r, err
	}
	if len(report.Results) != len(sweepDesigns)*len(sweepPolicies) {
		return r, fmt.Errorf("sweep returned %d results, want %d", len(report.Results), len(sweepDesigns)*len(sweepPolicies))
	}
	for _, res := range report.Results {
		if err := checkMetrics(res.Metrics); err != nil {
			return r, fmt.Errorf("point %d: %w", res.Index, err)
		}
		r.simInsts += res.Metrics.AppInsts + res.Metrics.KernelInsts
	}
	r.points = len(report.Results)
	r.allocBytes = memAlloc() - alloc0
	canon, err := report.CanonicalJSON()
	if err != nil {
		return r, err
	}
	r.digest = digestBytes(canon)
	if tr != nil {
		tr.sweepDone(report, sw.Parallel, r.runS)
		if err := probe(ctx, tr, base, path, report.Results[0]); err != nil {
			return r, err
		}
	}
	return r, nil
}

// probe replays the sweep's first point again as a plain session, so
// a traced repetition can time its MimicOS calls and read the layers'
// counters (sweep points keep their systems to themselves). The probe
// runs after the profiled sweep and must reproduce the point exactly.
func probe(ctx context.Context, tr *tracer, base virtuoso.Config, path string, first virtuoso.Result) error {
	cfg := base
	cfg.Design = sweepDesigns[0]
	cfg.Policy = sweepPolicies[0]
	sess, err := virtuoso.Open(
		virtuoso.WithConfig(cfg),
		virtuoso.WithFrontend(virtuoso.FrontendMemTrace),
		virtuoso.WithTrace(path),
	)
	if err != nil {
		return err
	}
	tr.timeKernel(sess.System())
	m, err := sess.RunContext(ctx)
	if err != nil {
		return err
	}
	tr.readLayers(sess.System(), m)
	want := first.Metrics
	stripMetrics(&m)
	stripMetrics(&want)
	got, err := digest(m)
	if err != nil {
		return err
	}
	if exp, err := digest(want); err != nil || got != exp {
		return fmt.Errorf("probe replay of point 0 differs from the sweep's result (digest %s, want %s)", got, exp)
	}
	return nil
}
