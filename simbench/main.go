// Command simbench is the repository's benchmark: it runs one named
// workload through the public simulator API for a fixed host-time
// window, checks that every repetition simulated exactly the same
// thing, and prints the end-to-end metrics (--trace 0) or the
// per-layer metrics of a traced run (--trace 1). The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}
//
// Run it through run.sh, which builds it from source first. README.md
// explains the workloads and what each metric should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// outDir holds the files a run writes (recorded fixtures, spans),
// relative to the checkout root the benchmark runs from.
const outDir = ".bench_build/simbench"

// minReps is the fewest measured repetitions a run makes, whatever
// --seconds says, so every median rests on at least this many samples.
const minReps = 3

// rep is the outcome of one repetition of a workload.
type rep struct {
	setupS     []float64 // host seconds before the first simulated instruction, per set-up made
	runS       float64   // host seconds of Run/RunMulti/Sweep.Run
	simInsts   uint64    // app + kernel simulated instructions
	points     int       // simulation results produced
	allocBytes uint64    // Go heap bytes allocated, set-up included
	digest     string    // simulated outputs with host-time fields stripped
}

func (r rep) simInstPerS() float64 { return float64(r.simInsts) / r.runS }
func (r rep) pointsPerS() float64  { return float64(r.points) / r.runS }

// workload runs one repetition; tr is nil for untraced repetitions.
type workload struct {
	points int // simulation results one repetition produces
	run    func(ctx context.Context, seed uint64, tr *tracer) (rep, error)
}

var workloads = map[string]workload{
	"exec-bfs":          {points: 1, run: runExecBFS},
	"tier-pressure-mix": {points: 1, run: runTierMix},
	"replay-sweep":      {points: len(sweepDesigns) * len(sweepPolicies), run: runReplaySweep},
}

func main() {
	name := flag.String("workload", "", "workload to run: exec-bfs, tier-pressure-mix or replay-sweep")
	seed := flag.Uint64("seed", 1, "workload seed (Config.Seed)")
	seconds := flag.Int("seconds", 10, "host seconds of measured repetitions")
	traced := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "simbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *traced)
		os.Exit(2)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(1)
	}
	// A hung simulation must not outlive the driver's limit; the
	// context reaches every run loop.
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(*seconds)*time.Second+120*time.Second)
	defer cancel()

	res, err := measure(ctx, *name, wl, *seed, time.Duration(*seconds)*time.Second, *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(1)
	}
	host, _ := json.Marshal(map[string]any{"host": hostIdentity(), "workload": *name, "seed": *seed, "trace": *traced})
	fmt.Println(string(host))
	printTable(os.Stderr, res.Metrics)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// checker compares every repetition's digest with the first one, with
// the golden digest stored for this workload and seed (if any), and
// counts attempted and failed points.
type checker struct {
	workload  string
	seed      uint64
	ref       string
	attempted int
	failed    int
}

// check records one repetition; it reports whether the repetition
// passed. err is the repetition's error (a recovered panic included).
func (c *checker) check(points int, r rep, err error) bool {
	c.attempted += points
	if err == nil {
		if c.ref == "" {
			c.ref = r.digest
		}
		err = c.verify(r.digest)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "simbench: %s seed %d: %v\n", c.workload, c.seed, err)
		c.failed += points
		return false
	}
	return true
}

func (c *checker) verify(d string) error {
	if d != c.ref {
		return fmt.Errorf("simulated outputs differ between repetitions: digest %s, first repetition %s", d, c.ref)
	}
	if g, ok := golden[c.workload][fmt.Sprint(c.seed)]; ok && g != d {
		return fmt.Errorf("simulated outputs differ from the stored golden: digest %s, golden %s", d, g)
	}
	return nil
}

// safeRun runs one repetition, turning a panic into an error so that
// it counts as a failure instead of ending the benchmark.
func safeRun(ctx context.Context, wl workload, seed uint64, tr *tracer) (r rep, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return wl.run(ctx, seed, tr)
}

// measure runs one untimed warm-up repetition and then measured
// repetitions until the window closes. A traced run alternates
// untraced and traced repetitions, so that both see the same host
// conditions and their ratio gives the tracing overhead.
func measure(ctx context.Context, name string, wl workload, seed uint64, window time.Duration, traced bool) (result, error) {
	fmt.Fprintf(os.Stderr, "simbench: %s seed %d: warm-up\n", name, seed)
	c := &checker{workload: name, seed: seed}
	r, err := safeRun(ctx, wl, seed, nil)
	c.check(wl.points, r, err)
	if ctx.Err() != nil {
		return result{}, ctx.Err()
	}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	var plain, withTrace []rep
	deadline := time.Now().Add(window)
	for i := 0; ; i++ {
		if ctx.Err() != nil {
			return result{}, ctx.Err()
		}
		enough := len(plain) >= minReps && (!traced || len(withTrace) >= minReps)
		// Failing repetitions add no samples; stop at the deadline anyway.
		if time.Now().After(deadline) && (enough || c.failed > 0) {
			break
		}
		useTrace := traced && i%2 == 1
		var t *tracer
		if useTrace {
			t = tr
			t.beginRep()
		}
		r, err := safeRun(ctx, wl, seed, t)
		if !c.check(wl.points, r, err) {
			continue
		}
		fmt.Fprintf(os.Stderr, "simbench: rep %d traced=%v setup %.6fs run %.3fs %.4g sim-inst/s alloc %d B\n",
			i, useTrace, median(r.setupS), r.runS, r.simInstPerS(), r.allocBytes)
		if useTrace {
			withTrace = append(withTrace, r)
		} else {
			plain = append(plain, r)
		}
	}
	fmt.Fprintf(os.Stderr, "simbench: %s seed %d: %d untraced, %d traced repetitions, digest %s\n",
		name, seed, len(plain), len(withTrace), c.ref)

	res := result{Attempted: c.attempted, Failed: c.failed, Metrics: map[string]metric{}}
	res.Correct = c.failed == 0
	if len(plain) == 0 || (traced && len(withTrace) == 0) {
		return res, nil
	}
	if !traced {
		for k, v := range map[string]float64{
			"sim_inst_per_s": medianOf(plain, rep.simInstPerS),
			"points_per_s":   medianOf(plain, rep.pointsPerS),
			"setup_s":        pooledSetup(plain),
			"alloc_bytes":    medianOf(plain, func(r rep) float64 { return float64(r.allocBytes) }),
		} {
			res.Metrics[k] = metric{v, endToEndUnits[k]}
		}
		return res, nil
	}
	if name == "replay-sweep" {
		tr.decodeRoutes(fixturePath(seed))
	}
	untracedRate := medianOf(plain, rep.simInstPerS)
	tracedRate := medianOf(withTrace, rep.simInstPerS)
	for k, v := range tr.layerMetrics() {
		res.Metrics[k] = metric{v, perLayerUnits[k]}
	}
	res.Metrics["bench.trace_overhead_frac"] = metric{1 - tracedRate/untracedRate, "ratio"}
	if err := tr.writeSpans(filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", name, seed))); err != nil {
		fmt.Fprintln(os.Stderr, "simbench: writing spans:", err)
	}
	return res, nil
}

// pooledSetup is the median of every set-up the repetitions made.
func pooledSetup(rs []rep) float64 {
	var v []float64
	for _, r := range rs {
		v = append(v, r.setupS...)
	}
	return median(v)
}

func medianOf(rs []rep, f func(rep) float64) float64 {
	v := make([]float64, len(rs))
	for i, r := range rs {
		v[i] = f(r)
	}
	return median(v)
}

// median returns the middle value of v (the mean of the two middle
// values for even lengths); v is reordered.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

func printTable(w io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-40s %16.6g %s\n", k, ms[k].Value, ms[k].Unit)
	}
}

// memAlloc returns the cumulative Go heap bytes allocated so far.
func memAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
