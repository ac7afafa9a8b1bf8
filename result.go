package virtuoso

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"repro/internal/stats"
)

// Result is one sweep point's outcome: the configuration echo that
// identifies the point plus the full metrics of its run. It marshals to
// JSON (fault-latency series included) for downstream analysis.
//
// A Result always describes a run that completed: cancelled sweeps
// report the points that finished before the stop and omit interrupted
// ones entirely, because a truncated simulation's metrics are
// meaningless. With Sweep.Checkpoint set, every reported Result is
// also durable in the checkpoint file, so nothing a cancelled sweep
// returned is ever re-simulated on resume.
type Result struct {
	Index    int        `json:"index"`
	Workload string     `json:"workload"`
	Design   DesignName `json:"design"`
	Policy   PolicyName `json:"policy"`
	// TierPolicy echoes the tier migration policy of a tiered-memory
	// point ("" for flat-memory points; the default policy name when
	// tiers were configured without an explicit policy).
	TierPolicy string  `json:"tier_policy,omitempty"`
	Mode       string  `json:"mode"`
	Seed       uint64  `json:"seed"`
	Metrics    Metrics `json:"metrics"`
	// Multi carries the per-process breakdown of a multiprogrammed
	// point (Sweep.Mixes / Session.MultiResult); Metrics then echoes
	// Multi.Aggregate. Nil for single-workload points.
	Multi *MultiMetrics `json:"multi,omitempty"`
}

// newResult echoes the executed config around one run's metrics — the
// config after the grid axes and any Configure hook, which may have
// overridden design, policy, or seed. multi is nil for single-workload
// runs; for a mix, m is its aggregate.
func newResult(index int, workload string, cfg Config, m Metrics, multi *MultiMetrics) Result {
	// A flat config echoes no migration policy; tiers without an
	// explicit policy run the default one.
	tierPolicy := cfg.OSCfg.TierPolicy
	if len(cfg.OSCfg.Tiers) == 0 {
		tierPolicy = ""
	} else if tierPolicy == "" {
		tierPolicy = TierPolicyHotCold
	}
	return Result{
		Index:      index,
		Workload:   workload,
		Design:     cfg.Design,
		Policy:     cfg.Policy,
		TierPolicy: tierPolicy,
		Mode:       cfg.Mode.String(),
		Seed:       cfg.Seed,
		Metrics:    m,
		Multi:      multi,
	}
}

// Key returns a compact "workload/design/policy/seed" identifier.
func (r Result) Key() string {
	return fmt.Sprintf("%s/%s/%s/%d", r.Workload, r.Design, r.Policy, r.Seed)
}

// Report aggregates a sweep's results.
type Report struct {
	// Results holds one entry per completed point, in point order. A
	// cancelled or failed sweep reports only the points that finished;
	// a sharded sweep reports only its shard's points.
	Results []Result `json:"results"`
	// Points is the FULL grid size the sweep enumerated — also for a
	// shard run, whose Results cover only its slice. Merge tooling
	// validates shard exhaustiveness against it.
	Points int `json:"points"`
	// SpecHash fingerprints the generating sweep (Sweep.SpecHash):
	// grid axes, params, base config, and spec version. Reports and
	// checkpoints with equal hashes are comparable point-for-point.
	SpecHash string `json:"spec_hash,omitempty"`
	// Shard is the "i/N" slice this report covers ("" = whole grid).
	Shard string `json:"shard,omitempty"`
	// Wall is the host time the whole sweep took.
	Wall time.Duration `json:"wall_ns"`

	// Provenance counters for this run: how many of Results were
	// actually simulated (Executed) versus restored from the resume
	// checkpoint (FromCheckpoint) or answered by the content-addressed
	// cache (FromCache). Run-shape metadata, not results — excluded
	// from the JSON encodings so cached and fresh reports stay
	// byte-identical.
	Executed       int `json:"-"`
	FromCache      int `json:"-"`
	FromCheckpoint int `json:"-"`
}

// JSON renders the report as indented JSON.
func (r *Report) JSON() ([]byte, error) { return json.MarshalIndent(r, "", "  ") }

// CanonicalJSON renders the report in its determinism-comparison form:
// the host-dependent fields (Wall, per-result WallTime/SimHeapBytes)
// and the shard coordinates are zeroed, and everything else —
// simulated counters, latencies, per-process breakdowns — is emitted
// exactly as JSON would. Two runs of the same sweep are equivalent iff
// their CanonicalJSON is byte-identical; this is the form the
// sharded-resume determinism tests and `virtuoso sweep merge
// -canonical` compare. The receiver is not modified.
func (r *Report) CanonicalJSON() ([]byte, error) {
	out := *r
	out.Wall = 0
	out.Shard = ""
	out.Results = make([]Result, len(r.Results))
	for i, res := range r.Results {
		res.Metrics.WallTime = 0
		res.Metrics.SimHeapBytes = 0
		if res.Multi != nil {
			mm := *res.Multi
			mm.Aggregate.WallTime = 0
			mm.Aggregate.SimHeapBytes = 0
			res.Multi = &mm
		}
		out.Results[i] = res
	}
	return json.MarshalIndent(&out, "", "  ")
}

// DecodeReport parses a report previously rendered with JSON.
func DecodeReport(data []byte) (*Report, error) {
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// Grouping keys for GroupBy / GeomeanBy.
var (
	// ByWorkload groups results by workload name.
	ByWorkload = func(r Result) string { return r.Workload }
	// ByDesign groups results by translation design.
	ByDesign = func(r Result) string { return string(r.Design) }
	// ByPolicy groups results by allocation policy.
	ByPolicy = func(r Result) string { return string(r.Policy) }
)

// GroupBy partitions the results by the given key, preserving point
// order within each group.
func (r *Report) GroupBy(key func(Result) string) map[string][]Result {
	groups := make(map[string][]Result)
	for _, res := range r.Results {
		k := key(res)
		groups[k] = append(groups[k], res)
	}
	return groups
}

// Geomean returns the geometric mean of metric over all results
// (non-positive values are ignored, matching stats.GeoMean).
func (r *Report) Geomean(metric func(Result) float64) float64 {
	vs := make([]float64, 0, len(r.Results))
	for _, res := range r.Results {
		vs = append(vs, metric(res))
	}
	return stats.GeoMean(vs)
}

// GeomeanBy returns the per-group geometric mean of metric, keyed as
// GroupBy does.
func (r *Report) GeomeanBy(key func(Result) string, metric func(Result) float64) map[string]float64 {
	out := make(map[string]float64)
	for k, group := range r.GroupBy(key) {
		vs := make([]float64, 0, len(group))
		for _, res := range group {
			vs = append(vs, metric(res))
		}
		out[k] = stats.GeoMean(vs)
	}
	return out
}

// Filter returns a report containing only the results pred accepts
// (Points and Wall carry over unchanged).
func (r *Report) Filter(pred func(Result) bool) *Report {
	out := &Report{Points: r.Points, Wall: r.Wall}
	for _, res := range r.Results {
		if pred(res) {
			out.Results = append(out.Results, res)
		}
	}
	return out
}

// Keys returns the sorted group keys of GroupBy(key) — convenient for
// stable iteration when printing.
func (r *Report) Keys(key func(Result) string) []string {
	seen := make(map[string]bool)
	var keys []string
	for _, res := range r.Results {
		if k := key(res); !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}
