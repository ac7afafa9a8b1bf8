package virtuoso_test

import (
	"testing"

	virtuoso "repro"
)

// FuzzParseSweepSpec feeds arbitrary bytes to the sweep-spec decoder
// and, when a spec parses, materialises it into a Sweep and hashes it.
// Malformed input must error — never panic — and every spec that
// survives validation must be hashable (SpecHash is what makes
// checkpoints and shard merges safe, so it cannot fail on any spec the
// parser admits).
func FuzzParseSweepSpec(f *testing.F) {
	f.Add([]byte(`{"workloads": ["BFS"]}`))
	f.Add([]byte(`{"workloads": ["BFS", "XS"], "designs": ["radix", "ech"], "policies": ["thp"], "seeds": [1, 2]}`))
	f.Add([]byte(`{"mixes": [["BFS", "RND"]], "quantum_cycles": 100000, "asid_retention": true}`))
	f.Add([]byte(`{"workloads": ["SEQ"], "full_scale": true, "mode": "emulation", "max_app_insts": 1000, "frag": 0.5, "seed": 7}`))
	f.Add([]byte(`{"workloads": ["BFS"], "shard": "1/4", "parallel": 2, "label": "x"}`))
	f.Add([]byte(`{"desings": ["radix"]}`)) // typo: unknown field
	f.Add([]byte(`{"workloads": ["BFS"]} trailing`))
	f.Add([]byte(`{"frag": 2.0, "workloads": ["BFS"]}`))
	f.Add([]byte(`{"shard": "9/4", "workloads": ["BFS"]}`))
	f.Add([]byte(`{"workloads": ["RND", "NOPE"], "designs": ["radix", "ech"]}`))
	f.Add([]byte(`{"mixes": [["RND", "NOPE"]]}`))
	f.Add([]byte(`{"workloads": ["BFS"], "scale": -1}`))
	f.Add([]byte(`{"workloads": ["BFS"], "long_iters": -1}`))
	f.Add([]byte(``))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`{"workloads": [`))

	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := virtuoso.ParseSweepSpec(data)
		if err != nil {
			return
		}
		s, err := sp.Sweep()
		if err != nil {
			return
		}
		if h := s.SpecHash(); h == "" {
			t.Fatal("validated sweep produced an empty spec hash")
		}
	})
}
