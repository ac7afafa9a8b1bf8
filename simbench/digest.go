package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"

	virtuoso "repro"
)

// golden holds the digest of each workload's simulated outputs for the
// seeds it covers, keyed by workload and seed. A run whose seed has an
// entry must reproduce it exactly.
//
//go:embed golden.json
var goldenJSON []byte

var golden = mustGolden()

func mustGolden() map[string]map[string]string {
	var g map[string]map[string]string
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		panic(fmt.Sprintf("simbench: golden.json: %v", err))
	}
	return g
}

// stripMetrics zeroes the host-time fields of m, leaving only simulated
// counters: two runs of the same simulation then digest identically.
func stripMetrics(m *virtuoso.Metrics) {
	m.WallTime = 0
	m.SimHeapBytes = 0
}

func stripMulti(mm *virtuoso.MultiMetrics) { stripMetrics(&mm.Aggregate) }

// digest hashes the JSON form of already stripped outputs.
func digest(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	return digestBytes(b), nil
}

func digestBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:12])
}
