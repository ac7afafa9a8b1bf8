package main

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// TestGridSpecHashPinned pins the spec hash and point count of the
// grid each top-level flag set builds. The hashes are stamped into
// checkpoint headers, so a change here would strand every checkpoint
// an earlier build wrote for the same command line.
func TestGridSpecHashPinned(t *testing.T) {
	for _, tc := range []struct {
		flags  string
		hash   string
		points int
	}{
		{"-workload BFS", "sj1-2eec12280e2bf9bbb0ee3f3bc03db7a9", 1},
		{"-workload BFS,XS -design radix,ech -seeds 1,2", "sj1-ea67396dbbadd90ab9a0281b7c244235", 8},
		{"-multi -workload rnd,seq -quantum 50000 -asid-retention", "sj1-f8b5e392c56cc565a686337c79fa2b61", 1},
		{"-workload RND -tiers cxl:64M:600:900:8 -tier-policy hotcold,clock -frag 0.5 -mode emulation", "sj1-17360381a866be614eaef832972f5576", 2},
		{"-workload BFS -policy bd -design radix,utopia", "sj1-e7b1b2abf569cf27e3040b39590e26f9", 2},
		{"-workload BFS -design utopia,rmm", "sj1-f77a70a0e9d3ad86fa45c283d0bd62a2", 2},
	} {
		args := append(strings.Fields(tc.flags), "-insts", "1000", "-scale", "0.02")
		g, err := parseGrid(testFlagSet(), args)
		if err != nil {
			t.Fatalf("%s: %v", tc.flags, err)
		}
		if got := g.sweep.SpecHash(); got != tc.hash {
			t.Errorf("%s: spec hash %s, want %s", tc.flags, got, tc.hash)
		}
		if got := len(g.sweep.Points()); got != tc.points {
			t.Errorf("%s: %d points, want %d", tc.flags, got, tc.points)
		}
	}
}

// TestGridRejectsBadFlags: every grid flag is checked before anything
// simulates, by the same SweepSpec validation the spec entry points use.
func TestGridRejectsBadFlags(t *testing.T) {
	for _, flags := range []string{
		"-workload NOPE",
		"-multi -workload rnd,NOPE",
		"-scale -1",
		"-design nope",
		"-policy nope",
		"-mode nope",
		"-frag 1.5",
		"-seeds x",
		"-tier-policy clock",
		"-tiers cxl:64M:600",
		"-shard 3/2",
	} {
		if _, err := parseGrid(testFlagSet(), strings.Fields(flags)); err == nil {
			t.Errorf("%s: accepted", flags)
		}
	}
}

func testFlagSet() *flag.FlagSet {
	fs := flag.NewFlagSet("virtuoso", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs
}
