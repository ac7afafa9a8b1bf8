package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/isa"
	"repro/internal/trace"
)

// decodeRounds is how many decode-only passes each route makes; the
// median pass is reported.
const decodeRounds = 3

// decodeRoutes times a decode-only pass over the fixture through each
// trace decode route and records ns and allocated bytes per record:
//
//	inline       trace.Open + Reader.Read, one record at a time
//	replay       trace.OpenReplaySource, the route replays take by default
//	shared_cold  a fresh trace.Shared store decoding the file
//	shared_warm  a second cursor on that store, decoding nothing
//
// Every route must yield the same number of records. A route that
// fails is reported on standard error and counted in
// trace.decode_route_errors, and its figures stay 0: the routes are
// measured beside the workload, which does not depend on them.
func (t *tracer) decodeRoutes(path string) {
	shared := func(store *trace.Shared) (uint64, error) {
		src, err := store.Open(path)
		if err != nil {
			return 0, err
		}
		return drain(src)
	}
	routes := []struct {
		name string
		pass func(store *trace.Shared) (uint64, error)
	}{
		{"inline", func(*trace.Shared) (uint64, error) { return readInline(path) }},
		{"replay", func(*trace.Shared) (uint64, error) {
			src, err := trace.OpenReplaySource(path)
			if err != nil {
				return 0, err
			}
			return drain(src)
		}},
		{"shared_cold", shared},
		{"shared_warm", shared},
	}
	want, err := readInline(path)
	if err != nil || want == 0 {
		fmt.Fprintf(os.Stderr, "simbench: decode routes: inline: %d records, %v\n", want, err)
		t.decode["trace.decode_route_errors"] = float64(len(routes))
		return
	}
	t.decode["trace.records"] = float64(want)
	for _, r := range routes {
		ns, bytes, err := timeRoute(r.name == "shared_warm", shared, r.pass, want)
		if err != nil {
			fmt.Fprintf(os.Stderr, "simbench: decode route %s: %v\n", r.name, err)
			t.decode["trace.decode_route_errors"]++
			continue
		}
		t.decode["trace.decode_ns_per_record."+r.name] = ns
		t.decode["trace.decode_bytes_per_record."+r.name] = bytes
	}
}

// timeRoute makes decodeRounds passes through one route and returns the
// median ns and allocated bytes per record. A warm route first fills a
// fresh store with fill, so that it measures a repeat replay of content
// already decoded.
func timeRoute(warm bool, fill, pass func(*trace.Shared) (uint64, error), want uint64) (nsPer, bytesPer float64, err error) {
	ns := make([]float64, decodeRounds)
	bytes := make([]float64, decodeRounds)
	for i := range decodeRounds {
		store := trace.NewShared(0)
		if warm {
			if _, err := fill(store); err != nil {
				return 0, 0, fmt.Errorf("filling the store: %w", err)
			}
		}
		a0 := memAlloc()
		t0 := time.Now()
		n, err := pass(store)
		d := time.Since(t0)
		if err != nil {
			return 0, 0, err
		}
		if n != want {
			return 0, 0, fmt.Errorf("decoded %d records, inline decoded %d", n, want)
		}
		ns[i] = float64(d.Nanoseconds()) / float64(n)
		bytes[i] = float64(memAlloc()-a0) / float64(n)
	}
	return median(ns), median(bytes), nil
}

// readInline decodes the file record by record and returns the count.
func readInline(path string) (uint64, error) {
	r, err := trace.Open(path)
	if err != nil {
		return 0, err
	}
	defer r.Close()
	var in isa.Inst
	for {
		if err := r.Read(&in); errors.Is(err, io.EOF) {
			return r.Records(), nil
		} else if err != nil {
			return 0, err
		}
	}
}

// drain reads a source to the end, closes it, and returns the number of
// records it produced.
func drain(src isa.Source) (uint64, error) {
	buf := make([]isa.Inst, 1024)
	var n uint64
	for {
		k := isa.FillBatch(src, buf)
		if k == 0 {
			break
		}
		n += uint64(k)
	}
	if c, ok := src.(io.Closer); ok {
		if err := c.Close(); err != nil {
			return n, err
		}
	}
	return n, nil
}
