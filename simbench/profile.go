package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A stack is one CPU-profile sample: its sample count and its function
// names, leaf first (inlined frames expanded).
type stack struct {
	count  int64
	frames []string
}

// parseProfile decodes the gzipped profile.proto that runtime/pprof
// writes, keeping only what folding by package needs: each sample's
// count and the function names of its locations.
func parseProfile(data []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location id → function ids, leaf first
		fnName  = map[uint64]int64{}    // function id → string index
		strs    []string
	)
	err = eachField(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			first := true
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, w, v, b)
				case 2: // values: [samples, cpu-ns]; keep the first
					vals := appendPacked(nil, w, v, b)
					if first && len(vals) > 0 {
						s.count = int64(vals[0])
						first = false
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		st := stack{count: s.count}
		for _, l := range s.locs {
			for _, fn := range locFns[l] {
				if i := fnName[fn]; i >= 0 && int(i) < len(strs) {
					st.frames = append(st.frames, strs[i])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks the fields of one protobuf message, passing varint
// values in v and length-delimited payloads in b.
func eachField(msg []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errTruncated
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errTruncated
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field's values, which arrive
// either one per field (wire 0) or packed in one payload (wire 2).
func appendPacked(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// modulePrefix is the import path of the simulator's own packages.
const modulePrefix = "repro/internal/"

// foldLayer names the layer a sample's host time belongs to. The leaf
// frame decides: a runtime leaf (allocation, GC, scheduling) is
// "runtime", a leaf in a simulator package is that package. A leaf in
// any other standard-library package (flate decompression, CRCs,
// sorting, locks) is charged to the nearest simulator frame that
// called it, since that layer asked for the work. The root package's
// frames are the Sweep and Session plumbing around the runner and count
// as "runner". Everything else, the benchmark's own code included, is
// "other".
func foldLayer(frames []string) string {
	for i, f := range frames {
		pkg := packageOf(f)
		if i == 0 && (pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/")) {
			return "runtime"
		}
		if l, ok := strings.CutPrefix(pkg, modulePrefix); ok {
			l, _, _ = strings.Cut(l, "/")
			return l
		}
		if pkg == "repro" {
			return "runner"
		}
		if strings.HasPrefix(pkg, "repro/") {
			return "other"
		}
	}
	return "other"
}

// packageOf returns the import path of the package a symbol name such
// as "repro/internal/cache.(*Cache).fill" or
// "slices.SortFunc[go.shape.int]" belongs to.
func packageOf(sym string) string {
	if i := strings.IndexByte(sym, '['); i >= 0 {
		sym = sym[:i]
	}
	for _, p := range []string{"type:.eq.", "type:.hash.", "go:"} {
		sym = strings.TrimPrefix(sym, p)
	}
	slash := strings.LastIndexByte(sym, '/') + 1
	if dot := strings.IndexByte(sym[slash:], '.'); dot >= 0 {
		return sym[:slash+dot]
	}
	return sym
}
