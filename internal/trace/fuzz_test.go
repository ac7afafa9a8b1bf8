package trace

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/isa"
)

// fuzzTraceBytes serialises the shared test trace in the given format
// for seeding the fuzz corpus.
func fuzzTraceBytes(f *testing.F, version int, compress bool) []byte {
	f.Helper()
	var buf bytes.Buffer
	var w *Writer
	if version == Version2 {
		w = NewWriterV2(&buf)
	} else {
		w = NewWriter(&buf, compress)
	}
	if err := w.WriteHeader(testHeader()); err != nil {
		f.Fatal(err)
	}
	for _, in := range testInsts() {
		if err := w.WriteInst(in); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReader feeds arbitrary bytes to the trace decoder. The contract
// under fuzz: corrupt or truncated input must surface as an
// ErrCorrupt-wrapped error (or a clean io.EOF at a record boundary) —
// never a panic, never an unbounded allocation, and never a bare
// undiagnosable error. Every input is exercised through the sequential
// Reader (which sniffs the envelope and version) and, written to a
// file, through the seekable index path (ReadInfo). An input the
// sequential Read loop reads to a clean EOF must decode to the same
// records through ReadBatch and, when it is a plain v2 file, through
// the parallel block decoder.
func FuzzReader(f *testing.F) {
	// Seed corpus: valid v1 (plain and gzip) and v2 traces, prefixes
	// that truncate the header, the record stream, the v2 footer and
	// trailer, targeted corruptions (bad magic, bad version, reserved
	// control bit, flag bits, block CRCs, index bytes), a stream ending
	// in a worst-case length record with an unterminated varint, and
	// junk.
	valid := fuzzTraceBytes(f, Version1, false)
	v2 := fuzzTraceBytes(f, Version2, false)
	f.Add(valid)
	f.Add(fuzzTraceBytes(f, Version1, true))
	f.Add(v2)
	f.Add([]byte{})
	f.Add([]byte("VTRC"))
	f.Add(valid[:8])
	f.Add(valid[:len(valid)-3])
	f.Add(valid[:len(valid)/2])
	f.Add(append(append([]byte(nil), valid...), overlongAddrRecord...))
	for _, mut := range []struct {
		off int
		bit byte
	}{
		{0, 0x01},              // magic
		{4, 0x01},              // major version
		{6, 0x04},              // flags
		{len(valid) - 4, 0x80}, // inside the record stream
	} {
		c := append([]byte(nil), valid...)
		c[mut.off] ^= mut.bit
		f.Add(c)
	}
	// v2-specific seeds: truncated footer (index/trailer cut off),
	// truncated trailer, corrupt block payload CRC, index/offset
	// mismatch (a flipped byte inside the serialised index), and a
	// trailer pointing past the file.
	f.Add(v2[:len(v2)-trailerSize])
	f.Add(v2[:len(v2)-trailerSize/2])
	f.Add(v2[:len(v2)-trailerSize-3])
	for _, off := range []int{
		len(v2) / 2,               // inside a block payload (CRC breaks)
		len(v2) - trailerSize - 2, // inside the index (index CRC breaks)
		len(v2) - trailerSize + 1, // inside the trailer's index offset
		len(v2) - 2,               // inside the trailer magic
	} {
		c := append([]byte(nil), v2...)
		c[off] ^= 0x40
		f.Add(c)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// want holds the records of an input the sequential Read loop
		// reads to a clean EOF; nil otherwise.
		var want []isa.Inst
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("NewReader error not ErrCorrupt: %v", err)
			}
		} else {
			var in isa.Inst
			var got []isa.Inst
			for i := 0; i < 1<<16; i++ {
				err := r.Read(&in)
				if err == nil {
					got = append(got, in)
					continue
				}
				if !errors.Is(err, io.EOF) && !errors.Is(err, ErrCorrupt) {
					t.Fatalf("Read error neither EOF nor ErrCorrupt: %v", err)
				}
				if err == io.EOF {
					want = append([]isa.Inst{}, got...)
				}
				break
			}
			r.Close()
		}

		// A clean stream decodes identically through ReadBatch.
		if want != nil {
			r, err := NewReader(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			var got []isa.Inst
			buf := make([]isa.Inst, 5)
			for {
				n, err := r.ReadBatch(buf)
				got = append(got, buf[:n]...)
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatalf("ReadBatch failed where Read reached EOF: %v", err)
				}
			}
			r.Close()
			equalRecords(t, "ReadBatch", got, want)
		}

		// The seekable side: ReadInfo consults the v2 trailer and index
		// when present, and must uphold the same contract.
		path := filepath.Join(t.TempDir(), "fuzz.trc")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadInfo(path); err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("ReadInfo error not ErrCorrupt: %v", err)
		}

		// A clean plain v2 stream decodes identically through the
		// parallel block decoder, or its index is rejected as corrupt.
		if want == nil {
			return
		}
		r, err = Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if r.Version() != Version2 || r.gz != nil {
			r.Close()
			return
		}
		ps, err := newParallelSource(path, r, 2)
		if err != nil {
			r.Close()
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("parallel source error not ErrCorrupt: %v", err)
			}
			return
		}
		defer ps.Close()
		equalRecords(t, "parallel", drainSource(ps), want)
	})
}

// equalRecords fails t unless got and want hold the same records.
func equalRecords(t *testing.T, route string, got, want []isa.Inst) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, sequential Read gave %d", route, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: record %d = %+v, sequential Read gave %+v", route, i, got[i], want[i])
		}
	}
}
