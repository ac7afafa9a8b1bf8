package trace

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/workloads"
)

func testHeader() Header {
	return Header{
		Workload:  "BFS",
		Class:     workloads.LongRunning,
		Footprint: 320 * mem.MB,
		Seed:      42,
		Layout: []Segment{
			{Start: 0x1000_0000_0000, Length: 16 * mem.MB, Anon: true},
			{Start: 0x1000_4000_0000, Length: 4 * mem.KB, File: true, FileID: 7},
			{Start: 0x1000_8000_0000, Length: 2 * mem.MB, HugeTLB: true, Huge1G: true, DAX: true, FileID: 11},
		},
	}
}

// testInsts exercises every op kind, batching, physical addresses, and
// both forward and backward PC/address deltas.
func testInsts() []isa.Inst {
	return []isa.Inst{
		{Op: isa.OpALU, Count: 12, PC: 0x400100},
		{Op: isa.OpLoad, Count: 1, PC: 0x400104, Addr: 0x1000_0000_0040},
		{Op: isa.OpStore, Count: 1, PC: 0x400104, Addr: 0x1000_0000_0080},
		{Op: isa.OpLoad, Count: 1, PC: 0x400090, Addr: 0x1000_0000_0000}, // backward deltas
		{Op: isa.OpFP, Count: 3, PC: 0x400094},
		{Op: isa.OpBranch, Count: 1, PC: 0x400098},
		{Op: isa.OpAtomic, Count: 1, PC: 0xffff_8000_0000_1000, Phys: true, Addr: 0x7f_f000},
		{Op: isa.OpDelay, Count: 5800},
		{Op: isa.OpMagic, Count: 1, PC: 0xffff_8000_0000_1004, Phys: true},
		{Op: isa.OpStore, Count: 1, PC: 0x400098, Addr: 0x1000_0200_0000},
	}
}

func writeTrace(t *testing.T, buf *bytes.Buffer, compress bool, hdr Header, insts []isa.Inst) {
	t.Helper()
	w := NewWriter(buf, compress)
	if err := w.WriteHeader(hdr); err != nil {
		t.Fatal(err)
	}
	for _, in := range insts {
		if err := w.WriteInst(in); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func readAll(t *testing.T, r *Reader) []isa.Inst {
	t.Helper()
	var out []isa.Inst
	var in isa.Inst
	for {
		err := r.Read(&in)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, in)
	}
}

func TestRoundTrip(t *testing.T) {
	for _, compress := range []bool{false, true} {
		name := "plain"
		if compress {
			name = "gzip"
		}
		t.Run(name, func(t *testing.T) {
			hdr, insts := testHeader(), testInsts()
			var buf bytes.Buffer
			writeTrace(t, &buf, compress, hdr, insts)

			r, err := NewReader(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			got := r.Header()
			if got.Workload != hdr.Workload || got.Class != hdr.Class ||
				got.Footprint != hdr.Footprint || got.Seed != hdr.Seed {
				t.Errorf("header mismatch: got %+v want %+v", got, hdr)
			}
			if len(got.Layout) != len(hdr.Layout) {
				t.Fatalf("layout: got %d segments, want %d", len(got.Layout), len(hdr.Layout))
			}
			for i := range hdr.Layout {
				if got.Layout[i] != hdr.Layout[i] {
					t.Errorf("segment %d: got %+v want %+v", i, got.Layout[i], hdr.Layout[i])
				}
			}
			back := readAll(t, r)
			if len(back) != len(insts) {
				t.Fatalf("got %d records, want %d", len(back), len(insts))
			}
			for i := range insts {
				if back[i] != insts[i] {
					t.Errorf("record %d: got %+v want %+v", i, back[i], insts[i])
				}
			}
		})
	}
}

func TestRoundTripFiles(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name    string
		create  func(string) (*Writer, error)
		version int
	}{
		// Create writes v2 whatever the extension; CreateV1 keys the
		// gzip envelope off ".gz". Readers sniff, so all four decode.
		{"t.trc", Create, Version2},
		{"t.trc.gz", Create, Version2},
		{"v1.trc", CreateV1, Version1},
		{"v1.trc.gz", CreateV1, Version1},
	} {
		name := tc.name
		path := filepath.Join(dir, name)
		w, err := tc.create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WriteHeader(testHeader()); err != nil {
			t.Fatal(err)
		}
		for _, in := range testInsts() {
			if err := w.WriteInst(in); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}

		info, err := ReadInfo(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if info.Version != tc.version {
			t.Errorf("%s: Version=%d, want %d", name, info.Version, tc.version)
		}
		wantCompressed := tc.version == Version2 || strings.HasSuffix(name, ".gz")
		if info.Compressed != wantCompressed {
			t.Errorf("%s: Compressed=%v, want %v", name, info.Compressed, wantCompressed)
		}
		if tc.version == Version2 && info.Blocks != 1 {
			t.Errorf("%s: Blocks=%d, want 1", name, info.Blocks)
		}
		if info.Records != uint64(len(testInsts())) {
			t.Errorf("%s: %d records, want %d", name, info.Records, len(testInsts()))
		}
		// 12 ALU + 2 loads + 2 stores + 3 FP + 1 branch + 1 atomic +
		// 1 magic; the 5800-cycle delay is excluded.
		if info.Insts != 22 {
			t.Errorf("%s: %d insts, want 22", name, info.Insts)
		}
		if info.MemOps != 5 {
			t.Errorf("%s: %d mem ops, want 5", name, info.MemOps)
		}
	}
}

func TestCountCanonicalisation(t *testing.T) {
	// Count 0 and Count 1 are semantically identical (isa.Inst.N); the
	// format stores the canonical form.
	var buf bytes.Buffer
	writeTrace(t, &buf, false, Header{Workload: "w"}, []isa.Inst{{Op: isa.OpALU, Count: 0, PC: 4}})
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got := readAll(t, r)
	if len(got) != 1 || got[0].Count != 1 {
		t.Fatalf("got %+v, want Count canonicalised to 1", got)
	}
}

func TestWriterMisuse(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, false)
	if err := w.WriteInst(isa.Inst{Op: isa.OpALU}); err == nil {
		t.Error("WriteInst before WriteHeader should fail")
	}
	if err := w.WriteHeader(Header{Workload: "w"}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteHeader(Header{Workload: "w"}); err == nil {
		t.Error("double WriteHeader should fail")
	}
}

// TestWriterRejectsUnencodableOps: the control byte holds a 3-bit op,
// so ops past it (the kernel-only range records) must fail loudly
// rather than be masked into another op.
func TestWriterRejectsUnencodableOps(t *testing.T) {
	for _, w := range []*Writer{NewWriter(io.Discard, false), NewWriterV2(io.Discard)} {
		if err := w.WriteHeader(Header{Workload: "w"}); err != nil {
			t.Fatal(err)
		}
		for _, op := range []isa.Op{isa.OpZeroRange, isa.OpCopyRange, ctrlOpMask + 1, 0xff} {
			if err := w.WriteInst(isa.Inst{Op: op, Count: 4, Addr: 0x1000}); err == nil {
				t.Errorf("v%d: WriteInst(%v) succeeded", w.Version(), op)
			}
		}
		if err := w.WriteInst(isa.Inst{Op: isa.OpMagic}); err != nil {
			t.Errorf("v%d: WriteInst(magic) after a rejected op: %v", w.Version(), err)
		}
		if w.Records() != 1 {
			t.Errorf("v%d: %d records written, want 1", w.Version(), w.Records())
		}
	}
}

func TestHeaderErrors(t *testing.T) {
	hdr, insts := testHeader(), testInsts()
	var buf bytes.Buffer
	writeTrace(t, &buf, false, hdr, insts)
	good := buf.Bytes()

	corrupt := func(name string, mutate func([]byte) []byte) {
		t.Run(name, func(t *testing.T) {
			data := mutate(append([]byte(nil), good...))
			_, err := NewReader(bytes.NewReader(data))
			if err == nil {
				t.Fatal("NewReader accepted a corrupt header")
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Errorf("error %v is not ErrCorrupt", err)
			}
		})
	}

	corrupt("empty", func(b []byte) []byte { return nil })
	corrupt("short magic", func(b []byte) []byte { return b[:3] })
	corrupt("bad magic", func(b []byte) []byte { b[0] = 'X'; return b })
	corrupt("bad major version", func(b []byte) []byte { b[4] = 99; return b })
	corrupt("nonzero flags", func(b []byte) []byte { b[6] = 1; return b })
	corrupt("truncated mid header", func(b []byte) []byte { return b[:12] })
	corrupt("oversized name length", func(b []byte) []byte {
		// The name-length uvarint sits right after the 8 fixed bytes.
		return append(b[:8], 0xff, 0xff, 0xff, 0x7f)
	})

	t.Run("gzip garbage", func(t *testing.T) {
		if _, err := NewReader(bytes.NewReader([]byte("not gzip at all"))); !errors.Is(err, ErrCorrupt) {
			t.Errorf("got %v, want ErrCorrupt", err)
		}
	})
}

func TestTruncatedRecords(t *testing.T) {
	hdr, insts := testHeader(), testInsts()
	var buf bytes.Buffer
	writeTrace(t, &buf, false, hdr, insts)
	good := buf.Bytes()

	// Find where records start: re-encode just the header.
	var hb bytes.Buffer
	writeTrace(t, &hb, false, hdr, nil)
	recStart := hb.Len()

	// Cutting anywhere strictly inside the record section must yield
	// ErrCorrupt (clean EOF is only legal at a record boundary)…
	sawCorrupt := false
	for cut := recStart + 1; cut < len(good); cut++ {
		r, err := NewReader(bytes.NewReader(good[:cut]))
		if err != nil {
			t.Fatalf("cut %d: header rejected: %v", cut, err)
		}
		var in isa.Inst
		var readErr error
		for {
			if readErr = r.Read(&in); readErr != nil {
				break
			}
		}
		if readErr == io.EOF {
			continue // cut landed on a record boundary: legal truncation
		}
		if !errors.Is(readErr, ErrCorrupt) {
			t.Fatalf("cut %d: got %v, want ErrCorrupt or EOF", cut, readErr)
		}
		sawCorrupt = true
	}
	if !sawCorrupt {
		t.Error("no cut produced ErrCorrupt; record section too small to test truncation")
	}

	// …and a reserved control bit is rejected.
	bad := append([]byte(nil), good[:recStart]...)
	bad = append(bad, 0x80)
	r, err := NewReader(bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	var in isa.Inst
	if err := r.Read(&in); !errors.Is(err, ErrCorrupt) {
		t.Errorf("reserved bit: got %v, want ErrCorrupt", err)
	}
}

func TestSourcesAreIndependent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.trc.gz")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteHeader(Header{Workload: "w"}); err != nil {
		t.Fatal(err)
	}
	want := make([]isa.Inst, 0, 1000)
	for i := 0; i < 1000; i++ {
		in := isa.Inst{Op: isa.OpLoad, Count: 1, PC: 0x400000 + uint64(i%7)*4, Addr: uint64(0x1000_0000_0000 + i*64)}
		want = append(want, in)
		if err := w.WriteInst(in); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// N concurrent sources over one file must each see the full stream:
	// per-run readers, no shared cursor.
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			src, err := OpenSource(path)
			if err != nil {
				errs <- err
				return
			}
			var in isa.Inst
			for i := 0; src.Next(&in); i++ {
				if in != want[i] {
					errs <- errors.New("stream diverged")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestReadHeaderMissingFile(t *testing.T) {
	if _, err := ReadHeader(filepath.Join(t.TempDir(), "nope.trc")); err == nil {
		t.Error("ReadHeader on a missing file should fail")
	}
	if _, err := os.Stat("nope.trc"); err == nil {
		t.Error("stray file created")
	}
}
