package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/isa"
	"repro/internal/xrand"
)

// windowInsts builds a stream whose records range from one byte to
// near the widest encoding: repeated PCs and addresses, small deltas,
// and random 64-bit jumps, so records end at every offset of the
// Reader's buffered window.
func windowInsts(n int) []isa.Inst {
	rng := xrand.New(11)
	ops := []isa.Op{isa.OpALU, isa.OpLoad, isa.OpStore, isa.OpBranch, isa.OpAtomic, isa.OpDelay, isa.OpFP}
	out := make([]isa.Inst, n)
	pc, addr := uint64(0x400000), uint64(0x1000_0000_0000)
	for i := range out {
		switch rng.Intn(4) {
		case 0: // same PC
		case 1:
			pc += 4
		case 2:
			pc = rng.Uint64()
		default:
			pc -= rng.Uint64n(1 << 20)
		}
		in := isa.Inst{Op: ops[rng.Intn(len(ops))], Count: 1, PC: pc, Phys: rng.Bool(0.1)}
		if rng.Bool(0.3) {
			in.Count = uint32(2 + rng.Uint64n(1<<32-2))
		}
		if in.Op.HasMemOperand() {
			if rng.Bool(0.5) {
				addr = rng.Uint64()
			} else {
				addr += 64
			}
			in.Addr = addr
		}
		out[i] = in
	}
	return out
}

// TestV1WindowRefill decodes v1 traces, plain and gzip, several times
// larger than the Reader's 64 KiB buffer, so records cross the
// window's end and are decoded again after a refill. Read, ReadBatch
// with an odd batch size, and the parallel block decoder (after
// conversion to v2) must all yield the written records and counts.
func TestV1WindowRefill(t *testing.T) {
	insts := windowInsts(3*blockRecords + 123)
	var plain bytes.Buffer
	writeTrace(t, &plain, false, testHeader(), insts)
	if plain.Len() < 4<<16 {
		t.Fatalf("fixture is %d bytes, want at least 4 windows", plain.Len())
	}
	var gz bytes.Buffer
	writeTrace(t, &gz, true, testHeader(), insts)
	var wantInsts, wantMem uint64
	for _, in := range insts {
		if in.Op != isa.OpDelay {
			wantInsts += in.N()
		}
		if in.Op.HasMemOperand() {
			wantMem += in.N()
		}
	}
	check := func(t *testing.T, route string, got []isa.Inst) {
		t.Helper()
		if len(got) != len(insts) {
			t.Fatalf("%s: got %d records, want %d", route, len(got), len(insts))
		}
		for i := range got {
			if got[i] != insts[i] {
				t.Fatalf("%s: record %d = %+v, want %+v", route, i, got[i], insts[i])
			}
		}
	}
	checkCounts := func(t *testing.T, route string, r *Reader) {
		t.Helper()
		if r.Records() != uint64(len(insts)) || r.Insts() != wantInsts || r.MemOps() != wantMem {
			t.Fatalf("%s: counts %d/%d/%d, want %d/%d/%d", route,
				r.Records(), r.Insts(), r.MemOps(), len(insts), wantInsts, wantMem)
		}
	}
	for _, tc := range []struct {
		name string
		data []byte
	}{{"plain", plain.Bytes()}, {"gzip", gz.Bytes()}} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := NewReader(bytes.NewReader(tc.data))
			if err != nil {
				t.Fatal(err)
			}
			check(t, "Read", readAll(t, r))
			checkCounts(t, "Read", r)

			r, err = NewReader(bytes.NewReader(tc.data))
			if err != nil {
				t.Fatal(err)
			}
			var got []isa.Inst
			buf := make([]isa.Inst, 7)
			for {
				n, err := r.ReadBatch(buf)
				got = append(got, buf[:n]...)
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			check(t, "ReadBatch", got)
			checkCounts(t, "ReadBatch", r)

			dir := t.TempDir()
			src := filepath.Join(dir, "v1.trc")
			if err := os.WriteFile(src, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			dst := filepath.Join(dir, "v2.trc")
			if _, err := Convert(src, dst); err != nil {
				t.Fatal(err)
			}
			r, err = Open(dst)
			if err != nil {
				t.Fatal(err)
			}
			ps, err := newParallelSource(dst, r, 2)
			if err != nil {
				t.Fatal(err)
			}
			defer ps.Close()
			check(t, "parallel", drainSource(ps))
		})
	}
}

// overlongAddrRecord is a maxRecordBytes-long v1 record whose address
// varint has the continuation bit set on all ten of its bytes: a pc
// delta of 0 and a count of 2, both padded to ten bytes, then an
// address that never ends. At the end of a stream the Reader's window
// holds exactly this record, and the address varint sees exactly
// binary.MaxVarintLen64 bytes.
var overlongAddrRecord = func() []byte {
	rec := []byte{uint8(isa.OpLoad) | ctrlHasPC | ctrlHasCount | ctrlHasAddr}
	rec = append(rec, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00) // pc delta 0
	rec = append(rec, 0x82, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00) // count 2
	rec = append(rec, bytes.Repeat([]byte{0x80}, 10)...)                          // addr: no end
	return rec
}()

// TestOverlongVarintIsCorrupt: a v1 stream that ends in a worst-case
// length record whose last varint never terminates is ErrCorrupt
// through Read and ReadBatch, after the valid records before it — not
// a record that looks cut off and waits forever for a refill.
func TestOverlongVarintIsCorrupt(t *testing.T) {
	if len(overlongAddrRecord) != maxRecordBytes {
		t.Fatalf("fixture record is %d bytes, want %d", len(overlongAddrRecord), maxRecordBytes)
	}
	insts := testInsts()
	var buf bytes.Buffer
	writeTrace(t, &buf, false, testHeader(), insts)
	data := append(buf.Bytes(), overlongAddrRecord...)

	for _, route := range []string{"Read", "ReadBatch"} {
		t.Run(route, func(t *testing.T) {
			r, err := NewReader(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			type result struct {
				n   int
				err error
			}
			done := make(chan result, 1)
			go func() {
				var n int
				var err error
				if route == "Read" {
					var in isa.Inst
					for err = r.Read(&in); err == nil; err = r.Read(&in) {
						n++
					}
				} else {
					n, err = r.ReadBatch(make([]isa.Inst, len(insts)+8))
				}
				done <- result{n, err}
			}()
			select {
			case res := <-done:
				if !errors.Is(res.err, ErrCorrupt) {
					t.Fatalf("got %v, want ErrCorrupt", res.err)
				}
				if res.n != len(insts) {
					t.Fatalf("decoded %d records before the bad one, want %d", res.n, len(insts))
				}
			case <-time.After(10 * time.Second):
				t.Fatal("decoder did not return: overlong varint taken for a cut-off record")
			}
		})
	}
}

// TestZigzag1MatchesVarint: the decoder's one-byte fast lane agrees
// with binary.Varint on every one-byte varint and declines the rest.
func TestZigzag1MatchesVarint(t *testing.T) {
	for b := 0; b < 256; b++ {
		buf := []byte{0xff, byte(b), 0x01}
		d, m := zigzag1(buf, 1)
		if b >= 0x80 {
			if m != 0 {
				t.Errorf("%#02x: fast lane took a multi-byte varint", b)
			}
			continue
		}
		want, wm := binary.Varint(buf[1:])
		if d != want || m != wm {
			t.Errorf("%#02x: got (%d, %d), binary.Varint gives (%d, %d)", b, d, m, want, wm)
		}
	}
	if _, m := zigzag1([]byte{0x00}, 1); m != 0 {
		t.Error("fast lane read past the end of its input")
	}
}
