package trace

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/isa"
)

// This file is the record codec: the only code that knows the byte
// layout of an instruction record (docs/trace-format.md). Both writer
// framings encode through appendRecord; every reader — the v1 stream,
// the v2 sequential reader and the parallel block decoder — decodes
// through decodeRecords, and both v2 read paths verify and inflate
// blocks through inflater.inflate.

// maxRecordBytes is the widest possible instruction record: the control
// byte plus three maximum-length varints (pc delta, count, addr delta).
const maxRecordBytes = 1 + 3*binary.MaxVarintLen64

// recordState is the codec's running state on either side of a record
// stream: the PC and address the next record's deltas are taken from,
// and tallies of the records, dynamic instructions (batched ops at
// their batch size, delays excluded) and memory-operand instructions
// that have passed through. v2 zeroes the delta bases at every block
// boundary; the tallies run on.
type recordState struct {
	pc, addr               uint64
	records, insts, memOps uint64
}

// appendRecord appends in's record to dst, delta-coded against st, and
// advances st. Records are canonicalised: a zero Count is stored as 1
// (the two are semantically identical, see isa.Inst.N) and the address
// field is stored only for ops that carry a memory operand.
func appendRecord(dst []byte, in isa.Inst, st *recordState) []byte {
	ctrl := uint8(in.Op) & ctrlOpMask
	if in.Phys {
		ctrl |= ctrlPhys
	}
	count := in.N()
	if count > 1 {
		ctrl |= ctrlHasCount
	}
	if in.PC != st.pc {
		ctrl |= ctrlHasPC
	}
	hasAddr := in.Op.HasMemOperand()
	if hasAddr {
		ctrl |= ctrlHasAddr
	}
	dst = append(dst, ctrl)
	if ctrl&ctrlHasPC != 0 {
		dst = binary.AppendVarint(dst, int64(in.PC-st.pc))
		st.pc = in.PC
	}
	if ctrl&ctrlHasCount != 0 {
		dst = binary.AppendUvarint(dst, count)
	}
	if hasAddr {
		dst = binary.AppendVarint(dst, int64(in.Addr-st.addr))
		st.addr = in.Addr
		st.memOps += count
	}
	st.records++
	if in.Op != isa.OpDelay {
		st.insts += count
	}
	return dst
}

// decodeRecords decodes whole records from src into dst until dst is
// full or src holds no further complete record, and advances st past
// them. It returns the number of records decoded and the bytes they
// took. A record cut off by the end of src is left unconsumed and is
// not an error: whether more bytes can follow is the caller's
// knowledge. A malformed record is an error, which the caller wraps
// with ErrCorrupt and its position in the file. A src of at least
// maxRecordBytes therefore always yields a record or an error, which
// is what lets the v1 stream stop refilling.
func decodeRecords(src []byte, dst []isa.Inst, st *recordState) (n, used int, err error) {
	pc, addr := st.pc, st.addr
	var insts, memOps uint64
	for n < len(dst) && used < len(src) {
		buf := src[used:]
		ctrl := buf[0]
		if ctrl&ctrlReserved != 0 {
			err = fmt.Errorf("record %d: reserved control bit set (%#02x)", st.records+uint64(n), ctrl)
			break
		}
		in := isa.Inst{Op: isa.Op(ctrl & ctrlOpMask), Phys: ctrl&ctrlPhys != 0, Count: 1}
		k := 1
		npc, naddr := pc, addr
		if ctrl&ctrlHasPC != 0 {
			d, m := zigzag1(buf, k)
			if m == 0 {
				d, m = binary.Varint(buf[k:])
			}
			if m <= 0 {
				err = varintErr(m, len(buf)-k, "pc delta", st.records+uint64(n))
				break
			}
			k += m
			npc += uint64(d)
		}
		in.PC = npc
		if ctrl&ctrlHasCount != 0 {
			c, m := binary.Uvarint(buf[k:])
			if m <= 0 {
				err = varintErr(m, len(buf)-k, "count", st.records+uint64(n))
				break
			}
			if c < 2 || c > 1<<32-1 {
				err = fmt.Errorf("record %d: count %d out of range", st.records+uint64(n), c)
				break
			}
			k += m
			in.Count = uint32(c)
		}
		hasMem := in.Op.HasMemOperand()
		if ctrl&ctrlHasAddr != 0 {
			if !hasMem {
				err = fmt.Errorf("record %d: address on %v op", st.records+uint64(n), in.Op)
				break
			}
			d, m := zigzag1(buf, k)
			if m == 0 {
				d, m = binary.Varint(buf[k:])
			}
			if m <= 0 {
				err = varintErr(m, len(buf)-k, "addr delta", st.records+uint64(n))
				break
			}
			k += m
			naddr += uint64(d)
			in.Addr = naddr
		} else if hasMem {
			err = fmt.Errorf("record %d: %v op without address", st.records+uint64(n), in.Op)
			break
		}
		dst[n] = in
		n++
		used += k
		pc, addr = npc, naddr
		cnt := uint64(in.Count)
		if in.Op != isa.OpDelay {
			insts += cnt
		}
		if hasMem {
			memOps += cnt
		}
	}
	st.pc, st.addr = pc, addr
	st.records += uint64(n)
	st.insts += insts
	st.memOps += memOps
	return n, used, err
}

// zigzag1 decodes a one-byte signed varint at b[k], the common case
// for deltas, and returns 0 bytes used for anything longer.
func zigzag1(b []byte, k int) (int64, int) {
	if k < len(b) && b[k] < 0x80 {
		return int64(b[k]>>1) ^ -int64(b[k]&1), 1
	}
	return 0, 0
}

// varintErr reports a varint that did not decode from avail bytes:
// m < 0 is an overflow (malformed). m == 0 means the bytes ran out
// before the varint ended; that stops the decode without error only
// when fewer than binary.MaxVarintLen64 bytes were there — a varint
// with continuation bits on all of its first MaxVarintLen64 bytes is
// malformed, and treating it as cut off would leave a caller that
// already holds a worst-case record's bytes waiting for more forever.
func varintErr(m, avail int, field string, rec uint64) error {
	if m == 0 && avail < binary.MaxVarintLen64 {
		return nil
	}
	return fmt.Errorf("record %d: %s overflows 64 bits", rec, field)
}

// blockDone cross-checks a fully decoded v2 block: the payload must be
// consumed exactly and the decoded tallies must land on the declared
// ones, so a block whose header and body disagree (an index/offset
// mixup, a spliced file) is corrupt rather than a silently wrong
// replay.
func blockDone(raw []byte, used int, got, want recordState) error {
	if got.records != want.records {
		return fmt.Errorf("payload underruns its record count")
	}
	if used != len(raw) {
		return fmt.Errorf("%d trailing payload bytes", len(raw)-used)
	}
	if got.insts != want.insts || got.memOps != want.memOps {
		return fmt.Errorf("decoded counts disagree with block header (insts %d vs %d, mem ops %d vs %d)",
			got.insts, want.insts, got.memOps, want.memOps)
	}
	return nil
}

// inflater is reusable block-inflate state: the flate reader and the
// buffer each inflated payload lands in.
type inflater struct {
	raw []byte
	src bytes.Reader
	fr  io.ReadCloser
	one [1]byte
}

// inflate verifies a v2 block payload against its CRC and inflates it
// into exactly rawLen bytes. The result is valid until the next call.
func (z *inflater) inflate(comp []byte, crc uint32, rawLen uint64) ([]byte, error) {
	if got := crc32.ChecksumIEEE(comp); got != crc {
		return nil, fmt.Errorf("CRC mismatch (got %#x, want %#x)", got, crc)
	}
	if uint64(cap(z.raw)) < rawLen {
		z.raw = make([]byte, rawLen)
	}
	z.raw = z.raw[:rawLen]
	z.src.Reset(comp)
	if z.fr == nil {
		z.fr = flate.NewReader(&z.src)
	} else if err := z.fr.(flate.Resetter).Reset(&z.src, nil); err != nil {
		return nil, fmt.Errorf("flate reset: %v", err)
	}
	if _, err := io.ReadFull(z.fr, z.raw); err != nil {
		return nil, fmt.Errorf("inflate: %v", eofErr(err))
	}
	if n, _ := z.fr.Read(z.one[:]); n != 0 {
		return nil, fmt.Errorf("inflates past its declared raw length %d", rawLen)
	}
	return z.raw, nil
}
