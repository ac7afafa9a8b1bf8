package trace

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/workloads"
)

// Reader streams a trace from an underlying reader: the header is
// decoded eagerly by Open/NewReader (so a bad file fails fast, before a
// simulation starts), then Read yields one instruction per call, or
// ReadBatch many, until a clean io.EOF. Each Reader carries its own
// cursor and delta-decode state — concurrent replays of one file open
// one Reader each and never share anything.
//
// The Reader handles both format versions transparently: it sniffs the
// gzip envelope by magic bytes (never by file extension) and
// dispatches on the major version in the header. v1 records decode
// straight out of the buffered window; v2 blocks are inflated one at a
// time into a reusable buffer, so sequential reads of a v2 file still
// hold only a block's worth of memory.
type Reader struct {
	file *os.File
	gz   *gzip.Reader
	br   *bufio.Reader

	hdr     Header
	version int
	st      recordState
	// err is sticky: io.EOF or the first decode error, returned once
	// every record decoded before it has been delivered.
	err error

	// ahead holds records Read has decoded but not yet returned, so
	// one-at-a-time reads still decode a batch per call into the codec.
	ahead    [readAhead]isa.Inst
	aheadPos int
	aheadN   int

	// v2 sequential-decode state: the current block's compressed
	// payload (reused across blocks), its inflated payload and the
	// cursor into it, and the tallies st must reach when the block is
	// drained.
	comp      []byte
	raw       []byte
	rawPos    int
	blkEnd    recordState
	z         inflater
	blocks    uint64
	rawBytes  uint64
	compBytes uint64
}

// readAhead is the number of records Read decodes per refill.
const readAhead = 64

// Open opens path and decodes its header. The gzip envelope and the
// format version are sniffed from the file's leading bytes; the file
// extension is never consulted, so a misnamed file fails loudly with
// ErrCorrupt instead of a confusing mid-stream error.
func Open(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	r, err := NewReader(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("trace: %s: %w", path, err)
	}
	r.file = f
	return r, nil
}

// NewReader wraps an arbitrary io.Reader and decodes the header,
// sniffing the gzip envelope and format version from the leading
// bytes. The caller owns the underlying reader; Close releases only
// what the Reader itself allocated.
func NewReader(in io.Reader) (*Reader, error) {
	r := &Reader{}
	br := bufio.NewReaderSize(in, 1<<16)
	lead, err := br.Peek(2)
	if err != nil {
		return nil, corruptf("short header: %v", eofErr(err))
	}
	if lead[0] == 0x1f && lead[1] == 0x8b {
		gz, err := gzip.NewReader(br)
		if err != nil {
			return nil, corruptf("gzip envelope: %v", err)
		}
		r.gz = gz
		r.br = bufio.NewReaderSize(gz, 1<<16)
	} else {
		r.br = br
	}
	if err := r.readHeader(); err != nil {
		return nil, err
	}
	return r, nil
}

// Header returns the decoded file header.
func (r *Reader) Header() Header { return r.hdr }

// Compressed reports whether the stream's record section is
// compressed: a gzip envelope around the whole file, or the
// always-block-compressed v2 container.
func (r *Reader) Compressed() bool { return r.gz != nil || r.version == Version2 }

// Version returns the file's major format version (Version1 or
// Version2).
func (r *Reader) Version() int { return r.version }

func (r *Reader) readHeader() error {
	var fixed [8]byte
	if _, err := io.ReadFull(r.br, fixed[:]); err != nil {
		return corruptf("short header: %v", err)
	}
	if string(fixed[:4]) != Magic {
		return corruptf("bad magic %q (want %q)", fixed[:4], Magic)
	}
	switch fixed[4] {
	case Version1, Version2:
		r.version = int(fixed[4])
	default:
		return corruptf("unsupported major version %d (reader knows %d and %d)",
			fixed[4], Version1, Version2)
	}
	// fixed[5] is the minor version: additive, ignored on read.
	if flags := binary.LittleEndian.Uint16(fixed[6:8]); flags != 0 {
		return corruptf("unknown flags %#x", flags)
	}

	nameLen, err := r.uvarint("name length")
	if err != nil {
		return err
	}
	if nameLen > maxNameLen {
		return corruptf("name length %d exceeds %d", nameLen, maxNameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(r.br, name); err != nil {
		return corruptf("truncated name: %v", err)
	}
	r.hdr.Workload = string(name)

	class, err := r.uvarint("class")
	if err != nil {
		return err
	}
	r.hdr.Class = workloads.Class(class)
	if r.hdr.Footprint, err = r.uvarint("footprint"); err != nil {
		return err
	}
	if r.hdr.Seed, err = r.uvarint("seed"); err != nil {
		return err
	}
	nsegs, err := r.uvarint("segment count")
	if err != nil {
		return err
	}
	if nsegs > maxSegments {
		return corruptf("segment count %d exceeds %d", nsegs, maxSegments)
	}
	r.hdr.Layout = make([]Segment, 0, nsegs)
	for i := uint64(0); i < nsegs; i++ {
		start, err := r.uvarint("segment start")
		if err != nil {
			return err
		}
		length, err := r.uvarint("segment length")
		if err != nil {
			return err
		}
		bits, err := r.br.ReadByte()
		if err != nil {
			return corruptf("truncated segment flags: %v", err)
		}
		seg := segmentFromBits(bits)
		seg.Start, seg.Length = mem.VAddr(start), length
		if seg.FileID, err = r.uvarint("segment file id"); err != nil {
			return err
		}
		r.hdr.Layout = append(r.hdr.Layout, seg)
	}
	return nil
}

// Read decodes the next instruction record into out. It returns io.EOF
// at a clean end of trace and an ErrCorrupt-wrapped error when the
// stream ends mid-record or a record is malformed. Records are decoded
// a batch at a time into a small read-ahead buffer and served from it.
func (r *Reader) Read(out *isa.Inst) error {
	if r.aheadPos == r.aheadN {
		if r.err != nil {
			return r.err
		}
		r.aheadN, r.aheadPos = r.decode(r.ahead[:]), 0
		if r.aheadN == 0 {
			return r.err
		}
	}
	*out = r.ahead[r.aheadPos]
	r.aheadPos++
	return nil
}

// ReadBatch decodes up to len(dst) records into dst and returns how
// many it decoded. A short count comes with the error that ended the
// stream: io.EOF at a clean end of trace, or an ErrCorrupt-wrapped
// error; the records before it are valid either way. Once it has
// returned an error, every later call returns 0 and the same error.
func (r *Reader) ReadBatch(dst []isa.Inst) (int, error) {
	n := copy(dst, r.ahead[r.aheadPos:r.aheadN])
	r.aheadPos += n
	if n == len(dst) {
		return n, nil
	}
	if r.err == nil {
		n += r.decode(dst[n:])
	}
	return n, r.err
}

// decode fills dst from the stream and returns the record count; a
// short count leaves the terminal error in r.err.
func (r *Reader) decode(dst []isa.Inst) int {
	var n int
	var err error
	if r.version == Version2 {
		n, err = r.decode2(dst)
	} else {
		n, err = r.decode1(dst)
	}
	if err != nil {
		r.err = err
	}
	return n
}

// decode1 decodes v1 records straight out of the buffered window. A
// record that crosses the window's end is left in place and decoded
// again after the refill; delta state advances only past whole
// records. At the end of the stream a partial record is ErrCorrupt.
func (r *Reader) decode1(dst []isa.Inst) (int, error) {
	n := 0
	for n < len(dst) {
		// Refill until the window holds a worst-case record; it is
		// shorter only at the end of the stream (or on a read error).
		buf, err := r.br.Peek(maxRecordBytes)
		if err == nil {
			buf, _ = r.br.Peek(r.br.Buffered())
		}
		k, used, derr := decodeRecords(buf, dst[n:], &r.st)
		r.br.Discard(used)
		n += k
		switch {
		case derr != nil:
			return n, corruptf("%v", derr)
		case err == nil || n == len(dst):
		case used < len(buf) || err != io.EOF:
			return n, corruptf("record %d: %v", r.st.records, eofErr(err))
		default:
			return n, io.EOF
		}
	}
	return n, nil
}

// decode2 decodes v2 records out of the current inflated block,
// loading the next block when one is drained and cross-checking each
// drained block against its header.
func (r *Reader) decode2(dst []isa.Inst) (int, error) {
	n := 0
	for n < len(dst) {
		if r.st.records == r.blkEnd.records {
			if err := r.loadBlock(); err != nil {
				return n, err
			}
		}
		want := dst[n:]
		if left := r.blkEnd.records - r.st.records; uint64(len(want)) > left {
			want = want[:left]
		}
		k, used, err := decodeRecords(r.raw[r.rawPos:], want, &r.st)
		r.rawPos += used
		n += k
		if err == nil && (k < len(want) || r.st.records == r.blkEnd.records) {
			err = blockDone(r.raw, r.rawPos, r.st, r.blkEnd)
		}
		if err != nil {
			return n, corruptf("block %d: %v", r.blocks-1, err)
		}
	}
	return n, nil
}

// loadBlock reads the next block header and payload and inflates the
// payload into the reusable raw buffer. It returns io.EOF at the
// sentinel that ends the block section.
func (r *Reader) loadBlock() error {
	nRec, err := binary.ReadUvarint(r.br)
	if err != nil {
		return corruptf("block %d: header: %v", r.blocks, eofErr(err))
	}
	if nRec == 0 {
		// Sentinel: the record section is over. The index and trailer
		// that follow are for seekable readers; a sequential pass
		// simply stops here.
		return io.EOF
	}
	if nRec > blockRecords {
		return corruptf("block %d: record count %d exceeds %d", r.blocks, nRec, blockRecords)
	}
	nInsts, err := binary.ReadUvarint(r.br)
	if err != nil {
		return corruptf("block %d: inst count: %v", r.blocks, eofErr(err))
	}
	nMemOps, err := binary.ReadUvarint(r.br)
	if err != nil {
		return corruptf("block %d: mem-op count: %v", r.blocks, eofErr(err))
	}
	rawLen, err := binary.ReadUvarint(r.br)
	if err != nil {
		return corruptf("block %d: raw length: %v", r.blocks, eofErr(err))
	}
	if rawLen < nRec || rawLen > maxBlockRaw {
		return corruptf("block %d: raw length %d out of range", r.blocks, rawLen)
	}
	compLen, err := binary.ReadUvarint(r.br)
	if err != nil {
		return corruptf("block %d: compressed length: %v", r.blocks, eofErr(err))
	}
	if compLen == 0 || compLen > maxBlockComp {
		return corruptf("block %d: compressed length %d out of range", r.blocks, compLen)
	}
	if uint64(cap(r.comp)) < compLen {
		r.comp = make([]byte, compLen)
	}
	r.comp = r.comp[:compLen]
	if _, err := io.ReadFull(r.br, r.comp); err != nil {
		return corruptf("block %d: truncated payload: %v", r.blocks, eofErr(err))
	}
	var crcb [4]byte
	if _, err := io.ReadFull(r.br, crcb[:]); err != nil {
		return corruptf("block %d: truncated CRC: %v", r.blocks, eofErr(err))
	}
	if r.raw, err = r.z.inflate(r.comp, binary.LittleEndian.Uint32(crcb[:]), rawLen); err != nil {
		return corruptf("block %d: %v", r.blocks, err)
	}
	r.rawPos = 0
	// Per-block delta reset: each block decodes from a zero base, so
	// blocks are independently decodable. The tallies run on; the
	// block is done when they reach blkEnd.
	r.st.pc, r.st.addr = 0, 0
	r.blkEnd = recordState{
		records: r.st.records + nRec,
		insts:   r.st.insts + nInsts,
		memOps:  r.st.memOps + nMemOps,
	}
	r.blocks++
	r.rawBytes += rawLen
	r.compBytes += compLen
	return nil
}

// Records returns the number of records decoded so far. Read decodes
// ahead of the records it has returned, so Records, Insts and MemOps
// describe the whole trace once Read or ReadBatch has returned io.EOF.
func (r *Reader) Records() uint64 { return r.st.records }

// Insts returns the dynamic instruction count decoded so far.
func (r *Reader) Insts() uint64 { return r.st.insts }

// MemOps returns the memory-operand instruction count decoded so far.
func (r *Reader) MemOps() uint64 { return r.st.memOps }

// Close releases the gzip envelope and the file, if Open opened one.
func (r *Reader) Close() error {
	var err error
	if r.gz != nil {
		err = r.gz.Close()
	}
	if r.file != nil {
		if e := r.file.Close(); err == nil {
			err = e
		}
	}
	return err
}

func (r *Reader) uvarint(what string) (uint64, error) {
	v, err := binary.ReadUvarint(r.br)
	if err != nil {
		return 0, corruptf("%s: %v", what, eofErr(err))
	}
	return v, nil
}

// eofErr normalises a mid-field EOF so error text says "truncated"
// rather than the misleading bare "EOF".
func eofErr(err error) error {
	if errors.Is(err, io.EOF) {
		return fmt.Errorf("truncated (unexpected EOF)")
	}
	return err
}
