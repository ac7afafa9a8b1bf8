package trace

import (
	"bufio"
	"bytes"
	"compress/flate"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"strings"

	"repro/internal/isa"
)

// Writer streams a trace to an underlying writer: a fixed header first
// (WriteHeader), then one record per instruction (WriteInst). It
// buffers at most one record block and never holds more; Close flushes
// (and, for v2, writes the block index and trailer) and closes whatever
// Create opened.
//
// A Writer emits either format version:
//
//   - v2 (Create, NewWriterV2): records are gathered into fixed-size
//     blocks, each compressed as an independent flate frame with its
//     own delta-decode state, and Close appends the block index and
//     trailer that make the file seekable.
//   - v1 (CreateV1, NewWriter): the legacy single sequential record
//     stream, optionally inside a whole-file gzip envelope.
type Writer struct {
	file *os.File
	gz   *gzip.Writer
	bw   *bufio.Writer
	cw   *countWriter // v2: beneath bw, tracks flushed file offsets

	version    int
	headerDone bool
	closed     bool
	segments   int
	// st is the running codec state; blk is its snapshot at the start
	// of the current v2 block, so the block's own tallies are st - blk.
	st  recordState
	blk recordState

	// v2 block state: the current block's encoded records, the
	// reusable compressor, and the accumulated index.
	blkRaw     []byte
	comp       bytes.Buffer
	fw         *flate.Writer
	index      []blockInfo
	rawBytes   uint64
	compBytes  uint64
	indexBytes int
	v2err      error

	buf [maxRecordBytes]byte
}

// Create opens path for writing and returns a v2 Writer over it. The
// v2 container is block-compressed regardless of the file extension.
// Call WriteHeader before the first WriteInst, and Close when done.
func Create(path string) (*Writer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	w := NewWriterV2(f)
	w.file = f
	return w, nil
}

// CreateV1 opens path for writing in the legacy v1 format. A ".gz"
// extension selects the whole-file gzip envelope; any other extension
// writes the raw v1 stream. Readers accept both versions forever.
func CreateV1(path string) (*Writer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	w := NewWriter(f, Compressed(path))
	w.file = f
	return w, nil
}

// Compressed reports whether path selects the gzip envelope for a v1
// writer (a ".gz" extension). Readers do not consult the extension:
// they sniff the file's leading magic bytes.
func Compressed(path string) bool { return strings.HasSuffix(path, ".gz") }

// NewWriter returns a v1 Writer over an arbitrary io.Writer, with or
// without the gzip envelope. The caller owns the underlying writer;
// Close flushes the envelope but does not close it.
func NewWriter(out io.Writer, compress bool) *Writer {
	w := &Writer{version: Version1}
	if compress {
		w.gz = gzip.NewWriter(out)
		w.bw = bufio.NewWriterSize(w.gz, 1<<16)
	} else {
		w.bw = bufio.NewWriterSize(out, 1<<16)
	}
	return w
}

// NewWriterV2 returns a v2 Writer over an arbitrary io.Writer. The
// caller owns the underlying writer; Close appends the index and
// trailer and flushes, but does not close it.
func NewWriterV2(out io.Writer) *Writer {
	cw := &countWriter{w: out}
	return &Writer{version: Version2, cw: cw, bw: bufio.NewWriterSize(cw, 1<<16)}
}

// WriteHeader writes the magic, version, and metadata. It must be
// called exactly once, before any WriteInst.
func (w *Writer) WriteHeader(h Header) error {
	if w.headerDone {
		return fmt.Errorf("trace: header already written")
	}
	if len(h.Workload) > maxNameLen {
		return fmt.Errorf("trace: workload name %d bytes exceeds %d", len(h.Workload), maxNameLen)
	}
	if len(h.Layout) > maxSegments {
		return fmt.Errorf("trace: layout %d segments exceeds %d", len(h.Layout), maxSegments)
	}
	if _, err := w.bw.WriteString(Magic); err != nil {
		return err
	}
	if err := w.bw.WriteByte(byte(w.version)); err != nil {
		return err
	}
	if err := w.bw.WriteByte(VersionMinor); err != nil {
		return err
	}
	// Flags: reserved, zero in both versions.
	if _, err := w.bw.Write([]byte{0, 0}); err != nil {
		return err
	}
	w.uvarint(uint64(len(h.Workload)))
	w.bw.WriteString(h.Workload)
	w.uvarint(uint64(h.Class))
	w.uvarint(h.Footprint)
	w.uvarint(h.Seed)
	w.uvarint(uint64(len(h.Layout)))
	for _, seg := range h.Layout {
		w.uvarint(uint64(seg.Start))
		w.uvarint(seg.Length)
		w.bw.WriteByte(seg.flagBits())
		w.uvarint(seg.FileID)
	}
	w.headerDone = true
	w.segments = len(h.Layout)
	return w.err()
}

// WriteInst appends one instruction record (see appendRecord for how
// records are canonicalised). v1 streams the record straight out; v2
// gathers it into the current block and seals the block when it
// reaches blockRecords records. An op the control byte's op field
// cannot hold — the kernel-only range ops — is an error.
func (w *Writer) WriteInst(in isa.Inst) error {
	if !w.headerDone {
		return fmt.Errorf("trace: WriteInst before WriteHeader")
	}
	if in.Op > ctrlOpMask {
		return fmt.Errorf("trace: op %v cannot be recorded", in.Op)
	}
	if w.version == Version1 {
		w.bw.Write(appendRecord(w.buf[:0], in, &w.st))
		return w.err()
	}
	if w.v2err != nil {
		return w.v2err
	}
	w.blkRaw = appendRecord(w.blkRaw, in, &w.st)
	if w.st.records-w.blk.records >= blockRecords {
		return w.flushBlock()
	}
	return nil
}

// flushBlock seals the current block: compress it as an independent
// flate frame, write the block header, payload and CRC, record the
// index entry, and reset the per-block delta state so the next block
// decodes from scratch.
func (w *Writer) flushBlock() error {
	b := blockInfo{
		Records: w.st.records - w.blk.records,
		Insts:   w.st.insts - w.blk.insts,
		MemOps:  w.st.memOps - w.blk.memOps,
		RawLen:  uint64(len(w.blkRaw)),
	}
	if b.Records == 0 {
		return nil
	}
	// The index needs the block's exact file offset; flushing the
	// buffered writer makes the byte count under it current.
	if err := w.bw.Flush(); err != nil {
		w.v2err = err
		return err
	}
	b.Off = w.cw.n
	w.comp.Reset()
	if w.fw == nil {
		fw, err := flate.NewWriter(&w.comp, flate.DefaultCompression)
		if err != nil {
			w.v2err = err
			return err
		}
		w.fw = fw
	} else {
		w.fw.Reset(&w.comp)
	}
	if _, err := w.fw.Write(w.blkRaw); err != nil {
		w.v2err = err
		return err
	}
	if err := w.fw.Close(); err != nil {
		w.v2err = err
		return err
	}
	b.CompLen = uint64(w.comp.Len())
	b.CRC = crc32.ChecksumIEEE(w.comp.Bytes())
	w.uvarint(b.Records)
	w.uvarint(b.Insts)
	w.uvarint(b.MemOps)
	w.uvarint(b.RawLen)
	w.uvarint(b.CompLen)
	w.bw.Write(w.comp.Bytes())
	w.bw.Write(binary.LittleEndian.AppendUint32(w.buf[:0], b.CRC))
	w.index = append(w.index, b)
	w.rawBytes += b.RawLen
	w.compBytes += b.CompLen
	w.blkRaw = w.blkRaw[:0]
	w.st.pc, w.st.addr = 0, 0
	w.blk = w.st
	return w.err()
}

// finishV2 seals the last block and appends the sentinel, the block
// index, and the trailer.
func (w *Writer) finishV2() error {
	if err := w.flushBlock(); err != nil {
		return err
	}
	w.uvarint(0) // sentinel: a zero record count ends the block section
	if err := w.bw.Flush(); err != nil {
		return err
	}
	indexOff := w.cw.n
	idx := appendIndex(nil, w.index)
	w.indexBytes = len(idx)
	w.bw.Write(idx)
	var tr [trailerSize]byte
	binary.LittleEndian.PutUint64(tr[0:8], indexOff)
	binary.LittleEndian.PutUint32(tr[8:12], uint32(len(idx)))
	binary.LittleEndian.PutUint32(tr[12:16], crc32.ChecksumIEEE(idx))
	copy(tr[16:20], TrailerMagic)
	w.bw.Write(tr[:])
	return w.err()
}

// Records returns the number of records written so far.
func (w *Writer) Records() uint64 { return w.st.records }

// Insts returns the dynamic instruction count written so far (batched
// ops at their batch size, delays excluded).
func (w *Writer) Insts() uint64 { return w.st.insts }

// MemOps returns the memory-operand instruction count written so far.
func (w *Writer) MemOps() uint64 { return w.st.memOps }

// Segments returns the number of layout segments in the written header.
func (w *Writer) Segments() int { return w.segments }

// Version returns the format version the Writer emits (Version1 or
// Version2).
func (w *Writer) Version() int { return w.version }

// Blocks returns the number of sealed v2 blocks; the count is complete
// only after Close.
func (w *Writer) Blocks() int { return len(w.index) }

// IndexBytes returns the serialised v2 index size; valid after Close.
func (w *Writer) IndexBytes() int { return w.indexBytes }

// RawBytes returns the total uncompressed block payload written; valid
// after Close.
func (w *Writer) RawBytes() uint64 { return w.rawBytes }

// CompBytes returns the total compressed block payload written; valid
// after Close.
func (w *Writer) CompBytes() uint64 { return w.compBytes }

// Close flushes the stream — sealing the final block and writing the
// index and trailer for v2, finishing the gzip envelope for v1 — and
// closes the file if the Writer came from Create/CreateV1. Close is
// idempotent; only the first call writes anything.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	var err error
	if w.version == Version2 && w.headerDone {
		err = w.finishV2()
	}
	if e := w.bw.Flush(); err == nil {
		err = e
	}
	if w.gz != nil {
		if e := w.gz.Close(); err == nil {
			err = e
		}
	}
	if w.file != nil {
		if e := w.file.Close(); err == nil {
			err = e
		}
	}
	return err
}

func (w *Writer) uvarint(v uint64) {
	n := binary.PutUvarint(w.buf[:], v)
	w.bw.Write(w.buf[:n])
}

// err surfaces the bufio writer's sticky error, so callers see write
// failures at the call that caused them rather than only at Close.
func (w *Writer) err() error {
	_, err := w.bw.Write(nil)
	return err
}

// countWriter counts bytes written through it; the v2 writer keeps it
// beneath the buffered writer so flushing yields exact file offsets
// for the block index.
type countWriter struct {
	w io.Writer
	n uint64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += uint64(n)
	return n, err
}
