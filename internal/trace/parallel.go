package trace

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"runtime"
	"sync"

	"repro/internal/isa"
)

// decodeWorkersMax caps the block-decode worker pool; beyond a few
// workers the consumer (the simulation loop) is the bottleneck, not
// the inflate.
const decodeWorkersMax = 4

// OpenReplaySource opens path as the fastest streaming isa.Source for
// this machine and file:
//
//   - a plain v2 file on a multi-core machine gets the parallel block
//     decoder: a worker pool inflates blocks out of order into
//     reusable arenas and a sequencer delivers them in order;
//   - everything else — v1, gzip, or a single-core machine — decodes
//     inline (v1 blocks cannot be decoded out of order, and on one core
//     handing the decode to another goroutine only adds channel
//     traffic).
//
// Both variants yield byte-for-byte the stream a plain Open/Read loop
// produces; only the threading differs. The reference engine path
// (Config.ReferencePath) bypasses this and uses MustOpenSource.
func OpenReplaySource(path string) (isa.Source, error) {
	r, err := Open(path)
	if err != nil {
		return nil, err
	}
	procs := runtime.GOMAXPROCS(0)
	if procs == 1 || r.version != Version2 || r.gz != nil || r.file == nil {
		return &fileSource{r: r, path: path}, nil
	}
	workers := procs
	if workers > decodeWorkersMax {
		workers = decodeWorkersMax
	}
	s, err := newParallelSource(path, r, workers)
	if err != nil {
		r.Close()
		return nil, fmt.Errorf("trace: %s: %w", path, err)
	}
	return s, nil
}

// MustOpenReplaySource is OpenReplaySource, panicking on error (the
// engine validates the file header at system construction).
func MustOpenReplaySource(path string) isa.Source {
	s, err := OpenReplaySource(path)
	if err != nil {
		panic(err)
	}
	return s
}

// pdec is one decoded block handed from a worker to the sequencer: the
// block's ordinal, its records in an arena from the free pool, and the
// decode error, if any.
type pdec struct {
	idx   int
	insts []isa.Inst
	err   error
}

// parallelSource is the v2 parallel block decoder behind
// OpenReplaySource. Workers pull block ordinals from a bounded jobs
// channel, decode each block independently (positioned reads on the
// shared file handle, per-worker scratch and flate state, arenas from
// a free pool) and send results out of order; the consumer sequences
// them back into file order, holding early arrivals in a small pending
// map. The jobs window bounds both decode read-ahead and arena memory.
//
// The consumer side (Next/NextBatch/Close) is single-goroutine, like
// every isa.Source, and honours the same contract as fileSource: panic
// on mid-stream corruption, self-close on exhaustion.
type parallelSource struct {
	path     string
	f        *os.File
	blocks   []blockInfo
	indexOff uint64

	jobs    chan int
	results chan pdec
	free    chan []isa.Inst
	quit    chan struct{}
	wg      sync.WaitGroup

	pending map[int]pdec
	next    int // next block ordinal to enqueue for decode
	want    int // next block ordinal to deliver in order
	cur     []isa.Inst
	pos     int
	done    bool
	closed  bool
	once    sync.Once // file close
}

// newParallelSource takes ownership of r's file handle (r's buffered
// state is discarded; only the validated header and the handle are
// kept) and starts the worker pool.
func newParallelSource(path string, r *Reader, workers int) (*parallelSource, error) {
	blocks, indexOff, _, err := readIndexFile(r.file)
	if err != nil {
		return nil, err
	}
	window := workers + 2
	if window > len(blocks) {
		window = len(blocks)
	}
	s := &parallelSource{
		path:     path,
		f:        r.file,
		blocks:   blocks,
		indexOff: indexOff,
		jobs:     make(chan int, window),
		results:  make(chan pdec, window),
		free:     make(chan []isa.Inst, window+1),
		quit:     make(chan struct{}),
		pending:  make(map[int]pdec, window),
	}
	for i := 0; i < window+1; i++ {
		s.free <- make([]isa.Inst, 0, blockRecords)
	}
	for s.next < window {
		s.jobs <- s.next
		s.next++
	}
	if len(blocks) > 0 {
		if workers > len(blocks) {
			workers = len(blocks)
		}
		s.wg.Add(workers)
		for i := 0; i < workers; i++ {
			go s.worker()
		}
	}
	return s, nil
}

// blockEnd returns the file offset one past block i's on-disk bytes:
// the next block's header, or the sentinel byte before the index for
// the last block.
func (s *parallelSource) blockEnd(i int) uint64 {
	if i+1 < len(s.blocks) {
		return s.blocks[i+1].Off
	}
	return s.indexOff - 1
}

// worker decodes blocks until the jobs channel drains or Close fires.
// A decode error is reported through the result — the sequencer raises
// it at the in-order delivery point — and does not stop the worker:
// other blocks may still be wanted by a consumer that stops early.
func (s *parallelSource) worker() {
	defer s.wg.Done()
	var d blockDecoder
	for {
		var idx int
		select {
		case idx = <-s.jobs:
		case <-s.quit:
			return
		}
		var arena []isa.Inst
		select {
		case arena = <-s.free:
		case <-s.quit:
			return
		}
		insts, err := d.decode(s.f, s.blocks[idx], s.blockEnd(idx), arena)
		select {
		case s.results <- pdec{idx: idx, insts: insts, err: err}:
		case <-s.quit:
			return
		}
	}
}

// blockDecoder holds one worker's reusable decode state: the raw
// on-disk span, the inflated payload, and the flate reader.
type blockDecoder struct {
	span  []byte
	raw   []byte
	fr    io.ReadCloser
	frSrc bytes.Reader
}

// maxBlockHeaderBytes bounds the serialised block header: five
// maximum-length varints.
const maxBlockHeaderBytes = 5 * binary.MaxVarintLen64

// decode reads block b (whose on-disk bytes end at end) with one
// positioned read, cross-checks the block header against the index
// entry, verifies the CRC, inflates, and decodes the records into
// arena. The shared *os.File is only used via ReadAt, which is safe
// concurrently.
func (d *blockDecoder) decode(f *os.File, b blockInfo, end uint64, arena []isa.Inst) ([]isa.Inst, error) {
	need := int(b.CompLen) + 4 + maxBlockHeaderBytes
	if span := int(end - b.Off); span < need {
		need = span
	}
	if cap(d.span) < need {
		d.span = make([]byte, need)
	}
	d.span = d.span[:need]
	if n, err := f.ReadAt(d.span, int64(b.Off)); n < need {
		return arena, corruptf("block at %d: %v", b.Off, eofErr(err))
	}
	buf := d.span
	var hdr [5]uint64
	for i := range hdr {
		v, n := binary.Uvarint(buf)
		if n <= 0 {
			return arena, corruptf("block at %d: truncated header", b.Off)
		}
		hdr[i], buf = v, buf[n:]
	}
	if hdr[0] != b.Records || hdr[1] != b.Insts || hdr[2] != b.MemOps ||
		hdr[3] != b.RawLen || hdr[4] != b.CompLen {
		return arena, corruptf("block at %d: header disagrees with index entry", b.Off)
	}
	if uint64(len(buf)) < b.CompLen+4 {
		return arena, corruptf("block at %d: truncated payload", b.Off)
	}
	comp := buf[:b.CompLen]
	if want := binary.LittleEndian.Uint32(buf[b.CompLen:]); crc32.ChecksumIEEE(comp) != want {
		return arena, corruptf("block at %d: CRC mismatch", b.Off)
	}
	if uint64(cap(d.raw)) < b.RawLen {
		d.raw = make([]byte, b.RawLen)
	}
	d.raw = d.raw[:b.RawLen]
	d.frSrc.Reset(comp)
	if d.fr == nil {
		d.fr = flate.NewReader(&d.frSrc)
	} else if err := d.fr.(flate.Resetter).Reset(&d.frSrc, nil); err != nil {
		return arena, corruptf("block at %d: flate reset: %v", b.Off, err)
	}
	if _, err := io.ReadFull(d.fr, d.raw); err != nil {
		return arena, corruptf("block at %d: inflate: %v", b.Off, eofErr(err))
	}
	var one [1]byte
	if n, _ := d.fr.Read(one[:]); n != 0 {
		return arena, corruptf("block at %d: inflates past its declared raw length", b.Off)
	}
	return decodeBlockRecords(d.raw, b, arena)
}

// decodeBlockRecords decodes a block's inflated payload into arena,
// enforcing the same contract as the sequential reader: exact payload
// consumption, declared counts, canonical count/address rules.
func decodeBlockRecords(raw []byte, b blockInfo, arena []isa.Inst) ([]isa.Inst, error) {
	arena = arena[:0]
	var prevPC, prevAddr uint64
	var sumInsts, sumMem uint64
	pos := 0
	for rec := uint64(0); rec < b.Records; rec++ {
		buf := raw[pos:]
		if len(buf) == 0 {
			return arena, corruptf("block at %d: payload underruns its record count", b.Off)
		}
		ctrl := buf[0]
		if ctrl&ctrlReserved != 0 {
			return arena, corruptf("block at %d, record %d: reserved control bit set (%#02x)", b.Off, rec, ctrl)
		}
		in := isa.Inst{Op: isa.Op(ctrl & ctrlOpMask), Phys: ctrl&ctrlPhys != 0, Count: 1}
		n := 1
		if ctrl&ctrlHasPC != 0 {
			d, k := binary.Varint(buf[n:])
			if k <= 0 {
				return arena, corruptf("block at %d, record %d: truncated pc delta", b.Off, rec)
			}
			n += k
			prevPC += uint64(d)
		}
		in.PC = prevPC
		if ctrl&ctrlHasCount != 0 {
			c, k := binary.Uvarint(buf[n:])
			if k <= 0 {
				return arena, corruptf("block at %d, record %d: truncated count", b.Off, rec)
			}
			if c < 2 || c > 1<<32-1 {
				return arena, corruptf("block at %d, record %d: count %d out of range", b.Off, rec, c)
			}
			n += k
			in.Count = uint32(c)
		}
		if ctrl&ctrlHasAddr != 0 {
			if !in.Op.HasMemOperand() {
				return arena, corruptf("block at %d, record %d: address on %v op", b.Off, rec, in.Op)
			}
			d, k := binary.Varint(buf[n:])
			if k <= 0 {
				return arena, corruptf("block at %d, record %d: truncated addr delta", b.Off, rec)
			}
			n += k
			prevAddr += uint64(d)
			in.Addr = prevAddr
		} else if in.Op.HasMemOperand() {
			return arena, corruptf("block at %d, record %d: %v op without address", b.Off, rec, in.Op)
		}
		pos += n
		cnt := in.N()
		if in.Op != isa.OpDelay {
			sumInsts += cnt
		}
		if in.Op.HasMemOperand() {
			sumMem += cnt
		}
		arena = append(arena, in)
	}
	if pos != len(raw) {
		return arena, corruptf("block at %d: %d trailing payload bytes", b.Off, len(raw)-pos)
	}
	if sumInsts != b.Insts || sumMem != b.MemOps {
		return arena, corruptf("block at %d: decoded counts disagree with index entry", b.Off)
	}
	return arena, nil
}

// advance makes cur hold at least one undelivered instruction, or
// reports the end of the stream. Out-of-order results park in pending
// until their turn; terminal errors surface here, on the consumer
// goroutine, with fileSource's panic contract.
func (s *parallelSource) advance() bool {
	for {
		if s.pos < len(s.cur) {
			return true
		}
		if s.done {
			return false
		}
		if s.cur != nil {
			s.free <- s.cur[:0]
			s.cur = nil
		}
		if s.want >= len(s.blocks) {
			s.shutdown()
			return false
		}
		d, ok := s.pending[s.want]
		if ok {
			delete(s.pending, s.want)
		} else {
			for {
				d = <-s.results
				if d.idx == s.want {
					break
				}
				s.pending[d.idx] = d
			}
		}
		if d.err != nil {
			s.shutdown()
			panic(fmt.Sprintf("trace: %s: %v", s.path, d.err))
		}
		s.cur, s.pos = d.insts, 0
		s.want++
		// Refill the window so a worker always has the next block to
		// chew on; the jobs channel's capacity is the window size, so
		// this send never blocks.
		if s.next < len(s.blocks) {
			s.jobs <- s.next
			s.next++
		}
	}
}

// shutdown stops the workers and closes the file; it is idempotent and
// runs on the consumer goroutine (exhaustion, corruption, or Close).
func (s *parallelSource) shutdown() {
	s.done = true
	s.once.Do(func() {
		close(s.quit)
		s.wg.Wait()
		s.f.Close()
	})
}

// Next implements isa.Source.
func (s *parallelSource) Next(out *isa.Inst) bool {
	if !s.advance() {
		return false
	}
	*out = s.cur[s.pos]
	s.pos++
	return true
}

// NextBatch implements isa.BatchSource by copying from the sequenced
// arenas.
func (s *parallelSource) NextBatch(out []isa.Inst) int {
	n := 0
	for n < len(out) {
		if !s.advance() {
			break
		}
		c := copy(out[n:], s.cur[s.pos:])
		s.pos += c
		n += c
	}
	return n
}

// Close stops the workers and releases the file; safe after exhaustion
// and idempotent.
func (s *parallelSource) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	s.shutdown()
	return nil
}
