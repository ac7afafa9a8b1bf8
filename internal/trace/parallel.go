package trace

import (
	"encoding/binary"
	"fmt"
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
// on-disk span and the inflate state.
type blockDecoder struct {
	span []byte
	z    inflater
}

// maxBlockHeaderBytes bounds the serialised block header: five
// maximum-length varints.
const maxBlockHeaderBytes = 5 * binary.MaxVarintLen64

// decode reads block b (whose on-disk bytes end at end) with one
// positioned read, cross-checks the block header against the index
// entry, inflates the payload, and decodes its records into arena in
// one call. The shared *os.File is only used via ReadAt, which is safe
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
	raw, err := d.z.inflate(buf[:b.CompLen], binary.LittleEndian.Uint32(buf[b.CompLen:]), b.RawLen)
	if err != nil {
		return arena, corruptf("block at %d: %v", b.Off, err)
	}
	var st recordState
	n, used, err := decodeRecords(raw, arena[:b.Records], &st)
	arena = arena[:n]
	if err == nil {
		err = blockDone(raw, used, st, recordState{records: b.Records, insts: b.Insts, memOps: b.MemOps})
	}
	if err != nil {
		return arena, corruptf("block at %d: %v", b.Off, err)
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
