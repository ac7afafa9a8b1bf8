package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"

	"repro/internal/isa"
)

// DefaultSharedBudget is the decoded-byte budget a zero-budget
// NewShared resolves to: roughly 1 GiB of decoded records.
const DefaultSharedBudget = int64(1) << 30

// instBytes is the in-memory cost of one decoded record, used for
// budget accounting.
const instBytes = int64(24)

// Shared is a content-keyed store of decoded traces for sweep-scale
// replay: the first replay of a file decodes it once into memory
// (single-flight — concurrent opens of the same content wait, they do
// not decode twice) and every later replay of the same content gets a
// refcounted zero-copy cursor over the same records. The second and
// later points of a trace sweep therefore do zero decompression and
// near-zero allocation.
//
// Entries are keyed by content, not by path: a renamed or copied trace
// shares its entry, and a file overwritten in place gets a fresh one.
// The store holds decoded entries within a byte budget, evicting idle
// (refcount-zero) entries least-recently-used first; a single trace
// too large for the whole budget is handed to its callers but never
// retained. All methods are safe for concurrent use.
type Shared struct {
	mu      sync.Mutex
	budget  int64
	used    int64
	clock   uint64
	entries map[string]*sharedEntry

	decodes uint64
	hits    uint64
}

// sharedEntry is one decoded trace: its header, every record in file
// order, and the refcount/LRU bookkeeping. ready is closed when the
// single-flight decode finishes (err set on failure).
type sharedEntry struct {
	key   string
	hdr   Header
	insts []isa.Inst
	size  int64

	refs   int
	stamp  uint64
	cached bool

	ready chan struct{}
	err   error
}

// NewShared returns a store with the given decoded-byte budget; a
// budget <= 0 selects DefaultSharedBudget.
func NewShared(budget int64) *Shared {
	if budget <= 0 {
		budget = DefaultSharedBudget
	}
	return &Shared{budget: budget, entries: make(map[string]*sharedEntry)}
}

// SharedStats is a point-in-time snapshot of a store's activity.
type SharedStats struct {
	// Decodes is the number of full trace decodes the store performed;
	// Hits is the number of Opens answered from an existing entry.
	Decodes uint64
	Hits    uint64
	// Entries and UsedBytes describe the currently retained traces.
	Entries   int
	UsedBytes int64
	// BudgetBytes is the configured budget.
	BudgetBytes int64
}

// Stats returns a snapshot of the store's counters.
func (s *Shared) Stats() SharedStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SharedStats{
		Decodes:     s.decodes,
		Hits:        s.hits,
		Entries:     len(s.entries),
		UsedBytes:   s.used,
		BudgetBytes: s.budget,
	}
}

// Open returns a streaming source over path's decoded records, reusing
// the store's in-memory copy when the same content was decoded before.
// The cursor implements isa.Source and isa.BatchSource; its Close
// releases the entry reference (idempotent), after which the entry is
// eligible for eviction once no other cursor holds it.
func (s *Shared) Open(path string) (isa.Source, error) {
	key, err := contentKey(path)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if e, ok := s.entries[key]; ok {
		e.refs++
		s.hits++
		s.mu.Unlock()
		<-e.ready
		if e.err != nil {
			s.release(e)
			return nil, e.err
		}
		return &sharedCursor{s: s, e: e}, nil
	}
	e := &sharedEntry{key: key, refs: 1, cached: true, ready: make(chan struct{})}
	s.entries[key] = e
	s.decodes++
	s.mu.Unlock()

	hdr, insts, err := decodeAll(path)

	s.mu.Lock()
	if err != nil {
		e.err = err
		delete(s.entries, key)
		e.cached = false
		close(e.ready)
		s.mu.Unlock()
		return nil, err
	}
	e.hdr, e.insts = hdr, insts
	e.size = int64(len(insts)) * instBytes
	if e.size > s.budget {
		// Too large to ever retain: hand it to the waiters, but drop
		// it from the store so it dies with its last cursor.
		delete(s.entries, key)
		e.cached = false
	} else {
		s.used += e.size
		s.evictLocked(e)
	}
	close(e.ready)
	s.mu.Unlock()
	return &sharedCursor{s: s, e: e}, nil
}

// MustOpen is Open, panicking on error (the engine validates the file
// header at system construction).
func (s *Shared) MustOpen(path string) isa.Source {
	src, err := s.Open(path)
	if err != nil {
		panic(err)
	}
	return src
}

// release drops one reference and evicts idle entries if the store is
// over budget.
func (s *Shared) release(e *sharedEntry) {
	s.mu.Lock()
	e.refs--
	s.clock++
	e.stamp = s.clock
	s.evictLocked(nil)
	s.mu.Unlock()
}

// evictLocked drops idle (refcount-zero) entries, least recently
// released first, until the store fits its budget. keep, if non-nil,
// is the entry being inserted and is never evicted — a fresh decode is
// about to be read, whatever its stamp says.
func (s *Shared) evictLocked(keep *sharedEntry) {
	for s.used > s.budget {
		var victim *sharedEntry
		for _, e := range s.entries {
			if e == keep || e.refs > 0 || !e.cached {
				continue
			}
			if victim == nil || e.stamp < victim.stamp {
				victim = e
			}
		}
		if victim == nil {
			return
		}
		delete(s.entries, victim.key)
		victim.cached = false
		s.used -= victim.size
	}
}

// decodeAll decodes every record of path into memory with ReadBatch,
// straight into the arena. For a v2 file the block index sizes the
// arena up front, with one spare slot so the call that meets the end
// of the trace does not grow it; v1 grows as it goes.
func decodeAll(path string) (Header, []isa.Inst, error) {
	r, err := Open(path)
	if err != nil {
		return Header{}, nil, err
	}
	defer r.Close()
	var insts []isa.Inst
	if r.version == Version2 && r.file != nil && r.gz == nil {
		if blocks, _, _, err := readIndexFile(r.file); err == nil {
			var total uint64
			for _, b := range blocks {
				total += b.Records
			}
			insts = make([]isa.Inst, 0, total+1)
		}
	}
	for {
		if len(insts) == cap(insts) {
			insts = slices.Grow(insts, blockRecords)
		}
		n, err := r.ReadBatch(insts[len(insts):cap(insts)])
		insts = insts[:len(insts)+n]
		if err == io.EOF {
			return r.Header(), insts, nil
		}
		if err != nil {
			return Header{}, nil, err
		}
	}
}

// contentKey fingerprints a trace file's contents. A v2 file is keyed
// by its header bytes and block index — every block's size and CRC —
// which O(1)-identifies the record section without reading it; any
// other file (v1, or a gzip envelope) is keyed by hashing the whole
// file. The two spaces are disjoint by construction (distinct
// prefixes).
func contentKey(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	var lead [5]byte
	if _, err := io.ReadFull(f, lead[:]); err != nil {
		return "", corruptf("%s: short header: %v", path, eofErr(err))
	}
	h := sha256.New()
	if string(lead[:4]) == Magic && lead[4] == Version2 {
		size, err := f.Seek(0, io.SeekEnd)
		if err != nil {
			return "", fmt.Errorf("trace: %s: %w", path, err)
		}
		_, indexOff, indexLen, err := readIndexFile(f)
		if err != nil {
			return "", fmt.Errorf("trace: %s: %w", path, err)
		}
		// Header bytes run from the file start to the first block (or
		// the sentinel, for an empty trace); hashing them plus the
		// index covers the metadata and every block's fingerprint.
		hdrEnd := indexOff
		idx := make([]byte, indexLen)
		if _, err := f.ReadAt(idx, int64(indexOff)); err != nil {
			return "", corruptf("%s: index: %v", path, err)
		}
		var sz [8]byte
		binary.LittleEndian.PutUint64(sz[:], uint64(size))
		h.Write([]byte("vtrc2\x00"))
		h.Write(sz[:])
		hdrLen := int64(hdrEnd)
		if hdrLen > 1<<16 {
			hdrLen = 1 << 16
		}
		hdrBytes := make([]byte, hdrLen)
		if _, err := f.ReadAt(hdrBytes, 0); err != nil {
			return "", corruptf("%s: header: %v", path, err)
		}
		h.Write(hdrBytes)
		h.Write(idx)
	} else {
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			return "", fmt.Errorf("trace: %s: %w", path, err)
		}
		h.Write([]byte("vtrc1\x00"))
		if _, err := io.Copy(h, f); err != nil {
			return "", fmt.Errorf("trace: %s: %w", path, err)
		}
	}
	return string(h.Sum(nil)), nil
}

// sharedCursor is a zero-copy cursor over one store entry. It
// implements isa.Source and isa.BatchSource; Close releases the entry
// reference and is idempotent.
type sharedCursor struct {
	s      *Shared
	e      *sharedEntry
	pos    int
	closed bool
}

// Next implements isa.Source.
func (c *sharedCursor) Next(out *isa.Inst) bool {
	if c.pos >= len(c.e.insts) {
		return false
	}
	*out = c.e.insts[c.pos]
	c.pos++
	return true
}

// NextBatch implements isa.BatchSource by copying straight out of the
// shared arena.
func (c *sharedCursor) NextBatch(out []isa.Inst) int {
	n := copy(out, c.e.insts[c.pos:])
	c.pos += n
	return n
}

// Close releases the cursor's entry reference; idempotent.
func (c *sharedCursor) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	c.s.release(c.e)
	return nil
}
