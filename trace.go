package virtuoso

import (
	"fmt"
	"os"

	"repro/internal/trace"
)

// TraceInfo summarises a recorded trace file: the metadata stored in
// its header plus whole-file instruction counts. For a v2 file the
// counts come from the CRC-checked block index — constant work
// regardless of trace length; a v1 file is counted by streaming its
// record section once.
type TraceInfo struct {
	// Path is the file the info was read from.
	Path string `json:"path"`
	// Workload is the recorded workload's name.
	Workload string `json:"workload"`
	// Class is the recorded workload's class ("long" or "short").
	Class string `json:"class"`
	// FootprintBytes is the recorded workload's primary data footprint.
	FootprintBytes uint64 `json:"footprint_bytes"`
	// Seed is the simulation seed of the recording run; replaying with
	// the same seed and configuration reproduces it exactly.
	Seed uint64 `json:"seed"`
	// Segments is the number of recorded address-space segments replay
	// re-creates.
	Segments int `json:"segments"`
	// Records is the number of instruction records in the file.
	Records uint64 `json:"records"`
	// Instructions is the dynamic instruction count (batched ops at
	// their batch size).
	Instructions uint64 `json:"instructions"`
	// MemOps is the dynamic count of memory-operand instructions.
	MemOps uint64 `json:"mem_ops"`
	// Compressed reports whether the record section is compressed: a
	// v1 gzip envelope (detected by magic bytes, never by extension) or
	// the always-block-compressed v2 container.
	Compressed bool `json:"compressed"`
	// Version is the file's major format version (1 or 2).
	Version int `json:"version"`
	// Blocks is the number of independently decodable record blocks
	// (v2 only).
	Blocks int `json:"blocks,omitempty"`
	// IndexBytes is the serialised block-index size (v2 only).
	IndexBytes int `json:"index_bytes,omitempty"`
	// RawBytes and CompBytes are the uncompressed and compressed block
	// payload totals (v2 only); CompBytes/RawBytes is the record
	// compression ratio.
	RawBytes  uint64 `json:"raw_bytes,omitempty"`
	CompBytes uint64 `json:"comp_bytes,omitempty"`
}

// ReadTraceInfo opens, validates, and summarises a trace file. A v2
// file answers from its block index without touching the record
// blocks; a v1 file streams every record in constant memory. When only
// the header metadata is needed, ReadTraceHeader is cheaper still.
func ReadTraceInfo(path string) (TraceInfo, error) {
	info, err := trace.ReadInfo(path)
	if err != nil {
		return TraceInfo{}, err
	}
	ti := headerInfo(path, info.Header)
	ti.Records, ti.Instructions, ti.MemOps = info.Records, info.Insts, info.MemOps
	ti.Compressed = info.Compressed
	ti.Version = info.Version
	ti.Blocks = info.Blocks
	ti.IndexBytes = info.IndexBytes
	ti.RawBytes, ti.CompBytes = info.RawBytes, info.CompBytes
	return ti, nil
}

// ReadTraceHeader validates a trace file and returns its header
// metadata without decoding the record section: Records, Instructions,
// MemOps, and the v2 block fields are left zero. Use it when the
// workload identity or seed is needed but the per-record summary
// (ReadTraceInfo) would be wasteful.
func ReadTraceHeader(path string) (TraceInfo, error) {
	r, err := trace.Open(path)
	if err != nil {
		return TraceInfo{}, err
	}
	defer r.Close()
	ti := headerInfo(path, r.Header())
	ti.Compressed = r.Compressed()
	ti.Version = r.Version()
	return ti, nil
}

// ConvertTrace rewrites the trace at src into the current (v2,
// seekable block-compressed) format at dst, streaming — the whole
// trace is never held in memory — and atomically: dst appears complete
// or not at all. The decoded record stream is preserved exactly, so
// replays of src and dst are byte-identical. Converting a v2 file
// re-blocks it losslessly. The summarised result describes the written
// file.
func ConvertTrace(src, dst string) (TraceInfo, error) {
	info, err := trace.Convert(src, dst)
	if err != nil {
		return TraceInfo{}, err
	}
	ti := headerInfo(dst, info.Header)
	ti.Records, ti.Instructions, ti.MemOps = info.Records, info.Insts, info.MemOps
	ti.Compressed = info.Compressed
	ti.Version = info.Version
	ti.Blocks = info.Blocks
	ti.IndexBytes = info.IndexBytes
	ti.RawBytes, ti.CompBytes = info.RawBytes, info.CompBytes
	return ti, nil
}

func headerInfo(path string, hdr trace.Header) TraceInfo {
	return TraceInfo{
		Path:           path,
		Workload:       hdr.Workload,
		Class:          hdr.Class.String(),
		FootprintBytes: hdr.Footprint,
		Seed:           hdr.Seed,
		Segments:       len(hdr.Layout),
	}
}

// TraceWorkload builds a trace-backed workload from a recorded file:
// its Setup re-creates the recorded address-space layout, and running
// it with Config.TracePath set to the same file (and FrontendTrace)
// replays the recorded stream. WithTrace does all of this for a single
// session; TraceWorkload is the building block for sweeps — a
// WorkloadFactory returns one per point while Configure sets
// TracePath, typically together with Sweep.Traces so the grid decodes
// the file once.
func TraceWorkload(path string) (*Workload, error) {
	return trace.NewWorkload(path)
}

// RecordOption adjusts how Session.Record writes its trace file.
type RecordOption func(*recordOptions)

type recordOptions struct {
	v1 bool
}

// RecordFormatV1 makes Record write the legacy v1 streaming format (a
// ".gz" extension then selects the gzip envelope) instead of the
// default seekable block-compressed v2 container — for feeding tools
// that predate v2. v1 files replay forever; ConvertTrace upgrades
// them.
func RecordFormatV1() RecordOption {
	return func(o *recordOptions) { o.v1 = true }
}

// Record simulates the session's workload exactly like Run while
// streaming every application instruction to a trace file at path. By
// default the file is written in the seekable block-compressed v2
// format (whatever the extension); RecordFormatV1 selects the legacy
// format. The returned metrics are those of the recording run, and the
// returned TraceInfo summarises the written file from the writer's own
// counters — no re-read of the file. Replaying the file with WithTrace
// under the same configuration and seed reproduces the metrics
// deterministically.
//
// Like Run, Record consumes the session. A partially written file is
// removed on error.
func (s *Session) Record(path string, ropts ...RecordOption) (Metrics, TraceInfo, error) {
	var o recordOptions
	for _, opt := range ropts {
		opt(&o)
	}
	if len(s.mix) > 0 {
		return Metrics{}, TraceInfo{}, fmt.Errorf("virtuoso: multiprogrammed sessions cannot be recorded (a trace captures one address space)")
	}
	if s.ran {
		return Metrics{}, TraceInfo{}, fmt.Errorf("virtuoso: session already run (sessions are single-use; Open a new one)")
	}
	s.ran = true
	create := trace.Create
	if o.v1 {
		create = trace.CreateV1
	}
	tw, err := create(path)
	if err != nil {
		return Metrics{}, TraceInfo{}, err
	}
	m, err := s.sys.RunRecording(s.w, tw)
	if cerr := tw.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
		return Metrics{}, TraceInfo{}, err
	}
	info := TraceInfo{
		Path:           path,
		Workload:       s.w.Name(),
		Class:          s.w.Class().String(),
		FootprintBytes: s.w.FootprintBytes(),
		Seed:           s.cfg.Seed,
		Segments:       tw.Segments(),
		Records:        tw.Records(),
		Instructions:   tw.Insts(),
		MemOps:         tw.MemOps(),
		Compressed:     tw.Version() == trace.Version2 || trace.Compressed(path),
		Version:        tw.Version(),
		Blocks:         tw.Blocks(),
		IndexBytes:     tw.IndexBytes(),
		RawBytes:       tw.RawBytes(),
		CompBytes:      tw.CompBytes(),
	}
	return m, info, nil
}
