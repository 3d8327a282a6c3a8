// Package benchfmt is the machine-readable benchmark schema shared by
// cmd/aebench (which writes it with -json) and cmd/benchguard (which
// compares two documents). Keeping the one definition here means a tag
// rename cannot silently desynchronise the writer from the CI guard —
// the guard would stop compiling, not stop comparing.
package benchfmt

// Result is one measurement: ns/op and MB/s where meaningful, wall time
// per experiment.
type Result struct {
	Experiment string `json:"experiment"`
	Name       string `json:"name"`
	// GoMaxProcs is the GOMAXPROCS the measurement ran at. aebench -cpu
	// runs the same experiments at several values in one document, so the
	// parallelism belongs to the result, not the run; 0 (older documents)
	// means "the document-level gomaxprocs".
	GoMaxProcs int     `json:"gomaxprocs,omitempty"`
	NsPerOp    float64 `json:"ns_op,omitempty"`
	MBps       float64 `json:"mb_s,omitempty"`
	// BytesBlock is block-payload bytes copied in user space per block
	// moved (the hotpath/copied_bytes obs counter), the zero-copy path's guarded number. A
	// pointer so that a measured zero — the whole point of the vectored
	// write path — is recorded and guarded rather than omitted as empty.
	BytesBlock *float64 `json:"bytes_block,omitempty"`
	// P99Ns / P999Ns are tail latencies per operation, interpolated from
	// the per-op obs histogram the experiment recorded into (log-scale
	// buckets, so the figure is exact to within a factor of two — plenty
	// to catch a tail collapse). Zero means the experiment did not record
	// latencies.
	P99Ns  float64 `json:"p99_ns,omitempty"`
	P999Ns float64 `json:"p999_ns,omitempty"`
	WallNs int64   `json:"wall_ns,omitempty"`
}

// Document is one `aebench -json` run, archived as BENCH_*.json.
type Document struct {
	Timestamp string `json:"timestamp"`
	// GoMaxProcs is the run's ambient GOMAXPROCS — the default for
	// results that predate the per-result field.
	GoMaxProcs int      `json:"gomaxprocs"`
	Results    []Result `json:"results"`
}
