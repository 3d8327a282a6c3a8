// Observability: segstore's handles into the process-global obs
// registry under the "segstore" scope. Counters and histograms
// aggregate across every open store in the process; the shape gauges
// (blocks/segments/live/dead bytes) are set-style and reflect the most
// recently updated store — in a storage daemon there is exactly one.
// All handles are resolved once at package init; the per-operation
// cost is a clock read plus a few uncontended atomic adds, cheap
// against an append or fsync.
package segstore

import (
	"os"
	"time"

	"aecodes/internal/obs"
)

var (
	segScope = obs.Default.Scope("segstore")

	// Append path: one latency sample per batch (a single Put is a
	// batch of one), plus payload bytes and block counts. The latency is
	// the whole call; append.lockwait is the part of it spent waiting for
	// amu, the writers' lock — behind other appends, barriers and
	// compactions, never behind reads — so the write itself is the
	// difference.
	obsAppendLatency  = segScope.Histogram("append.latency")
	obsAppendLockWait = segScope.Histogram("append.lockwait")
	obsAppendBytes    = segScope.Counter("append.bytes")
	obsAppendBlocks   = segScope.Counter("append.blocks")

	// Read path: one latency sample per Get, ReadInto or ReadBatch call,
	// plus payload bytes returned. ReadBatch's sample ends before its
	// callback runs: it times the reads, not what the caller does with
	// them.
	obsReadLatency = segScope.Histogram("read.latency")
	obsReadBytes   = segScope.Counter("read.bytes")
	// read.dropped counts the keys a foreground read found failing their
	// check and dropped from the index — rot no scrub had reached yet;
	// scrub.corrupt below counts the scrub's own finds.
	obsReadDropped = segScope.Counter("read.dropped")

	// Enumeration path: StatBatch answers from the index and reads no
	// record. One latency sample per call, plus keys probed.
	obsStatLatency = segScope.Histogram("stat.latency")
	obsStatKeys    = segScope.Counter("stat.keys")

	// Bulk reads (ReadInto, ReadBatch) split across cores from bulkFloor
	// record bytes up: the record bytes of every call that was split —
	// the share of a workload's record verification that can use a
	// second core.
	obsBulkParallelBytes = segScope.Counter("bulk.parallel_bytes")

	// Block-payload bytes copied in user space on the socket↔store path:
	// the number the zero-copy frame path exists to keep at zero. Only
	// deliberate copies count — a store copying on put (store.Mem), a
	// staging fallback before a write — never kernel-side socket or
	// page-cache transfers. store resolves the same counter;
	// TestPutBatchCopiedBytes holds PutBatch's share to its budget.
	obsCopiedBytes = obs.Default.Scope("hotpath").Counter("copied_bytes")

	// Durability: one sample per fsync of a segment file, wherever it
	// ran (the seal job, per-batch Options.Sync, explicit Sync, Close,
	// compaction). seal.wait is the time a rotation or a barrier spent
	// waiting for the last seal job — one sample per job, near zero when
	// the job had finished by then; not an fsync of its own, and in its
	// tail the sign that the disk is not keeping up with the appends. The
	// wait holds amu alone: it stalls writers, not reads.
	obsSyncLatency = segScope.Histogram("sync.latency")
	obsSealWait    = segScope.Histogram("seal.wait")

	// Open: one latency sample per Open, from the first segment's replay
	// to the last; the sealed segments whose index came from their
	// footer; and the segments — the active one, and sealed ones without
	// a valid footer — read through the verifying scan, with their bytes.
	obsOpenLatency         = segScope.Histogram("open.latency")
	obsOpenFooterSegments  = segScope.Counter("open.footer_segments")
	obsOpenScannedSegments = segScope.Counter("open.scanned_segments")
	obsOpenScannedBytes    = segScope.Counter("open.scanned_bytes")

	// Compaction: completed runs, failures, and time spent.
	obsCompactRuns    = segScope.Counter("compact.runs")
	obsCompactErrors  = segScope.Counter("compact.errors")
	obsCompactLatency = segScope.Histogram("compact.latency")

	// Scrub: records verified, record bytes read, and CRC failures
	// dropped from the index.
	obsScrubScanned = segScope.Counter("scrub.scanned")
	obsScrubBytes   = segScope.Counter("scrub.bytes")
	obsScrubCorrupt = segScope.Counter("scrub.corrupt")

	// Shape gauges, refreshed after every mutation.
	obsBlocks    = segScope.Gauge("blocks")
	obsSegments  = segScope.Gauge("segments")
	obsLiveBytes = segScope.Gauge("live_bytes")
	obsDeadBytes = segScope.Gauge("dead_bytes")
)

// updateShapeLocked refreshes the shape gauges from the store's
// incremental counters. Callers hold s.mu; the walk is O(segments),
// the same cost Stats already pays.
func (s *Store) updateShapeLocked() {
	var live int64
	for _, n := range s.liveInSeg {
		live += n
	}
	obsBlocks.Set(int64(len(s.index)))
	obsSegments.Set(int64(len(s.files)))
	obsLiveBytes.Set(live)
	obsDeadBytes.Set(s.deadBytesLocked())
}

// timedSync fsyncs one segment file and charges the latency to the sync
// histogram.
func timedSync(f *os.File) error {
	start := time.Now()
	err := fsync(f)
	obsSyncLatency.Record(time.Since(start).Nanoseconds())
	return err
}

// timedCompactLocked runs one compaction and charges run count,
// failures and latency. Callers hold amu and mu.
func (s *Store) timedCompactLocked() error {
	start := time.Now()
	err := s.compactLocked()
	obsCompactLatency.Record(time.Since(start).Nanoseconds())
	obsCompactRuns.Inc()
	if err != nil {
		obsCompactErrors.Inc()
	}
	return err
}
