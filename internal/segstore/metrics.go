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
	"time"

	"aecodes/internal/obs"
)

var (
	segScope = obs.Default.Scope("segstore")

	// Append path: one latency sample per batch (a single Put is a
	// batch of one), plus payload bytes and block counts.
	obsAppendLatency = segScope.Histogram("append.latency")
	obsAppendBytes   = segScope.Counter("append.bytes")
	obsAppendBlocks  = segScope.Counter("append.blocks")

	// Read path: one latency sample per Get/GetBatch call, plus payload
	// bytes returned.
	obsReadLatency = segScope.Histogram("read.latency")
	obsReadBytes   = segScope.Counter("read.bytes")

	// Enumeration path: StatBatch preads and CRC-checks every record it
	// is asked about without returning it, so its cost shows nowhere on
	// the read path above. One latency sample per call, plus keys probed
	// and record bytes read.
	obsStatLatency = segScope.Histogram("stat.latency")
	obsStatKeys    = segScope.Counter("stat.keys")
	obsStatBytes   = segScope.Counter("stat.bytes")

	// Durability: every fsync of the active segment, wherever it came
	// from (per-batch Options.Sync, explicit Sync, segment seal).
	obsSyncLatency = segScope.Histogram("sync.latency")

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

// timedSyncLocked fsyncs the active segment and charges the latency to
// the sync histogram. Callers hold s.mu.
func (s *Store) timedSyncLocked() error {
	start := time.Now()
	err := s.w.Sync()
	obsSyncLatency.Record(time.Since(start).Nanoseconds())
	return err
}

// timedCompactLocked runs one compaction and charges run count,
// failures and latency. Callers hold s.mu.
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
