package segstore

import "sort"

// ScrubResult reports one bounded step of the background CRC scrub.
type ScrubResult struct {
	// Next is the cursor to pass as `after` on the following step; empty
	// when the walk wrapped (every live key at or before the end of the
	// key space has been verified this cycle).
	Next string
	// Scanned counts records read and CRC-verified this step.
	Scanned int
	// Bytes counts record bytes read (header + key + payload) — what the
	// scrub's rate limiter should charge.
	Bytes int64
	// Corrupt lists keys whose records failed verification. They have
	// already been dropped from the index, so missing-block enumeration
	// (segstore.Lattice.Missing) reports them and healing regenerates
	// the blocks; the corrupt record bytes themselves are reclaimed by
	// the next compaction like any other dead record.
	Corrupt []string
}

// ScrubStep reads and CRC-verifies live records in key order, starting
// strictly after the `after` cursor, until maxBytes of records have been
// read or the key space is exhausted. Corrupt records are dropped from
// the index (a read that meets one drops it too; the scrub finds the
// ones no read has touched, and the drop is what makes the damage
// visible to StatBatch and so to Missing). The reads
// run under the store's read lock, beside foreground reads; only the
// drop takes the write lock, and it drops a key only while the index
// still points at the record that failed — a key rewritten in between
// keeps its new record and is not reported.
func (s *Store) ScrubStep(after string, maxBytes int64) ScrubResult {
	res, bad := s.scrubVerify(after, maxBytes)
	res.Corrupt = s.dropCorrupt(bad)
	obsScrubScanned.Add(int64(res.Scanned))
	obsScrubBytes.Add(res.Bytes)
	obsScrubCorrupt.Add(int64(len(res.Corrupt)))
	return res
}

// badRecord is a record that failed verification: its key and where
// the index pointed when it did.
type badRecord struct {
	key string
	loc recordLoc
}

// scrubVerify is ScrubStep's read half, under the read lock: it verifies
// records and returns the ones that failed, leaving the index alone.
func (s *Store) scrubVerify(after string, maxBytes int64) (ScrubResult, []badRecord) {
	if maxBytes <= 0 {
		maxBytes = 4 << 20
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	var res ScrubResult
	var bad []badRecord
	if s.closed {
		return res, nil
	}
	keys := make([]string, 0, len(s.index))
	for k := range s.index {
		if k > after {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	scratch := scratchPool.Get().(*[]byte)
	defer scratchPool.Put(scratch)
	for _, key := range keys {
		loc := s.index[key]
		n := loc.recLen()
		if _, ok := readRecord(s.files[loc.seg], scratchFor(scratch, n), loc, key); !ok {
			bad = append(bad, badRecord{key, loc})
		}
		res.Scanned++
		res.Bytes += n
		res.Next = key
		if res.Bytes >= maxBytes {
			return res, bad
		}
	}
	res.Next = "" // wrapped: the next step restarts from the top
	return res, bad
}

// dropUnreadable is the read paths' write half, run once the read lock
// is released and only when a record failed its check: it drops those
// keys like a scrub finding and counts them in read.dropped.
func (s *Store) dropUnreadable(bad []badRecord) {
	obsReadDropped.Add(int64(len(s.dropCorrupt(bad))))
}

// dropCorrupt is the write half of ScrubStep and of every read: it drops
// each finding's key whose index entry still points at the record that
// failed — a Put or Compact in between wins — and returns the keys it
// dropped.
func (s *Store) dropCorrupt(bad []badRecord) []string {
	if len(bad) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	var dropped []string
	for _, b := range bad {
		if loc, ok := s.index[b.key]; ok && loc == b.loc {
			s.dropLiveLocked(b.key)
			dropped = append(dropped, b.key)
		}
	}
	return dropped
}
