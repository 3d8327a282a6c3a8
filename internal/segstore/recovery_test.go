package segstore_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"aecodes/internal/segstore"
)

// activeSegment returns the path of the highest-numbered segment file.
func activeSegment(t *testing.T, dir string) string {
	t.Helper()
	names := segFiles(t, dir)
	if len(names) == 0 {
		t.Fatal("no segment files")
	}
	last := names[0]
	for _, n := range names[1:] {
		if n > last {
			last = n
		}
	}
	return filepath.Join(dir, last)
}

// TestKillMidRecordTruncatesTornTail is the crash-recovery contract: a
// write killed partway through a record leaves a torn tail; reopening
// truncates exactly that tail and every CRC-valid block survives.
func TestKillMidRecordTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, segstore.Options{})
	want := map[string][]byte{}
	for i := 0; i < 8; i++ {
		key := fmt.Sprintf("survivor-%d", i)
		data := bytes.Repeat([]byte{byte(i + 1)}, 96)
		want[key] = data
		if err := s.Put(key, data); err != nil {
			t.Fatal(err)
		}
	}
	seg := activeSegment(t, dir)
	intact, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	// The kill: one more record goes out, but the process dies after only
	// part of it reaches the file.
	if err := s.Put("victim", bytes.Repeat([]byte{0xEE}, 96)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	torn := intact.Size() + (full.Size()-intact.Size())/2
	if err := os.Truncate(seg, torn); err != nil {
		t.Fatal(err)
	}

	r := openStore(t, dir, segstore.Options{})
	st := r.Stats()
	if st.TruncatedBytes != torn-intact.Size() {
		t.Fatalf("TruncatedBytes = %d, want %d", st.TruncatedBytes, torn-intact.Size())
	}
	after, err := os.Stat(seg)
	if err != nil {
		t.Fatalf("recovered segment gone: %v", err)
	}
	if after.Size() != intact.Size() {
		t.Fatalf("segment is %d bytes after recovery, want %d (torn tail not cut)", after.Size(), intact.Size())
	}
	if _, ok := r.Get("victim"); ok {
		t.Fatal("half-written record served after recovery")
	}
	if r.Len() != len(want) {
		t.Fatalf("recovered %d blocks, want %d", r.Len(), len(want))
	}
	for key, data := range want {
		got, ok := r.Get(key)
		if !ok || !bytes.Equal(got, data) {
			t.Fatalf("CRC-valid block %s lost in recovery", key)
		}
	}
	// The store must be appendable again at the recovered offset.
	if err := r.Put("after-recovery", []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	rr := openStore(t, dir, segstore.Options{})
	if got, ok := rr.Get("after-recovery"); !ok || string(got) != "fresh" {
		t.Fatal("append after recovery did not survive the next reopen")
	}
	if rr.Len() != len(want)+1 {
		t.Fatalf("second reopen holds %d blocks, want %d", rr.Len(), len(want)+1)
	}
}

// TestGarbageTailTruncated covers the other torn-tail shape: the tail
// bytes are garbage (a record header never fully formed), not a clean
// record prefix.
func TestGarbageTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, segstore.Options{})
	if err := s.Put("keep", []byte("kept")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	seg := activeSegment(t, dir)
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x00, 0x00, 0x07, 0xFF, 0x13}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r := openStore(t, dir, segstore.Options{})
	if st := r.Stats(); st.TruncatedBytes != 5 {
		t.Fatalf("TruncatedBytes = %d, want 5", st.TruncatedBytes)
	}
	if got, ok := r.Get("keep"); !ok || string(got) != "kept" {
		t.Fatal("valid block lost to a garbage tail")
	}
}

// TestCorruptionAtRestReadsAsMissing pins the end-to-end integrity
// property: a bit flipped on disk makes the record's CRC fail, so the
// block reads as missing (for the repair engine to regenerate) instead
// of serving bad bytes.
func TestCorruptionAtRestReadsAsMissing(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, segstore.Options{})
	if err := s.Put("blk", bytes.Repeat([]byte{0x42}, 256)); err != nil {
		t.Fatal(err)
	}
	seg := activeSegment(t, dir)
	f, err := os.OpenFile(seg, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte: offset 8 (header) + 2 (key length) +
	// len("blk") + somewhere inside the data.
	if _, err := f.WriteAt([]byte{0x43}, 8+2+3+100); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, ok := s.Get("blk"); ok {
		t.Fatal("Get served a block whose record fails its CRC")
	}
	// An overwrite heals it: the new record supersedes the corrupt one.
	if err := s.Put("blk", bytes.Repeat([]byte{0x55}, 256)); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get("blk"); !ok || got[100] != 0x55 {
		t.Fatal("overwrite of a corrupt record not served")
	}
}

// TestSealedSegmentCorruptionLosesOnlyThatSegmentTail pins the blast
// radius of at-rest corruption in a sealed segment: the scan serves the
// segment's prefix and every later segment in full.
func TestSealedSegmentCorruptionLosesOnlyThatSegmentTail(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, segstore.Options{SegmentSize: 256})
	for i := 0; i < 30; i++ {
		if err := s.Put(fmt.Sprintf("k%02d", i), bytes.Repeat([]byte{byte(i)}, 64)); err != nil {
			t.Fatal(err)
		}
	}
	if segs := s.Stats().Segments; segs < 4 {
		t.Fatalf("need several segments, got %d", segs)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the first record of the FIRST (sealed) segment.
	first := filepath.Join(dir, segFiles(t, dir)[0])
	f, err := os.OpenFile(first, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xFF}, 20); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r := openStore(t, dir, segstore.Options{SegmentSize: 256})
	if st := r.Stats(); st.TruncatedBytes != 0 {
		t.Fatalf("sealed-segment corruption truncated %d bytes; only the active segment may be truncated", st.TruncatedBytes)
	}
	// The corrupted segment's records are no longer live, so its bytes
	// count as reclaimable — the -compactdead gate must see them.
	if st := r.Stats(); st.DeadBytes < 200 {
		t.Fatalf("DeadBytes = %d after losing a ~256-byte sealed segment to corruption; the compaction gate would never fire", st.DeadBytes)
	}
	if r.Len() >= 30 {
		t.Fatal("corrupted segment's records still all indexed")
	}
	// The last blocks written live in later segments and must be intact.
	for i := 25; i < 30; i++ {
		key := fmt.Sprintf("k%02d", i)
		got, ok := r.Get(key)
		if !ok || !bytes.Equal(got, bytes.Repeat([]byte{byte(i)}, 64)) {
			t.Fatalf("block %s in a healthy segment lost to another segment's corruption", key)
		}
	}
}

// TestTombstoneOutlivesShadowedRecord pins the invariant compaction's
// oldest-first removal order relies on: after any prefix of sealed
// segments is gone (the state a crash mid-compaction can leave), the
// remaining suffix still replays deleted keys as deleted — the
// tombstone's segment outlives every older segment holding a record it
// shadows.
func TestTombstoneOutlivesShadowedRecord(t *testing.T) {
	dir := t.TempDir()
	// SegmentSize 1: every record rotates into its own segment, making
	// the layout deterministic: seg1=put(doomed), seg2=put(keeper),
	// seg3=tombstone(doomed), seg4=put(last).
	s := openStore(t, dir, segstore.Options{SegmentSize: 1})
	if err := s.Put("doomed", []byte("stale")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("keeper", []byte("kept")); err != nil {
		t.Fatal(err)
	}
	s.Del("doomed")
	if err := s.Put("last", []byte("tail")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs := segFiles(t, dir)
	if len(segs) != 4 {
		t.Fatalf("layout changed: %d segments, want 4", len(segs))
	}
	// The crash state oldest-first removal can leave: the oldest segment
	// (holding doomed's record) is gone, the tombstone's is not.
	if err := os.Remove(filepath.Join(dir, segs[0])); err != nil {
		t.Fatal(err)
	}

	r := openStore(t, dir, segstore.Options{SegmentSize: 1})
	if _, ok := r.Get("doomed"); ok {
		t.Fatal("deleted key resurrected from a partially-compacted log")
	}
	if got, ok := r.Get("keeper"); !ok || string(got) != "kept" {
		t.Fatal("live key lost with the removed prefix segment")
	}
	if got, ok := r.Get("last"); !ok || string(got) != "tail" {
		t.Fatal("tail key lost")
	}
}

// TestPowerCutMidSealRecovery covers the two log shapes a power cut can
// leave now that a segment is sealed beside the appends that follow it:
// the sealed segment's tail never reached the disk although a newer
// segment holds valid records, and the same with the newer segment's
// directory entry lost as well. Open serves the valid prefix of every
// segment, last write wins over what survived, and only the last
// segment's torn tail is cut (and counted).
func TestPowerCutMidSealRecovery(t *testing.T) {
	// 77-byte records in 256-byte segments: three per segment, so k00–k02
	// land in segment 1, k03–k05 in 2, k06–k08 in 3 (the active one).
	const recLen, cut = 77, 10
	build := func(t *testing.T) string {
		dir := t.TempDir()
		s := openStore(t, dir, segstore.Options{SegmentSize: 256})
		for i := 0; i < 9; i++ {
			if err := s.Put(fmt.Sprintf("k%02d", i), bytes.Repeat([]byte{byte(i)}, 64)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if got := len(segFiles(t, dir)); got != 3 {
			t.Fatalf("layout changed: %d segments, want 3", got)
		}
		// The seal of segment 2 was in flight: its last record is cut
		// mid-way.
		if err := os.Truncate(filepath.Join(dir, "00000002.seg"), 3*recLen-cut); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	check := func(t *testing.T, s *segstore.Store, served []int, truncated int64) {
		t.Helper()
		if got := s.Stats().TruncatedBytes; got != truncated {
			t.Errorf("TruncatedBytes = %d, want %d", got, truncated)
		}
		if s.Len() != len(served) {
			t.Errorf("Len = %d, want %d", s.Len(), len(served))
		}
		for _, i := range served {
			key := fmt.Sprintf("k%02d", i)
			got, ok := s.Get(key)
			if !ok || !bytes.Equal(got, bytes.Repeat([]byte{byte(i)}, 64)) {
				t.Errorf("%s, in the valid prefix of its segment, not served (ok=%v)", key, ok)
			}
		}
	}

	t.Run("newer segment valid", func(t *testing.T) {
		dir := build(t)
		r := openStore(t, dir, segstore.Options{SegmentSize: 256})
		// Segment 2 is not the last: its torn tail is skipped, not cut.
		check(t, r, []int{0, 1, 2, 3, 4, 6, 7, 8}, 0)
		if info, err := os.Stat(filepath.Join(dir, "00000002.seg")); err != nil || info.Size() != 3*recLen-cut {
			t.Errorf("sealed segment 2 was rewritten by recovery: %v, %v", info, err)
		}
	})

	t.Run("newer segment absent", func(t *testing.T) {
		dir := build(t)
		if err := os.Remove(filepath.Join(dir, "00000003.seg")); err != nil {
			t.Fatal(err)
		}
		r := openStore(t, dir, segstore.Options{SegmentSize: 256})
		// Segment 2 is now the last one: its torn tail is cut, and appends
		// continue behind its valid prefix.
		check(t, r, []int{0, 1, 2, 3, 4}, recLen-cut)
		if err := r.Put("k05", bytes.Repeat([]byte{5}, 64)); err != nil {
			t.Fatal(err)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		check(t, openStore(t, dir, segstore.Options{SegmentSize: 256}), []int{0, 1, 2, 3, 4, 5}, 0)
	})
}
