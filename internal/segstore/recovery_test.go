package segstore_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"aecodes/internal/obs"
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
// radius of at-rest corruption in a sealed segment. With its footer
// corrupted too, Open scans the segment: it serves the segment's prefix
// and every later segment in full. With its footer intact, Open lists
// the corrupt record like every other; the first read drops it, and
// every other record is served.
func TestSealedSegmentCorruptionLosesOnlyThatSegmentTail(t *testing.T) {
	// 77-byte records in 256-byte segments: three per segment, k00–k02
	// in the first.
	build := func(t *testing.T) (dir, first string) {
		dir = t.TempDir()
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
		// Corrupt the first record (k00's payload) of the FIRST (sealed)
		// segment.
		first = filepath.Join(dir, segFiles(t, dir)[0])
		flipByteAt(t, first, 20)
		return dir, first
	}

	t.Run("footer corrupt too", func(t *testing.T) {
		dir, first := build(t)
		// The footer's last body byte, just ahead of its 16-byte trailer.
		info, err := os.Stat(first)
		if err != nil {
			t.Fatal(err)
		}
		flipByteAt(t, first, info.Size()-17)

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
	})

	t.Run("footer intact", func(t *testing.T) {
		dir, _ := build(t)
		r := openStore(t, dir, segstore.Options{SegmentSize: 256})
		if st := r.Stats(); st.TruncatedBytes != 0 || st.DeadBytes != 0 || st.Blocks != 30 {
			t.Fatalf("Stats = %+v, want all 30 records listed, nothing dead or truncated", st)
		}
		if got := r.StatBatch([]string{"k00"}); got[0] != 64 {
			t.Fatalf("StatBatch(k00) = %d before a read, want 64: the footer lists it", got[0])
		}
		if _, ok := r.Get("k00"); ok {
			t.Fatal("Get served the corrupt record")
		}
		if r.Len() != 29 {
			t.Fatalf("Len = %d after the read, want 29: only the corrupt record is lost", r.Len())
		}
		for i := 1; i < 30; i++ {
			key := fmt.Sprintf("k%02d", i)
			got, ok := r.Get(key)
			if !ok || !bytes.Equal(got, bytes.Repeat([]byte{byte(i)}, 64)) {
				t.Fatalf("block %s lost to another record's corruption", key)
			}
		}
	})
}

// flipByteAt flips the byte at off of the file at path.
func flipByteAt(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xFF
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
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

// footeredLog writes k00..k(n-1), 64-byte blocks of byte i, into
// 256-byte segments — three 77-byte records a segment, so every segment
// but the last is sealed with a footer after its first 231 bytes — and
// closes the store.
func footeredLog(t *testing.T, n int) string {
	t.Helper()
	dir := t.TempDir()
	s := openStore(t, dir, segstore.Options{SegmentSize: 256})
	for i := 0; i < n; i++ {
		if err := s.Put(fmt.Sprintf("k%02d", i), bytes.Repeat([]byte{byte(i)}, 64)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// footeredRecEnd is where the records of a sealed segment of footeredLog
// end and its footer starts.
const footeredRecEnd = 3 * 77

// contents is every live key of s with the bytes it serves.
func contents(t *testing.T, s *segstore.Store) map[string]string {
	t.Helper()
	got := map[string]string{}
	s.Each(func(key string, _ int64) bool {
		got[key] = ""
		return true
	})
	for key := range got {
		b, ok := s.Get(key)
		if !ok {
			t.Fatalf("%s listed but not served", key)
		}
		got[key] = string(b)
	}
	return got
}

// openDelta opens dir and returns the store with what the open moved of
// the segstore/open.* counters: segments taken from their footers,
// segments scanned and the bytes scanned.
func openDelta(t *testing.T, dir string) (s *segstore.Store, footered, scanned, scannedBytes int64) {
	t.Helper()
	before := obs.Default.Snapshot()
	s = openStore(t, dir, segstore.Options{SegmentSize: 256})
	after := obs.Default.Snapshot()
	moved := func(key string) int64 { return after.Counters[key] - before.Counters[key] }
	if got := after.Hists["segstore/open.latency"].Count - before.Hists["segstore/open.latency"].Count; got != 1 {
		t.Errorf("segstore/open.latency took %d samples, want 1 per Open", got)
	}
	return s, moved("segstore/open.footer_segments"), moved("segstore/open.scanned_segments"), moved("segstore/open.scanned_bytes")
}

// TestFooteredOpenScansOnlyTheActiveSegment pins what footers save: a
// reopen takes every sealed segment's index from its footer and reads
// only the active segment's bytes through the scan.
func TestFooteredOpenScansOnlyTheActiveSegment(t *testing.T) {
	dir := footeredLog(t, 20) // six sealed segments, two records in the active one
	info, err := os.Stat(activeSegment(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	s, footered, scanned, scannedBytes := openDelta(t, dir)
	if footered != 6 || scanned != 1 || scannedBytes != info.Size() {
		t.Fatalf("reopen took %d segments from footers and scanned %d (%d bytes); want 6 and 1 (the active segment's %d bytes)",
			footered, scanned, scannedBytes, info.Size())
	}
	if s.Len() != 20 {
		t.Fatalf("Len = %d, want 20", s.Len())
	}
}

// TestTornFooterFallsBackToScan cuts the footer of a sealed segment at
// every byte offset, and in another pass zeroes it from every offset to
// its end (a power cut that left the file's length but not its last
// pages): each time Open scans that segment, and the index it rebuilds
// is the one the intact footer gives. The torn footer's bytes count as
// dead, as a whole footerless segment does.
func TestTornFooterFallsBackToScan(t *testing.T) {
	dir := footeredLog(t, 9)
	ref := openStore(t, dir, segstore.Options{SegmentSize: 256})
	want, wantStats := contents(t, ref), ref.Stats()
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}
	first := filepath.Join(dir, segFiles(t, dir)[0])
	intact, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	for _, zeroed := range []bool{false, true} {
		for at := footeredRecEnd; at < len(intact); at++ {
			torn := intact[:at]
			if zeroed {
				torn = append(bytes.Clone(torn), make([]byte, len(intact)-at)...)
			}
			if err := os.WriteFile(first, torn, 0o644); err != nil {
				t.Fatal(err)
			}
			s, footered, scanned, _ := openDelta(t, dir)
			if footered != 1 || scanned != 2 {
				t.Fatalf("zeroed=%v, torn at %d: %d segments from footers, %d scanned; want 1 and 2", zeroed, at, footered, scanned)
			}
			if got := contents(t, s); !reflect.DeepEqual(got, want) {
				t.Fatalf("zeroed=%v, torn at %d: the scan rebuilt %d keys, the footer %d", zeroed, at, len(got), len(want))
			}
			st := s.Stats()
			if st.Blocks != wantStats.Blocks || st.LiveBytes != wantStats.LiveBytes || st.TruncatedBytes != 0 ||
				st.DeadBytes != wantStats.DeadBytes+int64(len(torn)-footeredRecEnd) {
				t.Fatalf("zeroed=%v, torn at %d: Stats %+v, want %+v with the %d torn footer bytes dead", zeroed, at, st, wantStats, len(torn)-footeredRecEnd)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestFooteredSegmentMadeLast covers a sealed segment that becomes the
// last one, its newer file's directory entry lost to a power cut: Open
// scans it, cuts its footer as a torn tail, and appends continue behind
// its records; a reopen serves the same index.
func TestFooteredSegmentMadeLast(t *testing.T) {
	dir := footeredLog(t, 9)
	segs := segFiles(t, dir)
	if err := os.Remove(filepath.Join(dir, segs[len(segs)-1])); err != nil {
		t.Fatal(err)
	}
	second := filepath.Join(dir, segs[1])
	info, err := os.Stat(second)
	if err != nil {
		t.Fatal(err)
	}
	s := openStore(t, dir, segstore.Options{SegmentSize: 256})
	if got := s.Stats().TruncatedBytes; got != info.Size()-footeredRecEnd {
		t.Fatalf("TruncatedBytes = %d, want the %d footer bytes", got, info.Size()-footeredRecEnd)
	}
	if after, err := os.Stat(second); err != nil || after.Size() != footeredRecEnd {
		t.Fatalf("the footer of the segment made last was not cut: %v, %v", after, err)
	}
	// The segment is full: this append rotates it, sealing it again.
	if err := s.Put("k09", bytes.Repeat([]byte{9}, 64)); err != nil {
		t.Fatal(err)
	}
	want := contents(t, s)
	if len(want) != 7 {
		t.Fatalf("%d keys served, want k00–k05 and k09", len(want))
	}
	for i := 0; i < 6; i++ {
		if want[fmt.Sprintf("k%02d", i)] != string(bytes.Repeat([]byte{byte(i)}, 64)) {
			t.Fatalf("k%02d lost", i)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, footered, _, _ := openDelta(t, dir)
	if footered != 2 {
		t.Fatalf("%d segments opened from footers, want 2 (the resealed one too)", footered)
	}
	if got := contents(t, r); !reflect.DeepEqual(got, want) || r.Stats().TruncatedBytes != 0 {
		t.Fatalf("reopen serves %d keys (truncated %d), want the %d before it", len(got), r.Stats().TruncatedBytes, len(want))
	}
}

// TestCompactFooteredSegments compacts a log whose sealed segments were
// all opened from their footers, one live record's bytes zeroed under
// an intact footer: Compact copies every other live record, drops the
// zeroed one, and the compacted log reopens to the same index.
func TestCompactFooteredSegments(t *testing.T) {
	dir := footeredLog(t, 12)
	s := openStore(t, dir, segstore.Options{SegmentSize: 256})
	want := map[string]string{}
	for i := 0; i < 12; i++ {
		want[fmt.Sprintf("k%02d", i)] = string(bytes.Repeat([]byte{byte(i)}, 64))
	}
	for i := 0; i < 4; i++ {
		key, data := fmt.Sprintf("k%02d", i), bytes.Repeat([]byte{byte(100 + i)}, 50)
		if err := s.Put(key, data); err != nil {
			t.Fatal(err)
		}
		want[key] = string(data)
	}
	for _, key := range []string{"k04", "k05"} {
		s.Del(key)
		delete(want, key)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// k07 is the second record of the third segment.
	zeroBytes(t, filepath.Join(dir, segFiles(t, dir)[2]), 77, 77)
	delete(want, "k07")

	r, footered, _, _ := openDelta(t, dir)
	if footered < 4 {
		t.Fatalf("only %d segments opened from footers", footered)
	}
	if err := r.Compact(); err != nil {
		t.Fatal(err)
	}
	if r.Dropped() != 1 {
		t.Fatalf("Compact dropped %d records, want the zeroed one", r.Dropped())
	}
	if got := contents(t, r); !reflect.DeepEqual(got, want) {
		t.Fatalf("after Compact %d keys served, want %d", len(got), len(want))
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if got := contents(t, openStore(t, dir, segstore.Options{SegmentSize: 256})); !reflect.DeepEqual(got, want) {
		t.Fatalf("the compacted log reopens to %d keys, want %d", len(got), len(want))
	}
}

// zeroBytes zeroes n bytes at off of the file at path.
func zeroBytes(t *testing.T, path string, off, n int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(make([]byte, n), off); err != nil {
		t.Fatal(err)
	}
}
