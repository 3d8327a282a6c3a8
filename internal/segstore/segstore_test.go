package segstore_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"aecodes/internal/obs"
	"aecodes/internal/segstore"
	"aecodes/internal/store"
	"aecodes/internal/store/storetest"
)

func openStore(t *testing.T, dir string, opts segstore.Options) *segstore.Store {
	t.Helper()
	s, err := segstore.Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func segFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".seg") {
			out = append(out, e.Name())
		}
	}
	return out
}

func TestPutGetDelRoundTrip(t *testing.T) {
	s := openStore(t, t.TempDir(), segstore.Options{})
	if _, ok := s.Get("nope"); ok {
		t.Fatal("empty store served a block")
	}
	if err := s.Put("a", []byte("alpha")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("b", []byte("beta")); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get("a"); !ok || string(got) != "alpha" {
		t.Fatalf("Get(a) = %q, %v", got, ok)
	}
	// Overwrite: last write wins.
	if err := s.Put("a", []byte("alpha2")); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Get("a"); string(got) != "alpha2" {
		t.Fatalf("after overwrite Get(a) = %q", got)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	s.Del("a")
	if _, ok := s.Get("a"); ok {
		t.Fatal("deleted key still served")
	}
	if !s.Has("b") || s.Has("a") {
		t.Fatal("Has disagrees with Get")
	}
	// Deleting a missing key is a no-op.
	s.Del("never-existed")
	if s.Len() != 1 {
		t.Fatalf("Len after deletes = %d, want 1", s.Len())
	}
	// Empty blocks are storable and distinct from missing.
	if err := s.Put("empty", nil); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get("empty"); !ok || len(got) != 0 {
		t.Fatalf("Get(empty) = %v, %v, want empty block", got, ok)
	}
}

func TestRecordValidation(t *testing.T) {
	s := openStore(t, t.TempDir(), segstore.Options{})
	if err := s.Put("", []byte("x")); err == nil {
		t.Error("accepted an empty key")
	}
	if err := s.Put(strings.Repeat("k", segstore.MaxKeyLen+1), []byte("x")); err == nil {
		t.Error("accepted an oversized key")
	}
}

func TestReopenRestoresIndex(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, segstore.Options{})
	blocks := map[string][]byte{}
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("blk-%03d", i)
		data := bytes.Repeat([]byte{byte(i)}, 128)
		blocks[key] = data
		if err := s.Put(key, data); err != nil {
			t.Fatal(err)
		}
	}
	// Overwrites and a tombstone must replay correctly too.
	blocks["blk-007"] = []byte("rewritten")
	if err := s.Put("blk-007", blocks["blk-007"]); err != nil {
		t.Fatal(err)
	}
	s.Del("blk-013")
	delete(blocks, "blk-013")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := openStore(t, dir, segstore.Options{})
	if r.Len() != len(blocks) {
		t.Fatalf("reopened Len = %d, want %d", r.Len(), len(blocks))
	}
	if st := r.Stats(); st.TruncatedBytes != 0 {
		t.Fatalf("clean reopen truncated %d bytes", st.TruncatedBytes)
	}
	for key, want := range blocks {
		got, ok := r.Get(key)
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("reopened Get(%s) = %v, %v", key, got, ok)
		}
	}
	if _, ok := r.Get("blk-013"); ok {
		t.Fatal("tombstoned key resurrected by reopen")
	}
}

func TestRotation(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, segstore.Options{SegmentSize: 256})
	for i := 0; i < 40; i++ {
		if err := s.Put(fmt.Sprintf("k%02d", i), bytes.Repeat([]byte{byte(i)}, 64)); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Segments < 5 {
		t.Fatalf("Segments = %d after 40 puts with 256-byte segments, want several", st.Segments)
	}
	if got := len(segFiles(t, dir)); got != st.Segments {
		t.Fatalf("%d .seg files on disk, Stats says %d", got, st.Segments)
	}
	for i := 0; i < 40; i++ {
		got, ok := s.Get(fmt.Sprintf("k%02d", i))
		if !ok || !bytes.Equal(got, bytes.Repeat([]byte{byte(i)}, 64)) {
			t.Fatalf("Get(k%02d) across rotated segments = %v, %v", i, got, ok)
		}
	}
	// A record larger than the segment size must still be accepted.
	big := bytes.Repeat([]byte{0xBB}, 1024)
	if err := s.Put("big", big); err != nil {
		t.Fatalf("oversized-for-segment record rejected: %v", err)
	}
	if got, ok := s.Get("big"); !ok || !bytes.Equal(got, big) {
		t.Fatal("oversized-for-segment record not served back")
	}
}

func TestCompact(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, segstore.Options{SegmentSize: 512})
	content := func(i, gen int) []byte {
		return bytes.Repeat([]byte{byte(i), byte(gen)}, 50)
	}
	for i := 0; i < 20; i++ {
		if err := s.Put(fmt.Sprintf("k%02d", i), content(i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	// Overwrite everything (doubling the log) and delete a quarter.
	for i := 0; i < 20; i++ {
		if err := s.Put(fmt.Sprintf("k%02d", i), content(i, 1)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i += 4 {
		s.Del(fmt.Sprintf("k%02d", i))
	}
	before := s.Stats()
	if before.DeadBytes == 0 {
		t.Fatal("overwrites produced no dead bytes")
	}
	if err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	after := s.Stats()
	if after.Segments >= before.Segments {
		t.Fatalf("Compact kept %d segments (was %d)", after.Segments, before.Segments)
	}
	if after.DeadBytes >= before.DeadBytes {
		t.Fatalf("Compact left DeadBytes %d (was %d)", after.DeadBytes, before.DeadBytes)
	}
	verify := func(s *segstore.Store, label string) {
		t.Helper()
		for i := 0; i < 20; i++ {
			key := fmt.Sprintf("k%02d", i)
			got, ok := s.Get(key)
			if i%4 == 0 {
				if ok {
					t.Fatalf("%s: deleted %s resurrected", label, key)
				}
				continue
			}
			if !ok || !bytes.Equal(got, content(i, 1)) {
				t.Fatalf("%s: Get(%s) = %v, %v, want generation 1", label, key, got, ok)
			}
		}
	}
	verify(s, "after compact")
	// Durability of the compacted state: reopen and verify again.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := openStore(t, dir, segstore.Options{SegmentSize: 512})
	verify(r, "after compact+reopen")
	// Compacting a store with nothing sealed is a harmless no-op.
	if err := r.Compact(); err != nil {
		t.Fatal(err)
	}
	verify(r, "after idle compact")
}

func TestBatchOps(t *testing.T) {
	s := openStore(t, t.TempDir(), segstore.Options{SegmentSize: 256})
	items := []store.KV{
		{Key: "x", Data: []byte("ex")},
		{Key: "y", Data: []byte("why")},
		{Key: "z", Data: nil},
	}
	if err := s.PutBatch(items); err != nil {
		t.Fatal(err)
	}
	got := s.GetBatch([]string{"x", "missing", "z", "y"})
	if len(got) != 4 {
		t.Fatalf("GetBatch returned %d entries, want 4", len(got))
	}
	if string(got[0]) != "ex" || string(got[3]) != "why" {
		t.Fatalf("GetBatch content wrong: %q %q", got[0], got[3])
	}
	if got[1] != nil {
		t.Fatal("missing key came back non-nil")
	}
	if got[2] == nil || len(got[2]) != 0 {
		t.Fatal("stored empty block must be non-nil empty, distinguishing it from missing")
	}
	// A batch with an invalid entry is rejected before anything is written.
	bad := []store.KV{{Key: "", Data: []byte("x")}}
	if err := s.PutBatch(bad); err == nil {
		t.Fatal("PutBatch accepted an empty key")
	}
}

// TestPutBatchSpansWriteWindows pins the batch append across its write
// windows: one batch of records both larger and smaller than a window
// (1 MiB, 64 KiB and 7-byte blocks, 3 MiB in all) lands byte-exact, and
// a reopen — which re-reads and CRC-checks every record — finds the same.
func TestPutBatchSpansWriteWindows(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, segstore.Options{})
	var items []store.KV
	for i, size := range []int{1 << 20, 7, 64 << 10, 64 << 10, 1 << 20, 300 << 10, 7, 64 << 10, 512 << 10} {
		data := make([]byte, size)
		for j := range data {
			data[j] = byte(i*31 + j*7 + j>>8)
		}
		items = append(items, store.KV{Key: fmt.Sprintf("k%d", i), Data: data})
	}
	if err := s.PutBatch(items); err != nil {
		t.Fatal(err)
	}
	check := func(s *segstore.Store, when string) {
		t.Helper()
		for _, it := range items {
			got, ok := s.Get(it.Key)
			if !ok || !bytes.Equal(got, it.Data) {
				t.Fatalf("%s: %s (%d bytes) came back ok=%v, %d bytes", when, it.Key, len(it.Data), ok, len(got))
			}
		}
	}
	check(s, "after PutBatch")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	check(openStore(t, dir, segstore.Options{}), "after reopen")
}

// TestStoreKeyedContract runs the store.Keyed conformance suite over the
// segment store, with segments small enough that the suite's batches
// cross a rotation.
func TestStoreKeyedContract(t *testing.T) {
	storetest.RunKeyed(t, func(t *testing.T) store.Keyed {
		return openStore(t, t.TempDir(), segstore.Options{SegmentSize: 64})
	})
}

func TestConcurrentPutGet(t *testing.T) {
	s := openStore(t, t.TempDir(), segstore.Options{SegmentSize: 4096})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("w%d-%d", w, i)
				data := bytes.Repeat([]byte{byte(w), byte(i)}, 20)
				if err := s.Put(key, data); err != nil {
					t.Errorf("Put(%s): %v", key, err)
					return
				}
				got, ok := s.Get(key)
				if !ok || !bytes.Equal(got, data) {
					t.Errorf("Get(%s) after Put = %v, %v", key, got, ok)
					return
				}
				if i%10 == 0 {
					s.Del(key)
				}
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != 8*45 {
		t.Fatalf("Len = %d, want %d", s.Len(), 8*45)
	}
}

func TestClosedStoreRefusesWork(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, segstore.Options{})
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal("Close is not idempotent")
	}
	if err := s.Put("k2", []byte("v")); err == nil {
		t.Fatal("Put on closed store succeeded")
	}
	if _, ok := s.Get("k"); ok {
		t.Fatal("Get on closed store succeeded")
	}
}

// TestForeignFilesIgnored pins that non-segment files in the data
// directory (editor droppings, manifests) neither break open nor get
// deleted by compaction.
func TestForeignFilesIgnored(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "README"), []byte("hands off"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "notanumber.seg"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := openStore(t, dir, segstore.Options{SegmentSize: 128})
	for i := 0; i < 10; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), []byte("data")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "README")); err != nil {
		t.Fatal("compaction removed a foreign file")
	}
	if _, err := os.Stat(filepath.Join(dir, "notanumber.seg")); err != nil {
		t.Fatal("compaction removed a non-segment .seg file")
	}
}

// TestSecondOpenRefused pins the single-writer lock: a second Open on a
// directory already held by a live store fails instead of interleaving
// appends with it. (flock dies with its holder, so crash-restart is
// unaffected — the SIGKILL integration test covers that side.)
func TestSecondOpenRefused(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, segstore.Options{})
	if _, err := segstore.Open(dir, segstore.Options{}); err == nil {
		t.Fatal("second Open on a held directory succeeded")
	}
	// Releasing the first store frees the directory.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := segstore.Open(dir, segstore.Options{})
	if err != nil {
		t.Fatalf("reopen after Close: %v", err)
	}
	r.Close()
}

// TestStatBatchAgreesWithGetBatch pins the presence probe: same
// availability view as GetBatch (including CRC verification), plus the
// block length, without materializing content.
func TestStatBatchAgreesWithGetBatch(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, segstore.Options{})
	if err := s.Put("a", []byte("alpha")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("empty", nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("corrupt", bytes.Repeat([]byte{7}, 64)); err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte of the "corrupt" record on disk.
	seg := activeSegment(t, dir)
	f, err := os.OpenFile(seg, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	info, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xFF}, info.Size()-1); err != nil {
		t.Fatal(err)
	}
	f.Close()

	keys := []string{"a", "empty", "missing", "corrupt"}
	sizes := s.StatBatch(keys)
	blocks := s.GetBatch(keys)
	want := []int{5, 0, -1, -1}
	for i, key := range keys {
		if sizes[i] != want[i] {
			t.Errorf("StatBatch[%s] = %d, want %d", key, sizes[i], want[i])
		}
		if (sizes[i] >= 0) != (blocks[i] != nil) {
			t.Errorf("StatBatch and GetBatch disagree on %s: size %d, block %v", key, sizes[i], blocks[i])
		}
	}
}

// TestStatBatchIsObserved pins that the enumeration probe shows up in the
// registry like every other store.Keyed method: it preads whole records,
// and a repair run's one sweep of the keyspace is otherwise invisible.
func TestStatBatchIsObserved(t *testing.T) {
	s := openStore(t, t.TempDir(), segstore.Options{})
	payload := bytes.Repeat([]byte{3}, 100)
	for _, key := range []string{"a", "b", "c"} {
		if err := s.Put(key, payload); err != nil {
			t.Fatal(err)
		}
	}
	before := obs.Default.Snapshot()
	s.StatBatch([]string{"a", "b", "c", "missing"})
	after := obs.Default.Snapshot()

	if got := after.Counters["segstore/stat.keys"] - before.Counters["segstore/stat.keys"]; got != 4 {
		t.Errorf("segstore/stat.keys moved by %d, want 4 (every key asked about)", got)
	}
	// Three records read, header and key included.
	if got := after.Counters["segstore/stat.bytes"] - before.Counters["segstore/stat.bytes"]; got <= 3*int64(len(payload)) {
		t.Errorf("segstore/stat.bytes moved by %d, want > %d (whole records of the 3 present keys)", got, 3*len(payload))
	}
	if got := after.Hists["segstore/stat.latency"].Count - before.Hists["segstore/stat.latency"].Count; got != 1 {
		t.Errorf("segstore/stat.latency took %d samples, want 1 per call", got)
	}
}

// TestAutoCompactionOnDeadRatio pins the Options.CompactRatio trigger:
// churning overwrites across several rotations accumulates dead bytes in
// sealed segments until the ratio crosses the threshold, at which point
// the store compacts itself mid-serve — live data intact, dead share
// back under the ratio, old sealed files gone.
func TestAutoCompactionOnDeadRatio(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, segstore.Options{SegmentSize: 512, CompactRatio: 0.5})
	payload := func(round int) []byte {
		return bytes.Repeat([]byte{byte('a' + round)}, 100)
	}
	// Overwrite the same small key set over and over: every superseded
	// record in a sealed segment is dead weight.
	const rounds = 20
	for round := 0; round < rounds; round++ {
		for k := 0; k < 4; k++ {
			if err := s.Put(fmt.Sprintf("k%d", k), payload(round)); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := s.Stats()
	physical := int64(0)
	for _, name := range segFiles(t, dir) {
		info, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		physical += info.Size()
	}
	if physical == 0 || float64(st.DeadBytes)/float64(physical) >= 0.5 {
		t.Fatalf("auto-compaction never held the dead ratio: %d dead of %d physical bytes across %d segments",
			st.DeadBytes, physical, st.Segments)
	}
	// A churn this size crosses 512-byte segments many times over; had
	// no compaction run, nearly every sealed segment would be dead.
	if st.Segments > 6 {
		t.Fatalf("store kept %d segments; auto-compaction is not reclaiming", st.Segments)
	}
	// Live data intact after however many in-line compactions ran.
	for k := 0; k < 4; k++ {
		got, ok := s.Get(fmt.Sprintf("k%d", k))
		if !ok || !bytes.Equal(got, payload(rounds-1)) {
			t.Fatalf("k%d lost or stale after auto-compaction (ok=%v)", k, ok)
		}
	}
	// And the compacted log replays identically.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openStore(t, dir, segstore.Options{SegmentSize: 512})
	for k := 0; k < 4; k++ {
		got, ok := s2.Get(fmt.Sprintf("k%d", k))
		if !ok || !bytes.Equal(got, payload(rounds-1)) {
			t.Fatalf("k%d wrong after reopening a compacted log (ok=%v)", k, ok)
		}
	}
}

// TestDeadBytesIncrementalAgreesWithCompact pins the incremental
// dead-bytes accounting: Stats' number equals what a Compact call
// actually reclaims, and deletes in sealed segments count.
func TestDeadBytesIncrementalAgreesWithCompact(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, segstore.Options{SegmentSize: 256})
	for i := 0; i < 12; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), bytes.Repeat([]byte{1}, 64)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 6; i++ {
		s.Del(fmt.Sprintf("k%d", i))
	}
	if err := s.Put("k3", bytes.Repeat([]byte{2}, 64)); err != nil { // resurrect one
		t.Fatal(err)
	}
	dead := s.Stats().DeadBytes
	if dead == 0 {
		t.Fatal("churn left no dead bytes in sealed segments")
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	// Compaction reclaims what Stats promised. Rotations during the
	// re-append can seal the previously active segment, turning its
	// tombstones into fresh (small) dead weight — so the bound is "far
	// less than before", not zero.
	if after := s.Stats().DeadBytes; after >= dead/2 {
		t.Fatalf("DeadBytes = %d after Compact, want well under the %d reclaimed", after, dead)
	}
	for i := 0; i < 12; i++ {
		_, ok := s.Get(fmt.Sprintf("k%d", i))
		wantOK := i >= 6 || i == 3
		if ok != wantOK {
			t.Errorf("k%d present=%v after compact, want %v", i, ok, wantOK)
		}
	}
}
