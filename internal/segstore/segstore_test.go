package segstore_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
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
	got := segstore.ReadSized(s, []string{"x", "missing", "z", "y"})
	if len(got) != 4 {
		t.Fatalf("ReadInto returned %d entries, want 4", len(got))
	}
	if string(got[0]) != "ex" || string(got[3]) != "why" {
		t.Fatalf("ReadInto content wrong: %q %q", got[0], got[3])
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

// TestReadersBesideWriter runs readers on every read path beside one
// writer that appends across rotations, deletes and compacts. A value
// names its key and version and is otherwise a function of both, so a
// reader can tell a written value from torn, stale-offset or foreign
// bytes: every read must serve a value the writer had written for that
// key, or nothing. Run under -race it also checks the writer publishes
// what readers resolve only under the readers' lock.
func TestReadersBesideWriter(t *testing.T) {
	const (
		nKeys, rounds = 24, 300
		perRound      = 6
	)
	s := openStore(t, t.TempDir(), segstore.Options{SegmentSize: 16 << 10})
	key := func(k int) string { return fmt.Sprintf("key-%02d", k) }
	value := func(k, v int) []byte {
		b := fmt.Appendf(nil, "%s@%d:", key(k), v)
		for i := 0; i < 200+(k*37+v*11)%300; i++ {
			b = append(b, byte(k*131+v*17+i))
		}
		return b
	}
	var written [nKeys]atomic.Int64 // the newest version put, before it is put
	// check reports a value read for key k that the writer never wrote.
	check := func(path string, k int, got []byte) {
		if got == nil {
			return
		}
		var v int
		if _, err := fmt.Sscanf(string(got), key(k)+"@%d:", &v); err != nil ||
			int64(v) > written[k].Load() || !bytes.Equal(got, value(k, v)) {
			t.Errorf("%s of %s served %d bytes that were never written for it", path, key(k), len(got))
		}
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			names := make([]string, nKeys)
			for k := range names {
				names[k] = key(k)
			}
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				k := (n*7 + r) % nKeys
				got, _ := s.Get(key(k))
				check("Get", k, got)
				s.ReadBatch(names, func(blocks [][]byte) error {
					for k, b := range blocks {
						check("ReadBatch", k, b)
					}
					return nil
				})
				for k, b := range segstore.ReadSized(s, names) {
					check("ReadInto", k, b)
				}
				for k, size := range s.StatBatch(names) {
					if size == 0 || size < -1 {
						t.Errorf("StatBatch of %s = %d", key(k), size)
					}
				}
			}
		}(r)
	}

	final := make(map[int]int) // key → its last version; absent when deleted
	for round := 1; round <= rounds && !t.Failed(); round++ {
		var batch []store.KV
		for j := 0; j < perRound; j++ {
			k := (round*perRound + j*5) % nKeys
			written[k].Store(int64(round))
			batch = append(batch, store.KV{Key: key(k), Data: value(k, round)})
			final[k] = round
		}
		if err := s.PutBatch(batch); err != nil {
			t.Fatal(err)
		}
		if round%5 == 0 {
			k := round % nKeys
			s.Del(key(k))
			delete(final, k)
		}
		if round%40 == 0 {
			if err := s.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	readers.Wait()
	if segs := s.Stats().Segments; segs < 2 {
		t.Fatalf("%d segments: the writer never rotated", segs)
	}
	for k := 0; k < nKeys; k++ {
		got, ok := s.Get(key(k))
		v, live := final[k]
		if ok != live || (live && !bytes.Equal(got, value(k, v))) {
			t.Errorf("%s after the run: present=%v, want present=%v at version %d", key(k), ok, live, v)
		}
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

// TestStatBatchAgreesWithGetBatch pins the presence probe's contract: it
// answers from the index and reads nothing, so it agrees with ReadInto
// on every record except one corrupted at rest that no read has found
// yet — that one stats present until ReadInto returns nil for it, and
// absent from then on.
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
	before := obs.Default.Snapshot()
	sizes := s.StatBatch(keys)
	after := obs.Default.Snapshot()
	if moved := after.Counters["segstore/read.bytes"] - before.Counters["segstore/read.bytes"]; moved != 0 {
		t.Errorf("StatBatch moved segstore/read.bytes by %d: it must read no record", moved)
	}
	blocks := segstore.ReadSized(s, keys)
	for i, want := range []int{5, 0, -1, 64} {
		if sizes[i] != want {
			t.Errorf("StatBatch[%s] = %d, want %d", keys[i], sizes[i], want)
		}
	}
	for i, key := range keys[:3] {
		if (sizes[i] >= 0) != (blocks[i] != nil) {
			t.Errorf("StatBatch and ReadInto disagree on %s: size %d, block %v", key, sizes[i], blocks[i])
		}
	}
	if blocks[3] != nil {
		t.Fatalf("ReadInto served the corrupt record: %v", blocks[3])
	}
	if got := s.StatBatch(keys); got[3] != -1 || got[0] != 5 {
		t.Errorf("after the read found the rot StatBatch = %v, want the corrupt key at -1 and the rest unchanged", got)
	}
}

// TestStatBatchIsObserved pins that the enumeration probe shows up in the
// registry like every other store.Keyed method — one latency sample per
// call and every key asked about — and that a read that finds rot counts
// the key it drops in read.dropped.
func TestStatBatchIsObserved(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, segstore.Options{})
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
	if got := after.Hists["segstore/stat.latency"].Count - before.Hists["segstore/stat.latency"].Count; got != 1 {
		t.Errorf("segstore/stat.latency took %d samples, want 1 per call", got)
	}

	// Rot the last record ("c"): the first read drops it, the second
	// finds nothing to drop.
	seg := activeSegment(t, dir)
	f, err := os.OpenFile(seg, os.O_RDWR, 0)
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
	before = obs.Default.Snapshot()
	if _, ok := s.Get("c"); ok {
		t.Fatal("Get served the corrupt record")
	}
	segstore.ReadSized(s, []string{"a", "c"})
	after = obs.Default.Snapshot()
	if got := after.Counters["segstore/read.dropped"] - before.Counters["segstore/read.dropped"]; got != 1 {
		t.Errorf("segstore/read.dropped moved by %d, want 1 (the corrupt key, once)", got)
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
