package segstore

// Tests of the bulk path (runChunks): split calls return exactly what
// the one-chunk path returns, and split reads stay safe beside writes,
// deletes and compaction.

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"aecodes/internal/obs"
	"aecodes/internal/store"
)

func mustOpen(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// withBulk runs fn with bulkFloor and GOMAXPROCS set, restoring both.
func withBulk(floor int64, procs int, fn func()) {
	oldFloor, oldProcs := bulkFloor, runtime.GOMAXPROCS(procs)
	bulkFloor = floor
	defer func() {
		bulkFloor = oldFloor
		runtime.GOMAXPROCS(oldProcs)
	}()
	fn()
}

func TestRunChunksSplitsContiguously(t *testing.T) {
	sizes := []int64{0, 5, 1, 1, 20, 0, 3, 3, 3, 3, 1, 7, 0}
	var total int64
	for _, n := range sizes {
		total += n
	}
	for _, tc := range []struct {
		floor      int64
		procs      int
		wantChunks int
	}{
		{total + 1, 4, 1},     // below the floor: one chunk, in line
		{total, 1, 1},         // one core: one chunk
		{total, 4, 2},         // at the floor: two chunks of ≥ floor/2
		{total / 2, 4, 4},     // one chunk per core
		{1, 64, len(sizes)},   // never more chunks than items
		{math.MaxInt64, 4, 1}, // the floor as high as it goes
	} {
		var mu sync.Mutex
		var got [][2]int
		withBulk(tc.floor, tc.procs, func() {
			runChunks(len(sizes), func(i int) int64 { return sizes[i] }, func(lo, hi int) {
				mu.Lock()
				got = append(got, [2]int{lo, hi})
				mu.Unlock()
			})
		})
		if len(got) != tc.wantChunks {
			t.Errorf("floor %d procs %d: %d chunks, want %d", tc.floor, tc.procs, len(got), tc.wantChunks)
		}
		sort.Slice(got, func(a, b int) bool { return got[a][0] < got[b][0] || (got[a][0] == got[b][0] && got[a][1] < got[b][1]) })
		next := 0
		for _, c := range got {
			if c[0] != next || c[1] < c[0] {
				t.Fatalf("floor %d procs %d: chunks %v are not a contiguous cover of [0, %d)", tc.floor, tc.procs, got, len(sizes))
			}
			next = c[1]
		}
		if next != len(sizes) {
			t.Fatalf("floor %d procs %d: chunks %v stop at %d of %d", tc.floor, tc.procs, got, next, len(sizes))
		}
	}
}

// bulkFixture fills a store that rotates every 64 KiB with records of
// 0–20 KiB — some superseded, some deleted, some later corrupted at
// rest — and returns every key it ever wrote.
func bulkFixture(t *testing.T, rng *rand.Rand) (*Store, []string) {
	t.Helper()
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{SegmentSize: 64 << 10})
	var keys []string
	for i := 0; i < 120; i++ {
		key := fmt.Sprintf("blk-%03d", i)
		keys = append(keys, key)
		size := rng.Intn(20 << 10)
		if i%11 == 0 {
			size = 0
		}
		data := make([]byte, size)
		rng.Read(data)
		if err := s.Put(key, data); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 30; i++ { // overwrites leave dead records behind
		key := keys[rng.Intn(len(keys))]
		data := make([]byte, rng.Intn(20<<10))
		rng.Read(data)
		if err := s.Put(key, data); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		s.Del(keys[rng.Intn(len(keys))])
	}
	if segs := s.Stats().Segments; segs < 3 {
		t.Fatalf("fixture spans %d segments, want sealed ones beside the active one", segs)
	}
	// Corrupt records at rest: flip one byte inside a few live records
	// and a few random bytes anywhere in the log.
	s.mu.RLock()
	locs := make([]recordLoc, 0, len(s.index))
	for _, key := range keys {
		if loc, ok := s.index[key]; ok {
			locs = append(locs, loc)
		}
	}
	s.mu.RUnlock()
	flip := func(seg uint64, off int64) {
		f, err := os.OpenFile(filepath.Join(dir, fmt.Sprintf("%08d%s", seg, segExt)), os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		var b [1]byte
		if _, err := f.ReadAt(b[:], off); err != nil {
			t.Fatal(err)
		}
		b[0] ^= byte(1 + rng.Intn(255))
		if _, err := f.WriteAt(b[:], off); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		loc := locs[rng.Intn(len(locs))]
		flip(loc.seg, loc.off+rng.Int63n(loc.recLen()))
	}
	for i := 0; i < 4; i++ {
		loc := locs[rng.Intn(len(locs))]
		flip(loc.seg, rng.Int63n(loc.off+loc.recLen()))
	}
	return s, keys
}

// TestBulkReadsMatchSerial is the equivalence property: for random
// batches (missing keys, empty blocks, duplicates, deleted keys, records
// in sealed and active segments, records corrupted at rest) StatBatch,
// ReadInto and ReadBatch return what one Get per key returns — whether
// the batch runs as one chunk or split, on one core or four. A corrupt
// record reads as nil through all of them, and once the Get has dropped
// it, stats -1.
func TestBulkReadsMatchSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	s, keys := bulkFixture(t, rng)
	universe := append(append([]string{}, keys...), "absent-1", "absent-2")

	for trial := 0; trial < 40; trial++ {
		batch := make([]string, 1+rng.Intn(3*len(universe)/2))
		for i := range batch {
			batch[i] = universe[rng.Intn(len(universe))] // duplicates included
		}
		wantSize := make([]int, len(batch))
		wantData := make([][]byte, len(batch))
		for i, key := range batch {
			wantSize[i] = -1
			if b, ok := s.Get(key); ok {
				wantSize[i], wantData[i] = len(b), b
			}
		}
		for _, floor := range []int64{1, 64 << 10, 1 << 20, math.MaxInt64} {
			for _, procs := range []int{1, 4} {
				withBulk(floor, procs, func() {
					sizes := s.StatBatch(batch)
					blocks := ReadSized(s, batch)
					for i, key := range batch {
						if sizes[i] != wantSize[i] {
							t.Fatalf("trial %d floor %d procs %d: StatBatch[%d] (%s) = %d, want %d", trial, floor, procs, i, key, sizes[i], wantSize[i])
						}
						if (blocks[i] == nil) != (wantData[i] == nil) || !bytes.Equal(blocks[i], wantData[i]) {
							t.Fatalf("trial %d floor %d procs %d: ReadInto[%d] (%s) differs from Get", trial, floor, procs, i, key)
						}
					}
					err := s.ReadBatch(batch, func(lent [][]byte) error {
						for i, key := range batch {
							if (lent[i] == nil) != (wantData[i] == nil) || !bytes.Equal(lent[i], wantData[i]) {
								return fmt.Errorf("ReadBatch[%d] (%s) differs from Get", i, key)
							}
						}
						return nil
					})
					if err != nil {
						t.Fatalf("trial %d floor %d procs %d: %v", trial, floor, procs, err)
					}
				})
			}
		}
	}
}

// TestBulkPathsReadTheSameRecords pins the observability half of the
// equivalence: the first sweep drops the fixture's corrupt records and
// counts them in read.dropped; after it, read.bytes moves by the same
// amount whether a sweep runs as one chunk or split, nothing more is
// dropped, and bulk.parallel_bytes moves only on the split path, by the
// batch's record bytes.
func TestBulkPathsReadTheSameRecords(t *testing.T) {
	s, keys := bulkFixture(t, rand.New(rand.NewSource(3)))
	sweep := func(floor int64, procs int) (readBytes, dropped, parallel int64) {
		withBulk(floor, procs, func() {
			before := obs.Default.Snapshot()
			ReadSized(s, keys)
			after := obs.Default.Snapshot()
			readBytes = after.Counters["segstore/read.bytes"] - before.Counters["segstore/read.bytes"]
			dropped = after.Counters["segstore/read.dropped"] - before.Counters["segstore/read.dropped"]
			parallel = after.Counters["segstore/bulk.parallel_bytes"] - before.Counters["segstore/bulk.parallel_bytes"]
		})
		return
	}
	live := s.Len()
	if _, d0, _ := sweep(math.MaxInt64, 1); d0 == 0 || s.Len() != live-int(d0) {
		t.Fatalf("first sweep dropped %d keys and left %d of %d: the fixture's rot went unnoticed", d0, s.Len(), live)
	}
	var records int64
	s.mu.RLock()
	for _, key := range keys {
		if loc, ok := s.index[key]; ok {
			records += loc.recLen()
		}
	}
	s.mu.RUnlock()
	b1, d1, p1 := sweep(math.MaxInt64, 1)
	b4, d4, p4 := sweep(1, 4)
	if b1 == 0 || b4 != b1 {
		t.Errorf("read.bytes moved by %d (one chunk) and %d (split), want equal and nonzero", b1, b4)
	}
	if d1 != 0 || d4 != 0 {
		t.Errorf("read.dropped moved by %d (one chunk) and %d (split) over clean records, want 0", d1, d4)
	}
	if p1 != 0 || p4 != records {
		t.Errorf("bulk.parallel_bytes moved by %d (one chunk) and %d (split), want 0 and %d", p1, p4, records)
	}
}

// TestBulkReadsBesideWritesDeletesAndCompaction races split StatBatch,
// ReadInto and ReadBatch calls against PutBatch across rotations, Del
// and Compact (run it under -race). A read returns a key's old or new
// value, never another key's bytes, and once the store is closed no
// goroutine of the bulk path is left running.
func TestBulkReadsBesideWritesDeletesAndCompaction(t *testing.T) {
	baseline := runtime.NumGoroutine()
	withBulk(4<<10, 4, func() {
		dir := t.TempDir()
		s := mustOpen(t, dir, Options{SegmentSize: 32 << 10})
		const nkeys = 48
		key := func(i int) string { return fmt.Sprintf("key-%02d", i) }
		content := func(k string, version int) []byte {
			return bytes.Repeat([]byte(fmt.Sprintf("%s@%d|", k, version)), 40+version%50)
		}
		valid := func(k string, b []byte) bool {
			head, _, ok := strings.Cut(string(b), "|")
			if !ok || !strings.HasPrefix(head, k+"@") {
				return false
			}
			v, err := strconv.Atoi(strings.TrimPrefix(head, k+"@"))
			return err == nil && bytes.Equal(b, content(k, v))
		}
		all := make([]string, nkeys)
		for i := range all {
			all[i] = key(i)
		}
		stop := make(chan struct{})
		var writers, readers sync.WaitGroup
		for w := 0; w < 2; w++ {
			writers.Add(1)
			go func(w int) {
				defer writers.Done()
				for v := 0; v < 120; v++ {
					var items []store.KV
					for j := 0; j < 6; j++ {
						k := key((v*7 + j*5 + w) % nkeys)
						items = append(items, store.KV{Key: k, Data: content(k, v)})
					}
					if err := s.PutBatch(items); err != nil {
						t.Errorf("PutBatch: %v", err)
						return
					}
					if v%9 == 4 {
						s.Del(items[0].Key)
					}
					if w == 0 && v%30 == 14 {
						if err := s.Compact(); err != nil {
							t.Errorf("Compact: %v", err)
							return
						}
					}
				}
			}(w)
		}
		for r := 0; r < 2; r++ {
			readers.Add(1)
			go func() {
				defer readers.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					blocks := ReadSized(s, all)
					sizes := s.StatBatch(all)
					for i, b := range blocks {
						if b != nil && !valid(all[i], b) {
							t.Errorf("ReadInto(%s) served bytes that are no version of it: %.24q", all[i], b)
							return
						}
						if sizes[i] < -1 {
							t.Errorf("StatBatch(%s) = %d", all[i], sizes[i])
							return
						}
					}
					err := s.ReadBatch(all, func(lent [][]byte) error {
						for i, b := range lent {
							if b != nil && !valid(all[i], b) {
								return fmt.Errorf("ReadBatch(%s) lent bytes that are no version of it: %.24q", all[i], b)
							}
						}
						return nil
					})
					if err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		writers.Wait()
		close(stop)
		readers.Wait()
		if s.Stats().Segments < 2 {
			t.Error("the run did not exercise rotation")
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	})
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines outlived the store (baseline %d)", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReadBatchAllocatesNoRecordBuffers pins the lending read: once the
// pool is warm, ReadBatch of 2 or 256 records of 64 KiB allocates the
// same handful of objects, and well under 1 % of the bytes it reads —
// every record lands in the pooled arena.
func TestReadBatchAllocatesNoRecordBuffers(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts over pooled buffers mean nothing under -race")
	}
	s := mustOpen(t, t.TempDir(), Options{})
	block := make([]byte, 64<<10)
	keys := make([]string, 256)
	items := make([]store.KV, len(keys))
	for i := range keys {
		keys[i] = fmt.Sprintf("blk-%03d", i)
		items[i] = store.KV{Key: keys[i], Data: block}
	}
	if err := s.PutBatch(items); err != nil {
		t.Fatal(err)
	}
	objects := map[int]float64{}
	for _, n := range []int{2, 256} {
		batch := keys[:n]
		read := func() {
			err := s.ReadBatch(batch, func(blocks [][]byte) error {
				for i, b := range blocks {
					if len(b) != len(block) {
						return fmt.Errorf("%s read %d bytes, want %d", batch[i], len(b), len(block))
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		var bytes uint64
		objects[n], bytes = measureAllocs(read)
		if records := uint64(n * len(block)); bytes*100 >= records {
			t.Errorf("reading %d records allocates %d bytes a call, ≥ 1%% of the %d record bytes", n, bytes, records)
		}
	}
	if objects[2] != objects[256] {
		t.Errorf("reading 2 records allocates %v objects, 256 records %v: something is allocated per record", objects[2], objects[256])
	}
}

// TestPutBatchCopiedBytes pins PutBatch's copy budget, read from
// hotpath/copied_bytes around the call: where writevAt hands the
// caller's slices to pwritev the batch copies no payload byte; the
// staging fallback of other platforms copies each block at most once.
func TestPutBatchCopiedBytes(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	items := make([]store.KV, 128)
	for i := range items {
		items[i] = store.KV{Key: fmt.Sprintf("blk-%03d", i), Data: make([]byte, 64<<10)}
	}
	copied := obs.Default.Scope("hotpath").Counter("copied_bytes")
	before := copied.Value()
	if err := s.PutBatch(items); err != nil {
		t.Fatal(err)
	}
	got, budget := copied.Value()-before, int64(0)
	if writevCopies {
		budget = int64(len(items)) << 16
	}
	if got > budget {
		t.Errorf("PutBatch of %d blocks of 64 KiB copied %d bytes, budget %d", len(items), got, budget)
	}
}

// measureAllocs runs fn once to warm the pools, then reports the objects
// one call allocates and the bytes it allocates on average over ten
// calls — both with one P, so every call meets the pool slot the last
// one filled.
func measureAllocs(fn func()) (objects float64, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn()
	objects = testing.AllocsPerRun(20, fn)
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return objects, (after.TotalAlloc - before.TotalAlloc) / runs
}

// corruptRecord flips the last byte of key's live record on disk.
func corruptRecord(t *testing.T, s *Store, key string) {
	t.Helper()
	flipRecordByte(t, s, key, -1)
}

// flipRecordByte flips byte at of key's live record on disk, counted
// from the record's start modulo its length (-1 is the last byte).
func flipRecordByte(t *testing.T, s *Store, key string, at int64) {
	t.Helper()
	s.mu.RLock()
	loc, ok := s.index[key]
	f := s.files[loc.seg]
	s.mu.RUnlock()
	if !ok {
		t.Fatalf("%s has no live record", key)
	}
	var b [1]byte
	off := loc.off + (at%loc.recLen()+loc.recLen())%loc.recLen()
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xFF
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

// TestScrubDropKeepsARewrite pins the scrub's two halves: a key found
// corrupt under the read lock is dropped under the write lock only if
// the index still points at the record that failed, so a Put between
// the check and the drop wins; without one, the drop happens.
func TestScrubDropKeepsARewrite(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	for _, key := range []string{"kept", "rewritten", "rotten"} {
		if err := s.Put(key, bytes.Repeat([]byte(key), 30)); err != nil {
			t.Fatal(err)
		}
	}
	corruptRecord(t, s, "rewritten")
	corruptRecord(t, s, "rotten")

	res, bad := s.scrubVerify("", 0)
	if res.Scanned != 3 || len(bad) != 2 {
		t.Fatalf("verify scanned %d and found %v, want 3 and the two corrupt keys", res.Scanned, bad)
	}
	fresh := []byte("new contents")
	if err := s.Put("rewritten", fresh); err != nil {
		t.Fatal(err)
	}
	if dropped := s.dropCorrupt(bad); !reflect.DeepEqual(dropped, []string{"rotten"}) {
		t.Fatalf("dropped %v, want [rotten]: the rewrite must win", dropped)
	}
	if got, ok := s.Get("rewritten"); !ok || !bytes.Equal(got, fresh) {
		t.Fatalf("rewrite lost to the scrub: ok=%v %q", ok, got)
	}
	if s.Has("rotten") {
		t.Fatal("corrupt key still indexed")
	}
	if got, ok := s.Get("kept"); !ok || !bytes.Equal(got, bytes.Repeat([]byte("kept"), 30)) {
		t.Fatal("clean record lost by the scrub")
	}
}

// TestScrubReadsUnderTheReadLock pins that a scrub step of a clean store
// completes while a foreground reader holds the read lock: its reads no
// longer need the store to itself.
func TestScrubReadsUnderTheReadLock(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	for i := 0; i < 8; i++ {
		if err := s.Put(strconv.Itoa(i), bytes.Repeat([]byte{byte(i)}, 64)); err != nil {
			t.Fatal(err)
		}
	}
	s.mu.RLock()
	done := make(chan ScrubResult, 1)
	go func() { done <- s.ScrubStep("", 0) }()
	select {
	case res := <-done:
		s.mu.RUnlock()
		if res.Scanned != 8 || len(res.Corrupt) != 0 {
			t.Fatalf("scrub beside a reader = %+v, want 8 clean records", res)
		}
	case <-time.After(5 * time.Second):
		s.mu.RUnlock()
		t.Fatal("ScrubStep waited for a reader to leave")
	}
}
