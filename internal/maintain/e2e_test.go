package maintain_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"aecodes/internal/entangle"
	"aecodes/internal/lattice"
	"aecodes/internal/maintain"
	"aecodes/internal/segstore"
	"aecodes/internal/store"
)

// buildArchive fills a segstore-backed lattice with n entangled blocks
// and returns the data originals by index.
func buildArchive(t *testing.T, seg *segstore.Store, params lattice.Params, n, blockSize int) map[int][]byte {
	t.Helper()
	lat, err := segstore.NewLattice(seg, segstore.Shape{Params: params, Blocks: n, BlockSize: blockSize})
	if err != nil {
		t.Fatal(err)
	}
	enc, err := entangle.NewEncoder(params, blockSize)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	originals := make(map[int][]byte, n)
	for i := 1; i <= n; i++ {
		data := make([]byte, blockSize)
		rng.Read(data)
		originals[i] = data
		ent, err := enc.Entangle(data)
		if err != nil {
			t.Fatal(err)
		}
		blocks := []store.Block{{Ref: store.DataRef(ent.Index), Data: data}}
		for _, p := range ent.Parities {
			blocks = append(blocks, store.Block{Ref: store.ParityRef(p.Edge), Data: p.Data})
		}
		if err := lat.PutMany(context.Background(), blocks); err != nil {
			t.Fatal(err)
		}
	}
	return originals
}

// corruptRecord flips one payload byte of key's record by locating the
// record frame (key length + key) in the segment files.
func corruptRecord(t *testing.T, dir, key string) {
	t.Helper()
	needle := make([]byte, 2+len(key))
	binary.BigEndian.PutUint16(needle, uint16(len(key)))
	copy(needle[2:], key)
	files, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range files {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// The key field sits 8 bytes into its record; take the LAST match
		// so overwrites leave the corruption on the live record.
		at := -1
		for off := bytes.Index(raw, needle); off >= 0; {
			at = off
			next := bytes.Index(raw[off+1:], needle)
			if next < 0 {
				break
			}
			off += 1 + next
		}
		if at < 0 {
			continue
		}
		f, err := os.OpenFile(path, os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		target := int64(at + len(needle) + 7) // a few bytes into the payload
		if _, err := f.WriteAt([]byte{raw[target] ^ 0xFF}, target); err != nil {
			t.Fatal(err)
		}
		f.Close()
		return
	}
	t.Fatalf("record for %q not found in any segment", key)
}

// rottedArchive builds an archive of 40 blocks of 1 KiB, reopens it
// (recovery CRC-checks the log and keeps everything) and rots the data
// records of victims at rest, returning the reopened store and the data
// originals. The rot is still listed present: the store answers
// presence from its index, and nothing has read the records yet.
func rottedArchive(t *testing.T, victims []int) (*segstore.Store, map[int][]byte) {
	t.Helper()
	dir := t.TempDir()
	seg, err := segstore.Open(dir, segstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	originals := buildArchive(t, seg, lattice.Params{Alpha: 3, S: 2, P: 5}, 40, 1024)
	if err := seg.Close(); err != nil {
		t.Fatal(err)
	}
	seg, err = segstore.Open(dir, segstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { seg.Close() })
	for _, i := range victims {
		corruptRecord(t, dir, store.DataRef(i).String())
	}
	for _, i := range victims {
		if !seg.Has(store.DataRef(i).String()) {
			t.Fatalf("d%d unlisted before any read or scrub found its rot", i)
		}
	}
	return seg, originals
}

// healTask is the healing task aestored runs over a segstore lattice.
func healTask(seg *segstore.Store, bucket *maintain.Bucket) *maintain.HealTask {
	return &maintain.HealTask{
		Open: func(ctx context.Context) (maintain.HealTarget, error) {
			lat, err := segstore.OpenLattice(seg)
			if err != nil {
				return nil, err
			}
			rep, err := entangle.NewRepairer(lat.Shape().Params, lat.Shape().BlockSize)
			if err != nil {
				return nil, err
			}
			return maintain.NewStoreTarget(rep, lat, lat.Shape().Blocks), nil
		},
		Opts: entangle.Options{RateLimit: bucket},
	}
}

// runUntilHealed runs sched until the healing task has repaired as many
// blocks as there are victims, checks that every victim then reads back
// its original, and returns the scheduler's stats. It waits on the
// task's count rather than reading the victims: a read of a rotted
// record would itself find the rot.
func runUntilHealed(t *testing.T, sched *maintain.Scheduler, seg *segstore.Store, victims []int, originals map[int][]byte) map[string]maintain.TaskStats {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); sched.Run(ctx) }()

	deadline := time.After(30 * time.Second)
	for sched.Stats()["heal"].Repaired < len(victims) {
		select {
		case <-deadline:
			cancel()
			<-done
			t.Fatalf("scheduler never healed the corruption; stats: %+v", sched.Stats())
		case <-time.After(5 * time.Millisecond):
		}
	}
	cancel()
	<-done
	for _, i := range victims {
		if got, ok := seg.Get(store.DataRef(i).String()); !ok || !bytes.Equal(got, originals[i]) {
			t.Errorf("d%d after healing: ok=%v, equal to the original: %v", i, ok, bytes.Equal(got, originals[i]))
		}
	}
	return sched.Stats()
}

// TestSchedulerHealsAtRestCorruption is the end-to-end maintenance
// contract: bit rot injected on disk after a segstore reopen is caught
// by the scrub (which drops the record, surfacing it as missing) and
// regenerated by the healing task — no client ever calls Repair.
func TestSchedulerHealsAtRestCorruption(t *testing.T) {
	victims := []int{7, 23}
	seg, originals := rottedArchive(t, victims)
	bucket := maintain.NewBucket(16<<20, 0)
	sched := maintain.NewScheduler(maintain.Options{
		Limit:     bucket,
		IdleDelay: time.Millisecond,
	},
		&maintain.ScrubTask{Store: seg, Limit: bucket},
		healTask(seg, bucket),
	)
	stats := runUntilHealed(t, sched, seg, victims, originals)
	if stats["scrub"].Found < len(victims) {
		t.Errorf("scrub found %d corruptions, want >= %d", stats["scrub"].Found, len(victims))
	}
}

// TestHealTaskHealsReadFoundRot is the same damage with no scrub at all:
// a foreground read that meets the rot gets nothing and drops the key,
// which is enough for the healing task alone to regenerate it.
func TestHealTaskHealsReadFoundRot(t *testing.T) {
	victims := []int{7, 23}
	seg, originals := rottedArchive(t, victims)
	for _, i := range victims {
		key := store.DataRef(i).String()
		if _, ok := seg.Get(key); ok {
			t.Fatalf("corrupt record d%d still serves", i)
		}
		if seg.Has(key) {
			t.Fatalf("the read that found d%d corrupt left it listed", i)
		}
	}
	bucket := maintain.NewBucket(16<<20, 0)
	sched := maintain.NewScheduler(maintain.Options{
		Limit:     bucket,
		IdleDelay: time.Millisecond,
	}, healTask(seg, bucket))
	runUntilHealed(t, sched, seg, victims, originals)
}

// TestForegroundLatencyUnderBackgroundHealing guards the tentpole's
// whole point: a rate-limited, pressure-paused healer must not wreck
// foreground write latency. The bound is deliberately loose (a large
// multiple of idle p99, floored in absolute terms) — it catches "healer
// hogs the store for seconds", not scheduler-jitter noise.
func TestForegroundLatencyUnderBackgroundHealing(t *testing.T) {
	if testing.Short() {
		t.Skip("latency guard is wall-clock heavy")
	}
	dir := t.TempDir()
	seg, err := segstore.Open(dir, segstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	params := lattice.Params{Alpha: 3, S: 2, P: 5}
	const n, blockSize = 200, 4096
	buildArchive(t, seg, params, n, blockSize)

	const (
		batches   = 60
		batchSize = 16
	)
	payload := bytes.Repeat([]byte{0x5A}, blockSize)
	foreground := func(round int) []time.Duration {
		lats := make([]time.Duration, 0, batches)
		for b := 0; b < batches; b++ {
			items := make([]store.KV, batchSize)
			for j := range items {
				items[j] = store.KV{Key: fmt.Sprintf("fg/%d/%d/%d", round, b, j), Data: payload}
			}
			start := time.Now()
			if err := seg.PutBatch(items); err != nil {
				t.Fatal(err)
			}
			lats = append(lats, time.Since(start))
			time.Sleep(time.Millisecond) // gaps let maintenance interleave
		}
		return lats
	}
	p99 := func(lats []time.Duration) time.Duration {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		return lats[len(lats)*99/100]
	}

	idle := p99(foreground(0))

	// Damage half the data blocks so healing stays busy, then run the
	// scheduler the way aestored wires it: shared bucket, pressure from
	// in-flight foreground work.
	for i := 1; i <= n; i += 2 {
		seg.Del(store.DataRef(i).String())
	}
	var inflight atomic.Int64
	bucket := maintain.NewBucket(1<<20, 0)
	heal := healTask(seg, bucket)
	heal.Batch = 8
	sched := maintain.NewScheduler(maintain.Options{
		Limit:         bucket,
		Pressure:      func() bool { return inflight.Load() > 0 },
		IdleDelay:     time.Millisecond,
		PressureDelay: time.Millisecond,
	},
		&maintain.ScrubTask{Store: seg, Limit: bucket, Chunk: 64 << 10},
		heal,
	)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); sched.Run(ctx) }()

	active := p99(func() []time.Duration {
		var lats []time.Duration
		for b := 0; b < batches; b++ {
			items := make([]store.KV, batchSize)
			for j := range items {
				items[j] = store.KV{Key: fmt.Sprintf("fg/1/%d/%d", b, j), Data: payload}
			}
			inflight.Add(1)
			start := time.Now()
			err := seg.PutBatch(items)
			lats = append(lats, time.Since(start))
			inflight.Add(-1)
			if err != nil {
				t.Fatal(err)
			}
			time.Sleep(time.Millisecond)
		}
		return lats
	}())
	cancel()
	<-done

	bound := 20 * idle
	if floor := 20 * time.Millisecond; bound < floor {
		bound = floor
	}
	if active > bound {
		t.Fatalf("foreground p99 under healing = %v, bound %v (idle p99 %v); background work is not yielding", active, bound, idle)
	}
	if sched.Stats()["heal"].Repaired == 0 {
		t.Log("note: healer made no progress during the measurement window")
	}
}
