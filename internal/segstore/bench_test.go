package segstore_test

import (
	"fmt"
	"math"
	"os"
	"testing"
	"time"

	"aecodes/internal/obs"
	"aecodes/internal/segstore"
	"aecodes/internal/store"
)

// Bulk-call benchmarks: the grid the split floor (bulkFloor) was set
// from. Every point runs twice at the same GOMAXPROCS — "serial" with the
// floor out of reach (one chunk, in line) and "parallel" with the floor
// at one byte (one chunk per core) — over record sizes of 4 KiB, 64 KiB
// and 1 MiB and batches of 128 KiB to 64 MiB of records. Compare with
// -cpu 2 (or more); at -cpu 1 both modes are one chunk.

var (
	bulkRecSizes = []int{4 << 10, 64 << 10, 1 << 20}
	bulkTotals   = []int{128 << 10, 512 << 10, 2 << 20, 8 << 20, 16 << 20, 32 << 20, 64 << 20}
	bulkModes    = []struct {
		name  string
		floor int64
	}{{"serial", math.MaxInt64}, {"parallel", 1}}
)

func sizeName(n int) string {
	if n >= 1<<20 {
		return fmt.Sprintf("%dMiB", n>>20)
	}
	return fmt.Sprintf("%dKiB", n>>10)
}

// bulkItems is total bytes of recSize-byte blocks under keys blk-NNNNNN.
func bulkItems(recSize, total int) []store.KV {
	items := make([]store.KV, total/recSize)
	for i := range items {
		data := make([]byte, recSize)
		for j := range data {
			data[j] = byte(i*131 + j*7)
		}
		items[i] = store.KV{Key: fmt.Sprintf("blk-%06d", i), Data: data}
	}
	return items
}

// benchBulkRead runs read (ReadInto or ReadBatch) over the grid against
// one store per record size holding the largest batch, reporting
// allocations: a read that allocates per record shows it. read is handed
// one caller block of the record size per key, the same ones on every
// iteration, as a reader that recycles its blocks would.
func benchBulkRead(b *testing.B, read func(s *segstore.Store, keys []string, blocks [][]byte)) {
	for _, rec := range bulkRecSizes {
		items := bulkItems(rec, bulkTotals[len(bulkTotals)-1])
		s, err := segstore.Open(b.TempDir(), segstore.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if err := s.PutBatch(items); err != nil {
			b.Fatal(err)
		}
		keys := make([]string, len(items))
		blocks := make([][]byte, len(items))
		for i, it := range items {
			keys[i] = it.Key
			blocks[i] = make([]byte, rec)
		}
		for _, total := range bulkTotals {
			if total < 2*rec {
				continue // one record: nothing to split
			}
			for _, mode := range bulkModes {
				b.Run(fmt.Sprintf("rec=%s/total=%s/%s", sizeName(rec), sizeName(total), mode.name), func(b *testing.B) {
					old := segstore.SetBulkFloor(mode.floor)
					defer segstore.SetBulkFloor(old)
					batch := keys[:total/rec]
					b.SetBytes(int64(total))
					b.ReportAllocs()
					b.ResetTimer()
					for n := 0; n < b.N; n++ {
						read(s, batch, blocks[:len(batch)])
					}
				})
			}
		}
		s.Close()
	}
}

// BenchmarkReadInto is a repair fetch or an archive window over a
// Lattice: every record preadv'd — its payload straight into the
// caller's block — and CRC-checked.
func BenchmarkReadInto(b *testing.B) {
	benchBulkRead(b, func(s *segstore.Store, keys []string, blocks [][]byte) { s.ReadInto(keys, blocks) })
}

// BenchmarkReadBatch is a node serving GetMany: every record pread into
// its slot of one pooled arena and CRC-checked, then lent to a callback
// that does nothing with it.
func BenchmarkReadBatch(b *testing.B) {
	benchBulkRead(b, func(s *segstore.Store, keys []string, _ [][]byte) {
		s.ReadBatch(keys, func([][]byte) error { return nil })
	})
}

// BenchmarkAppendAcrossRotations appends 1 MiB records into 16 MiB
// segments, closing the store inside the timed region: every 16th append
// rotates, so all but the first rotation find a seal job in flight, and
// Close waits for the last one — the same bytes are flushed whether the
// seal runs beside the appends or in line. 48 records per iteration
// (three rotations) even at -benchtime 1x, CI's smoke setting.
func BenchmarkAppendAcrossRotations(b *testing.B) {
	const (
		recSize = 1 << 20
		perIter = 48
	)
	data := make([]byte, recSize)
	for i := range data {
		data[i] = byte(i * 7)
	}
	b.SetBytes(perIter * recSize)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		s, err := segstore.Open(b.TempDir(), segstore.Options{SegmentSize: 16 << 20})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for i := 0; i < perIter; i++ {
			if err := s.Put(fmt.Sprintf("blk-%04d", i), data); err != nil {
				b.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPutBatch appends batches of 128 fresh keys of 64 KiB: a
// durable node's PutMany, a repair round's commit. p99-ns and p999-ns
// are per-batch tails from an obs histogram. Every 16 batches (128 MiB)
// the store is replaced by a fresh one outside the timer, so the
// benchmark's disk use stays bounded.
func BenchmarkPutBatch(b *testing.B) {
	const (
		blocks, recSize = 128, 64 << 10
		perStore        = 16
	)
	data := bulkItems(recSize, blocks*recSize)
	batches := make([][]store.KV, perStore)
	for n := range batches {
		batches[n] = make([]store.KV, blocks)
		for i, it := range data {
			batches[n][i] = store.KV{Key: fmt.Sprintf("b%02d-%s", n, it.Key), Data: it.Data}
		}
	}
	dir := b.TempDir()
	var s *segstore.Store
	lat := obs.NewHistogram()
	b.SetBytes(blocks * recSize)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if n%perStore == 0 {
			b.StopTimer()
			if s != nil {
				if err := s.Close(); err != nil {
					b.Fatal(err)
				}
				if err := os.RemoveAll(dir); err != nil {
					b.Fatal(err)
				}
			}
			var err error
			if s, err = segstore.Open(dir, segstore.Options{}); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		start := time.Now()
		if err := s.PutBatch(batches[n%perStore]); err != nil {
			b.Fatal(err)
		}
		lat.Record(time.Since(start).Nanoseconds())
	}
	b.StopTimer()
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	snap := lat.Snapshot()
	b.ReportMetric(snap.P99(), "p99-ns")
	b.ReportMetric(snap.P999(), "p999-ns")
}

// BenchmarkReadDuringAppend is a node serving a 2-record GetMany of
// 64 KiB blocks while a writer appends beside it: 1 MiB batches of 64 KiB
// records into 64 MiB segments, each rotation's seal fsyncing for real.
// p99-ns and p999-ns are the reads' tails, which show what a read waits
// behind: an index update, or — when the writers' lock is the readers'
// too — a whole write syscall or fsync. A store takes 128 MiB of appends
// (two rotations) and is then replaced outside the timer, so the
// benchmark's disk use stays bounded.
func BenchmarkReadDuringAppend(b *testing.B) {
	const (
		recSize   = 64 << 10
		batchRecs = 16  // 1 MiB a batch
		perStore  = 128 // batches a store takes
	)
	data := bulkItems(recSize, 2*recSize)
	batches := make([][]store.KV, perStore)
	for n := range batches {
		batches[n] = make([]store.KV, batchRecs)
		for i := range batches[n] {
			batches[n][i] = store.KV{Key: fmt.Sprintf("w%03d-%02d", n, i), Data: data[i%2].Data}
		}
	}
	keys := []string{data[0].Key, data[1].Key}
	dir := b.TempDir()
	var (
		s       *segstore.Store
		stop    chan struct{}
		written chan error // the writer's result, once it has stopped
	)
	// start opens a fresh store holding the two read records and starts
	// the writer on it; finish stops the writer and removes the store.
	start := func() {
		var err error
		if s, err = segstore.Open(dir, segstore.Options{}); err != nil {
			b.Fatal(err)
		}
		if err := s.PutBatch(data); err != nil {
			b.Fatal(err)
		}
		stop, written = make(chan struct{}), make(chan error, 1)
		go func(s *segstore.Store, stop <-chan struct{}, written chan<- error) {
			for _, batch := range batches {
				select {
				case <-stop:
					written <- nil
					return
				default:
				}
				if err := s.PutBatch(batch); err != nil {
					written <- err
					return
				}
			}
			written <- nil
		}(s, stop, written)
	}
	finish := func() {
		close(stop)
		if err := <-written; err != nil {
			b.Fatal(err)
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
		if err := os.RemoveAll(dir); err != nil {
			b.Fatal(err)
		}
	}
	lat := obs.NewHistogram()
	noop := func([][]byte) error { return nil }
	start()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if len(written) > 0 { // the writer is through this store: start the next
			b.StopTimer()
			finish()
			start()
			b.StartTimer()
		}
		t0 := time.Now()
		if err := s.ReadBatch(keys, noop); err != nil {
			b.Fatal(err)
		}
		lat.Record(time.Since(t0).Nanoseconds())
	}
	b.StopTimer()
	finish()
	snap := lat.Snapshot()
	b.ReportMetric(snap.P99(), "p99-ns")
	b.ReportMetric(snap.P999(), "p999-ns")
}

// BenchmarkOpen reopens a log of 16 sealed segments of 4 MiB, written in
// 64 KiB records, plus an active one holding a single record: "footered"
// rebuilds the sealed segments' index from their footers, "scanned"
// opens the same directory reading and checksumming every record, as a
// log without footers opens. MB/s is log bytes per second of Open.
func BenchmarkOpen(b *testing.B) {
	const (
		recSize = 64 << 10
		segSize = 4 << 20
		perSeg  = segSize / (recSize + 20) // records with a 20-byte framing and key
		records = 16*perSeg + 1
	)
	dir := b.TempDir()
	s, err := segstore.Open(dir, segstore.Options{SegmentSize: segSize})
	if err != nil {
		b.Fatal(err)
	}
	if err := s.PutBatch(bulkItems(recSize, records*recSize)); err != nil {
		b.Fatal(err)
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name    string
		footers bool
	}{{"footered", true}, {"scanned", false}} {
		b.Run(mode.name, func(b *testing.B) {
			defer segstore.SetFooters(segstore.SetFooters(mode.footers))
			b.SetBytes(records * (recSize + 20))
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				s, err := segstore.Open(dir, segstore.Options{SegmentSize: segSize})
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if got := s.Stats(); got.Segments != 17 || got.Blocks != records {
					b.Fatalf("reopened %d segments holding %d blocks, want 17 and %d", got.Segments, got.Blocks, records)
				}
				s.Close()
				b.StartTimer()
			}
		})
	}
}
