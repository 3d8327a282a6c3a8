package segstore_test

import (
	"fmt"
	"math"
	"testing"

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

// benchBulkRead runs read (GetBatch or ReadBatch) over the grid against
// one store per record size holding the largest batch, reporting
// allocations: a read that allocates per record shows it.
func benchBulkRead(b *testing.B, read func(s *segstore.Store, keys []string)) {
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
		for i, it := range items {
			keys[i] = it.Key
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
						read(s, batch)
					}
				})
			}
		}
		s.Close()
	}
}

// BenchmarkGetBatch is a repair fetch or an archive window: every record
// pread into its own buffer and CRC-checked.
func BenchmarkGetBatch(b *testing.B) {
	benchBulkRead(b, func(s *segstore.Store, keys []string) { s.GetBatch(keys) })
}

// BenchmarkReadBatch is a node serving GetMany: every record pread into
// its slot of one pooled arena and CRC-checked, then lent to a callback
// that does nothing with it.
func BenchmarkReadBatch(b *testing.B) {
	benchBulkRead(b, func(s *segstore.Store, keys []string) {
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
