package segstore_test

import (
	"fmt"
	"testing"

	"aecodes/internal/segstore"
)

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
