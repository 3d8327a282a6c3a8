package obs

import "testing"

// The record-side cost of the obs primitives, against a private
// registry so the process-global one stays clean. Instrumentation rides
// inside every served op and segstore append, so these are guarded
// hot-path numbers like any other.

func BenchmarkCounterAdd(b *testing.B) {
	c := NewRegistry().Scope("bench").Counter("counter")
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkGaugeAdd(b *testing.B) {
	g := NewRegistry().Scope("bench").Gauge("gauge")
	for i := 0; i < b.N; i++ {
		g.Add(1)
	}
}

func BenchmarkHistogramRecord(b *testing.B) {
	h := NewRegistry().Scope("bench").Histogram("hist")
	for i := 0; i < b.N; i++ {
		h.Record(int64(i))
	}
}

// BenchmarkRecordParallel is the case sharding exists for: every core
// adding to one counter and recording into one histogram at once. With
// working shards its ns/op (wall time per counter add + histogram
// record) stays near the serial cost divided by the cores; contended
// shards multiply it.
func BenchmarkRecordParallel(b *testing.B) {
	sc := NewRegistry().Scope("bench")
	c, h := sc.Counter("counter"), sc.Histogram("hist")
	b.RunParallel(func(pb *testing.PB) {
		var i int64
		for pb.Next() {
			c.Add(1)
			h.Record(i)
			i++
		}
	})
}
