package entangle

import (
	"bytes"
	"math/rand"
	"testing"

	"aecodes/internal/lattice"
)

// damageSystem applies an identical pseudo-random damage pattern to a
// freshly built store.
func damageSystem(t *testing.T, store *MemoryStore, params lattice.Params, n int, seed int64) {
	t.Helper()
	lat, err := lattice.New(params)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 1; i <= n; i++ {
		if rng.Float64() < 0.35 {
			store.LoseData(i)
		}
		for _, class := range lat.Classes() {
			if rng.Float64() < 0.35 {
				e, err := lat.OutEdge(class, i)
				if err != nil {
					t.Fatal(err)
				}
				store.LoseParity(e)
			}
		}
	}
}

// TestConcurrentRepairMatchesSerial verifies that parallel planning is an
// implementation detail: for every worker count the repair reaches the
// same fixpoint, in the same number of rounds, with identical content.
func TestConcurrentRepairMatchesSerial(t *testing.T) {
	params := lattice.Params{Alpha: 3, S: 2, P: 5}
	const n, blockSize = 300, 16

	serialStore, originals := buildSystem(t, params, n, blockSize, 77)
	damageSystem(t, serialStore, params, n, 123)
	r := mustRepairer(t, params)
	serialStats, err := r.Repair(bg, serialStore, Options{})
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{2, 4, 8} {
		store, _ := buildSystem(t, params, n, blockSize, 77)
		damageSystem(t, store, params, n, 123)
		stats, err := r.Repair(bg, store, Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if stats.Rounds != serialStats.Rounds {
			t.Errorf("workers=%d: rounds %d, serial %d", workers, stats.Rounds, serialStats.Rounds)
		}
		if stats.DataRepaired != serialStats.DataRepaired ||
			stats.ParityRepaired != serialStats.ParityRepaired {
			t.Errorf("workers=%d: repaired %d/%d, serial %d/%d", workers,
				stats.DataRepaired, stats.ParityRepaired,
				serialStats.DataRepaired, serialStats.ParityRepaired)
		}
		if stats.DataLoss() != serialStats.DataLoss() {
			t.Errorf("workers=%d: loss %d, serial %d", workers, stats.DataLoss(), serialStats.DataLoss())
		}
		for i := 1; i <= n; i++ {
			got, ok := store.Data(i)
			want, wantOK := serialStore.Data(i)
			if ok != wantOK {
				t.Fatalf("workers=%d: d%d availability diverged", workers, i)
			}
			if ok && !bytes.Equal(got, want) {
				t.Fatalf("workers=%d: d%d content diverged", workers, i)
			}
			if ok && !bytes.Equal(got, originals[i]) {
				t.Fatalf("workers=%d: d%d corrupted", workers, i)
			}
		}
	}
}

// BenchmarkRepairWorkers measures parallel planning speedup on a large
// damaged lattice.
func BenchmarkRepairWorkers(b *testing.B) {
	params := lattice.Params{Alpha: 3, S: 2, P: 5}
	const n, blockSize = 20_000, 1024
	for _, workers := range []int{1, 4, 8} {
		b.Run(map[int]string{1: "serial", 4: "workers4", 8: "workers8"}[workers], func(b *testing.B) {
			enc, err := NewEncoder(params, blockSize)
			if err != nil {
				b.Fatal(err)
			}
			lat := enc.Lattice()
			base := NewMemoryStore(blockSize)
			rng := rand.New(rand.NewSource(1))
			data := make([]byte, blockSize)
			for i := 1; i <= n; i++ {
				rng.Read(data)
				ent, err := enc.Entangle(data)
				if err != nil {
					b.Fatal(err)
				}
				if err := base.PutData(bg, i, data); err != nil {
					b.Fatal(err)
				}
				for _, p := range ent.Parities {
					if err := base.PutParity(bg, p.Edge, p.Data); err != nil {
						b.Fatal(err)
					}
				}
			}
			r, err := NewRepairer(params, blockSize)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dmgRng := rand.New(rand.NewSource(2))
				for pos := 1; pos <= n; pos++ {
					if dmgRng.Float64() < 0.3 {
						base.LoseData(pos)
					}
					for _, class := range lat.Classes() {
						if dmgRng.Float64() < 0.3 {
							e, err := lat.OutEdge(class, pos)
							if err != nil {
								b.Fatal(err)
							}
							base.LoseParity(e)
						}
					}
				}
				b.StartTimer()
				if _, err := r.Repair(bg, base, Options{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
