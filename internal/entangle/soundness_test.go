package entangle

import (
	"bytes"
	"math/rand"
	"testing"

	"aecodes/internal/lattice"
)

// TestRepairSoundnessAllSettings is the engine's core safety property:
// whatever the damage pattern, repair must never write content that
// differs from the original encoding — partial recovery is acceptable,
// silent corruption is not. Checked across every (α, s, p) family the
// paper evaluates and a range of damage intensities.
func TestRepairSoundnessAllSettings(t *testing.T) {
	settings := []lattice.Params{
		{Alpha: 1, S: 1, P: 0},
		{Alpha: 2, S: 1, P: 1},
		{Alpha: 2, S: 1, P: 3},
		{Alpha: 2, S: 2, P: 2},
		{Alpha: 2, S: 2, P: 5},
		{Alpha: 2, S: 3, P: 4},
		{Alpha: 3, S: 1, P: 1},
		{Alpha: 3, S: 1, P: 4},
		{Alpha: 3, S: 2, P: 2},
		{Alpha: 3, S: 2, P: 5},
		{Alpha: 3, S: 3, P: 3},
		{Alpha: 3, S: 4, P: 4},
		{Alpha: 3, S: 5, P: 5},
		{Alpha: 3, S: 5, P: 7},
	}
	const n, blockSize = 150, 8
	for _, params := range settings {
		t.Run(params.String(), func(t *testing.T) {
			for _, damage := range []float64{0.1, 0.3, 0.5, 0.7} {
				store, originals := buildSystem(t, params, n, blockSize, int64(damage*100))
				// Keep reference parities before damaging anything.
				lat, err := lattice.New(params)
				if err != nil {
					t.Fatal(err)
				}
				type pk struct {
					c    lattice.Class
					l, r int
				}
				refPar := make(map[pk][]byte)
				for i := 1; i <= n; i++ {
					for _, class := range lat.Classes() {
						e, err := lat.OutEdge(class, i)
						if err != nil {
							t.Fatal(err)
						}
						b, ok := store.Parity(e)
						if !ok {
							t.Fatalf("parity %v missing before damage", e)
						}
						cp := make([]byte, len(b))
						copy(cp, b)
						refPar[pk{e.Class, e.Left, e.Right}] = cp
					}
				}

				rng := rand.New(rand.NewSource(int64(damage * 1000)))
				for i := 1; i <= n; i++ {
					if rng.Float64() < damage {
						store.LoseData(i)
					}
					for _, class := range lat.Classes() {
						if rng.Float64() < damage {
							e, err := lat.OutEdge(class, i)
							if err != nil {
								t.Fatal(err)
							}
							store.LoseParity(e)
						}
					}
				}

				if _, err := NewRepairer(params, blockSize); err != nil {
					t.Fatal(err)
				}
				rep := mustRepairer(t, params)
				if _, err := rep.Repair(bg, store, Options{}); err != nil {
					t.Fatal(err)
				}

				// Soundness: every available block matches its original.
				for i := 1; i <= n; i++ {
					if got, ok := store.Data(i); ok && !bytes.Equal(got, originals[i]) {
						t.Fatalf("damage %.0f%%: d%d corrupted by repair", damage*100, i)
					}
					for _, class := range lat.Classes() {
						e, err := lat.OutEdge(class, i)
						if err != nil {
							t.Fatal(err)
						}
						if got, ok := store.Parity(e); ok {
							if !bytes.Equal(got, refPar[pk{e.Class, e.Left, e.Right}]) {
								t.Fatalf("damage %.0f%%: parity %v corrupted by repair", damage*100, e)
							}
						}
					}
				}
			}
		})
	}
}
