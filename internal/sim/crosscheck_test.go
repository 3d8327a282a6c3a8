package sim

import (
	"context"
	"math/rand"
	"testing"

	"aecodes/internal/entangle"
	"aecodes/internal/lattice"
)

// TestCrossCheckSimVsEntangleEngine validates the simulator's
// availability-only repair against the real byte-level repair engine of
// internal/entangle: for identical failure patterns both must reach the
// same fixpoint (same unrepairable data blocks, same repaired counts and
// the same number of rounds). This guards against the two independently
// written implementations drifting apart.
func TestCrossCheckSimVsEntangleEngine(t *testing.T) {
	params := lattice.Params{Alpha: 3, S: 2, P: 5}
	const n = 400
	lat, err := lattice.New(params)
	if err != nil {
		t.Fatal(err)
	}

	for trial := 0; trial < 10; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))

		// One random failure pattern: ~30% of data, ~30% of parities.
		dataDown := make([]bool, n+1)
		parDown := make([][]bool, params.Alpha)
		for ci := range parDown {
			parDown[ci] = make([]bool, n+1)
		}
		for i := 1; i <= n; i++ {
			if rng.Float64() < 0.3 {
				dataDown[i] = true
			}
			for ci := range parDown {
				if rng.Float64() < 0.3 {
					parDown[ci][i] = true
				}
			}
		}

		// Simulator state, built by hand around the pattern.
		st := &aeState{
			lat:        lat,
			n:          n,
			classes:    lat.Classes(),
			dataUsable: make([]bool, n+1),
			parUsable:  make([][]bool, params.Alpha),
		}
		for ci := range st.parUsable {
			st.parUsable[ci] = make([]bool, n+1)
		}
		for i := 1; i <= n; i++ {
			if dataDown[i] {
				st.missData = append(st.missData, i)
			} else {
				st.dataUsable[i] = true
			}
			for ci := range st.parUsable {
				if parDown[ci][i] {
					st.missPar = append(st.missPar, [2]int{ci, i})
				} else {
					st.parUsable[ci][i] = true
				}
			}
		}
		simRounds, simRepaired, _, err := st.repair(false)
		if err != nil {
			t.Fatal(err)
		}

		// Byte-level system with the identical pattern.
		enc, err := entangle.NewEncoder(params, 16)
		if err != nil {
			t.Fatal(err)
		}
		store := entangle.NewMemoryStore(16)
		blockRng := rand.New(rand.NewSource(1000 + int64(trial)))
		for i := 1; i <= n; i++ {
			data := make([]byte, 16)
			blockRng.Read(data)
			ent, err := enc.Entangle(data)
			if err != nil {
				t.Fatal(err)
			}
			if err := store.PutData(bg, i, data); err != nil {
				t.Fatal(err)
			}
			for _, p := range ent.Parities {
				if err := store.PutParity(bg, p.Edge, p.Data); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := 1; i <= n; i++ {
			if dataDown[i] {
				store.LoseData(i)
			}
			for ci, class := range lat.Classes() {
				if parDown[ci][i] {
					e, err := lat.OutEdge(class, i)
					if err != nil {
						t.Fatal(err)
					}
					store.LoseParity(e)
				}
			}
		}
		rep, err := entangle.NewRepairer(params, 16)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := rep.Repair(bg, store, entangle.Options{})
		if err != nil {
			t.Fatal(err)
		}

		// Same fixpoint, same dynamics.
		if got, want := len(st.missData), stats.DataLoss(); got != want {
			t.Errorf("trial %d: sim lost %d data blocks, engine lost %d", trial, got, want)
		}
		if simRepaired != stats.DataRepaired {
			t.Errorf("trial %d: sim repaired %d, engine repaired %d",
				trial, simRepaired, stats.DataRepaired)
		}
		if simRounds != stats.Rounds {
			t.Errorf("trial %d: sim used %d rounds, engine used %d", trial, simRounds, stats.Rounds)
		}
		// Identical residual sets, element by element.
		engineMissing := make(map[int]bool, stats.DataLoss())
		for _, i := range stats.UnrepairedData {
			engineMissing[i] = true
		}
		for _, i := range st.missData {
			if !engineMissing[i] {
				t.Errorf("trial %d: sim failed to repair d%d but the engine repaired it", trial, i)
			}
		}
	}
}

// bg is the context used by tests that do not exercise cancellation.
var bg = context.Background()
