package entangle

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"aecodes/internal/lattice"
	"aecodes/internal/store"
)

// mustRepairer returns a repairer for the small blocks (at most 1 KiB)
// the tests entangle: every round they plan fits one window.
func mustRepairer(t *testing.T, params lattice.Params) *Repairer {
	t.Helper()
	r, err := NewRepairer(params, 1<<10)
	if err != nil {
		t.Fatalf("NewRepairer: %v", err)
	}
	return r
}

func TestSingleDataFailureAllSettings(t *testing.T) {
	settings := []lattice.Params{
		{Alpha: 1, S: 1, P: 0},
		{Alpha: 2, S: 1, P: 1},
		{Alpha: 2, S: 2, P: 5},
		{Alpha: 3, S: 2, P: 5},
		{Alpha: 3, S: 5, P: 5},
	}
	for _, params := range settings {
		t.Run(params.String(), func(t *testing.T) {
			store, originals := buildSystem(t, params, 120, 16, 3)
			r := mustRepairer(t, params)
			// Every single data failure is repairable with one XOR of a
			// pp-tuple, anywhere in the lattice.
			for _, i := range []int{1, 2, 7, 60, 119, 120} {
				store.LoseData(i)
				got, err := r.RepairData(bg, store, i)
				if err != nil {
					t.Fatalf("RepairData(%d): %v", i, err)
				}
				if !bytes.Equal(got, originals[i]) {
					t.Errorf("RepairData(%d) content mismatch", i)
				}
				if err := store.PutData(bg, i, got); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

func TestSingleParityFailure(t *testing.T) {
	params := lattice.Params{Alpha: 3, S: 5, P: 5}
	store, _ := buildSystem(t, params, 120, 16, 4)
	r := mustRepairer(t, params)
	lat := r.Lattice()

	// Lose every parity of node 60, one at a time, and repair each from a
	// dp-tuple. Table III walks exactly this flow for p21,26.
	tuples, err := lat.Tuples(60)
	if err != nil {
		t.Fatal(err)
	}
	for _, tup := range tuples {
		for _, e := range []lattice.Edge{tup.In, tup.Out} {
			orig, ok := store.Parity(e)
			if !ok {
				t.Fatalf("parity %v not in store", e)
			}
			want := make([]byte, len(orig))
			copy(want, orig)
			store.LoseParity(e)
			got, err := r.RepairParity(bg, store, e)
			if err != nil {
				t.Fatalf("RepairParity(%v): %v", e, err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("RepairParity(%v) content mismatch", e)
			}
			if err := store.PutParity(bg, e, got); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestRepairDataPrefersAnyAvailableStrand(t *testing.T) {
	// Break the H tuple of a node; the RH and LH tuples must still repair it
	// ("failure patterns that are not tolerated with single entanglements
	// become innocuous", §III.B).
	params := lattice.Params{Alpha: 3, S: 5, P: 5}
	store, originals := buildSystem(t, params, 120, 16, 5)
	r := mustRepairer(t, params)
	lat := r.Lattice()

	const target = 60
	tuples, err := lat.Tuples(target)
	if err != nil {
		t.Fatal(err)
	}
	store.LoseData(target)
	store.LoseParity(tuples[0].In)  // break H in
	store.LoseParity(tuples[1].Out) // break RH out
	got, err := r.RepairData(bg, store, target)
	if err != nil {
		t.Fatalf("RepairData with 2 broken strands: %v", err)
	}
	if !bytes.Equal(got, originals[target]) {
		t.Error("content mismatch when repairing via LH strand")
	}

	// Break the third strand too: now unrepairable in one step.
	store.LoseParity(tuples[2].In)
	if _, err := r.RepairData(bg, store, target); !errors.Is(err, ErrUnrepairable) {
		t.Errorf("RepairData with all strands broken = %v, want ErrUnrepairable", err)
	}
}

func TestRoundRepairBackwardCascade(t *testing.T) {
	// Lose every out-parity of a contiguous run of nodes (data intact).
	// Only the run's right edge is repairable at first (via the dp-tuple of
	// the right endpoint); each round then peels one more layer backwards —
	// a genuinely multi-round recovery with zero data loss.
	params := lattice.Params{Alpha: 3, S: 2, P: 5}
	store, _ := buildSystem(t, params, 300, 16, 6)
	r := mustRepairer(t, params)
	lat := r.Lattice()

	for i := 100; i <= 110; i++ {
		tuples, err := lat.Tuples(i)
		if err != nil {
			t.Fatal(err)
		}
		for _, tup := range tuples {
			store.LoseParity(tup.Out)
		}
	}

	stats, err := r.Repair(bg, store, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.UnrepairedParities) != 0 {
		t.Fatalf("unrepaired parities: %v", stats.UnrepairedParities)
	}
	if stats.DataLoss() != 0 {
		t.Fatalf("data loss = %d, want 0", stats.DataLoss())
	}
	if stats.Rounds < 2 {
		t.Errorf("33 chained parities repaired in %d round(s); expected a multi-round cascade", stats.Rounds)
	}
	if stats.ParityRepaired != 33 {
		t.Errorf("repaired %d parities, want 33", stats.ParityRepaired)
	}
}

func TestContiguousAnnihilationIsClosed(t *testing.T) {
	// The complement of the cascade above: erase a run of nodes AND all
	// their out-parities. Every repair option of every erased block then
	// passes through the erased set (interior in-edges are the previous
	// node's lost out-edges, option-2 dp-tuples hit erased data), so the
	// set is closed and the engine must report it irrecoverable rather
	// than loop. This is the irregular-code behaviour of §V.A: tolerance
	// beyond m failures is high but not arbitrary.
	params := lattice.Params{Alpha: 3, S: 2, P: 5}
	store, _ := buildSystem(t, params, 300, 16, 6)
	r := mustRepairer(t, params)
	lat := r.Lattice()

	for i := 100; i <= 110; i++ {
		store.LoseData(i)
		tuples, err := lat.Tuples(i)
		if err != nil {
			t.Fatal(err)
		}
		for _, tup := range tuples {
			store.LoseParity(tup.Out)
		}
	}

	stats, err := r.Repair(bg, store, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.DataLoss() != 11 {
		t.Fatalf("data loss = %d, want 11 (closed pattern)", stats.DataLoss())
	}
	// The parities whose right endpoint survives the run are repairable
	// (right endpoint's dp-tuple is intact); the rest are locked in.
	if stats.ParityRepaired == 0 {
		t.Error("expected the right-edge parities to be repaired")
	}
	if len(stats.UnrepairedParities) == 0 {
		t.Error("expected interior parities to remain unrepairable")
	}
}

func TestRoundSemanticsTwoRoundCascade(t *testing.T) {
	// Construct a dependency that cannot resolve in one round: lose d_i and
	// every parity adjacent to it. Round 1 repairs the parities that have a
	// dp-tuple via the *other* endpoint; round 2 then rebuilds d_i.
	params := lattice.Params{Alpha: 2, S: 2, P: 5}
	store, originals := buildSystem(t, params, 200, 16, 7)
	r := mustRepairer(t, params)
	lat := r.Lattice()

	const target = 101
	tuples, err := lat.Tuples(target)
	if err != nil {
		t.Fatal(err)
	}
	store.LoseData(target)
	for _, tup := range tuples {
		store.LoseParity(tup.In)
		store.LoseParity(tup.Out)
	}

	stats, err := r.Repair(bg, store, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.DataLoss() != 0 {
		t.Fatalf("data loss = %d, want 0", stats.DataLoss())
	}
	if stats.Rounds != 2 {
		t.Errorf("rounds = %d, want exactly 2 (parities first, then the node)", stats.Rounds)
	}
	if stats.PerRound[0].DataRepaired != 0 {
		t.Errorf("round 1 repaired %d data blocks, want 0", stats.PerRound[0].DataRepaired)
	}
	got, _ := store.Data(target)
	if !bytes.Equal(got, originals[target]) {
		t.Error("content mismatch after cascade repair")
	}
}

func TestPrimitiveFormIUnrecoverable(t *testing.T) {
	// Fig 6 form I: for single entanglements, losing two adjacent nodes and
	// their shared edge (|ME(2)| = 3) is irrecoverable.
	params := lattice.Params{Alpha: 1, S: 1, P: 0}
	store, _ := buildSystem(t, params, 100, 16, 8)
	r := mustRepairer(t, params)

	store.LoseData(50)
	store.LoseData(51)
	store.LoseParity(lattice.Edge{Class: lattice.Horizontal, Left: 50, Right: 51})

	stats, err := r.Repair(bg, store, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.DataLoss() != 2 {
		t.Errorf("data loss = %d, want 2 (primitive form I)", stats.DataLoss())
	}
	if len(stats.UnrepairedParities) != 1 {
		t.Errorf("unrepaired parities = %v, want the shared edge", stats.UnrepairedParities)
	}
}

func TestPrimitiveFormInnocuousForAlpha2(t *testing.T) {
	// §III.B: patterns not tolerated by single entanglements become
	// innocuous when α > 1. Same pattern as above, on AE(2,1,1).
	params := lattice.Params{Alpha: 2, S: 1, P: 1}
	store, originals := buildSystem(t, params, 100, 16, 9)
	r := mustRepairer(t, params)

	store.LoseData(50)
	store.LoseData(51)
	store.LoseParity(lattice.Edge{Class: lattice.Horizontal, Left: 50, Right: 51})

	stats, err := r.Repair(bg, store, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.DataLoss() != 0 {
		t.Fatalf("data loss = %d, want 0 for α=2", stats.DataLoss())
	}
	for _, i := range []int{50, 51} {
		got, ok := store.Data(i)
		if !ok || !bytes.Equal(got, originals[i]) {
			t.Errorf("d%d not correctly recovered", i)
		}
	}
}

func TestComplexFormAUnrecoverableForAlpha2(t *testing.T) {
	// Fig 7 pattern A on AE(2,1,1): two adjacent nodes plus both shared
	// edges (H and RH copies of {i,i+1}) — |ME(2)| = 4 — is irrecoverable.
	params := lattice.Params{Alpha: 2, S: 1, P: 1}
	store, _ := buildSystem(t, params, 100, 16, 10)
	r := mustRepairer(t, params)

	store.LoseData(50)
	store.LoseData(51)
	store.LoseParity(lattice.Edge{Class: lattice.Horizontal, Left: 50, Right: 51})
	store.LoseParity(lattice.Edge{Class: lattice.RightHanded, Left: 50, Right: 51})

	stats, err := r.Repair(bg, store, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.DataLoss() != 2 {
		t.Errorf("data loss = %d, want 2 (complex form A)", stats.DataLoss())
	}
}

func TestDataOnlyRepairLeavesParities(t *testing.T) {
	params := lattice.Params{Alpha: 2, S: 2, P: 5}
	store, _ := buildSystem(t, params, 200, 16, 11)
	r := mustRepairer(t, params)
	lat := r.Lattice()

	store.LoseData(100)
	tup, err := lat.Tuples(150)
	if err != nil {
		t.Fatal(err)
	}
	store.LoseParity(tup[0].Out) // unrelated parity loss

	stats, err := r.Repair(bg, store, Options{DataOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.DataLoss() != 0 {
		t.Errorf("data loss = %d, want 0", stats.DataLoss())
	}
	if stats.ParityRepaired != 0 {
		t.Errorf("DataOnly repaired %d parities, want 0", stats.ParityRepaired)
	}
	if len(stats.UnrepairedParities) != 1 {
		t.Errorf("unrepaired parities = %d, want 1 left behind", len(stats.UnrepairedParities))
	}
}

func TestMaxRoundsCap(t *testing.T) {
	params := lattice.Params{Alpha: 2, S: 2, P: 5}
	store, _ := buildSystem(t, params, 200, 16, 12)
	r := mustRepairer(t, params)
	lat := r.Lattice()

	// Same two-round cascade as above; cap at one round.
	tuples, err := lat.Tuples(101)
	if err != nil {
		t.Fatal(err)
	}
	store.LoseData(101)
	for _, tup := range tuples {
		store.LoseParity(tup.In)
		store.LoseParity(tup.Out)
	}
	stats, err := r.Repair(bg, store, Options{MaxRounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds != 1 {
		t.Errorf("rounds = %d, want 1 (capped)", stats.Rounds)
	}
	if stats.DataLoss() != 1 {
		t.Errorf("data loss = %d, want 1 while capped", stats.DataLoss())
	}
}

func TestRepairStatsFirstRoundShare(t *testing.T) {
	// Isolated single failures: everything repairs in round 1, so the
	// first-round share (Fig 13 numerator) equals the total.
	params := lattice.Params{Alpha: 3, S: 2, P: 5}
	store, _ := buildSystem(t, params, 400, 16, 13)
	r := mustRepairer(t, params)
	for i := 20; i <= 380; i += 40 {
		store.LoseData(i)
	}
	stats, err := r.Repair(bg, store, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds != 1 {
		t.Errorf("rounds = %d, want 1", stats.Rounds)
	}
	if stats.FirstRoundData != stats.DataRepaired || stats.DataRepaired != 10 {
		t.Errorf("first-round=%d total=%d, want 10/10", stats.FirstRoundData, stats.DataRepaired)
	}
}

func TestAuditDetectsTampering(t *testing.T) {
	params := lattice.Params{Alpha: 3, S: 5, P: 5}
	store, originals := buildSystem(t, params, 120, 16, 14)
	r := mustRepairer(t, params)

	const target = 26
	clean, err := r.Audit(bg, store, target)
	if err != nil {
		t.Fatal(err)
	}
	if !clean.Clean() {
		t.Fatal("audit of untouched block reported tampering")
	}
	if clean.CheckedStrands() != 3 {
		t.Errorf("checked %d strands, want 3", clean.CheckedStrands())
	}

	// Flip one bit.
	tampered := make([]byte, len(originals[target]))
	copy(tampered, originals[target])
	tampered[0] ^= 0x01
	if err := store.CorruptData(target, tampered); err != nil {
		t.Fatal(err)
	}
	dirty, err := r.Audit(bg, store, target)
	if err != nil {
		t.Fatal(err)
	}
	if dirty.Clean() {
		t.Error("audit failed to detect a tampered block")
	}
	// Every strand must disagree: the attacker rewrote none of them.
	for class, consistent := range dirty.Consistent {
		if consistent {
			t.Errorf("strand %v still consistent with tampered block", class)
		}
	}
}

func TestAuditUnavailableBlock(t *testing.T) {
	params := lattice.Params{Alpha: 2, S: 2, P: 5}
	store, _ := buildSystem(t, params, 50, 16, 15)
	r := mustRepairer(t, params)
	store.LoseData(10)
	if _, err := r.Audit(bg, store, 10); err == nil {
		t.Error("Audit of unavailable block succeeded, want error")
	}
}

// TestPropertyRandomParityLossAlwaysRecoverable: when only parities are lost
// (all data available), every parity is rebuildable in one round via the
// dp-tuple with its left data block.
func TestPropertyRandomParityLossAlwaysRecoverable(t *testing.T) {
	params := lattice.Params{Alpha: 3, S: 2, P: 5}
	const n = 150
	prop := func(seed int64, lossPct uint8) bool {
		store, _ := buildSystemQuick(params, n, 8, seed)
		r, err := NewRepairer(params, 8)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		frac := float64(lossPct%90) / 100
		lat := r.Lattice()
		for i := 1; i <= n; i++ {
			tuples, err := lat.Tuples(i)
			if err != nil {
				return false
			}
			for _, tup := range tuples {
				if rng.Float64() < frac {
					store.LoseParity(tup.Out)
				}
			}
		}
		stats, err := r.Repair(bg, store, Options{})
		if err != nil {
			return false
		}
		return len(stats.UnrepairedParities) == 0 && stats.DataLoss() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestPropertyScatteredDataLossRecoverable: sparse random data-only losses
// (≤10%) are always fully repaired for α≥2 — each missing node keeps all
// its parities, so a single round suffices.
func TestPropertyScatteredDataLossRecoverable(t *testing.T) {
	params := lattice.Params{Alpha: 2, S: 2, P: 5}
	const n = 200
	prop := func(seed int64) bool {
		store, _ := buildSystemQuick(params, n, 8, seed)
		r, err := NewRepairer(params, 8)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		for i := 1; i <= n; i++ {
			if rng.Float64() < 0.10 {
				store.LoseData(i)
			}
		}
		stats, err := r.Repair(bg, store, Options{})
		if err != nil {
			return false
		}
		return stats.DataLoss() == 0 && stats.Rounds <= 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// buildSystemQuick is buildSystem without *testing.T, for property checks.
func buildSystemQuick(params lattice.Params, n, blockSize int, seed int64) (*MemoryStore, [][]byte) {
	enc, err := NewEncoder(params, blockSize)
	if err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(seed))
	store := NewMemoryStore(blockSize)
	originals := make([][]byte, n+1)
	for i := 1; i <= n; i++ {
		data := make([]byte, blockSize)
		rng.Read(data)
		originals[i] = data
		ent, err := enc.Entangle(data)
		if err != nil {
			panic(err)
		}
		if err := store.PutData(bg, i, data); err != nil {
			panic(err)
		}
		for _, p := range ent.Parities {
			if err := store.PutParity(bg, p.Edge, p.Data); err != nil {
				panic(err)
			}
		}
	}
	return store, originals
}

// BenchmarkRepairSeeds repairs the same data-only damage (15 % of 512
// blocks of 64 KiB in an AE(3,2,5) lattice) from the engine's two seeds:
// "targets" hands it the lost blocks as Options.Targets (the healer's
// path), "enumerated" lets it enumerate the store's Missing. Data-only
// damage keeps every repair one surviving tuple away, so both repair the
// same blocks and read-blocks/repair isolates traffic: both should read
// about two blocks per repair, the tuple each chose.
func BenchmarkRepairSeeds(b *testing.B) {
	const n, blockSize = 512, 64 << 10
	params := lattice.Params{Alpha: 3, S: 2, P: 5}
	rep, err := NewRepairer(params, blockSize)
	if err != nil {
		b.Fatal(err)
	}
	for _, seed := range []struct {
		name     string
		targeted bool
	}{{"targets", true}, {"enumerated", false}} {
		b.Run(seed.name, func(b *testing.B) {
			// A repair puts back exactly the data blocks it lost, so one
			// store serves every iteration: each loses the same blocks.
			st, _ := buildSystemQuick(params, n, blockSize, 7)
			dmg := rand.New(rand.NewSource(99))
			var lost []store.Ref
			for pos := 1; pos <= n; pos++ {
				if dmg.Float64() < 0.15 {
					lost = append(lost, store.DataRef(pos))
				}
			}
			var opts Options
			if seed.targeted {
				opts.Targets = lost
			}
			var read, repairs int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for _, ref := range lost {
					st.LoseData(ref.Index)
				}
				b.StartTimer()
				stats, err := rep.Repair(bg, st, opts)
				if err != nil {
					b.Fatal(err)
				}
				read += stats.BytesRead
				repairs += int64(stats.DataRepaired + stats.ParityRepaired)
			}
			if repairs == 0 {
				b.Fatal("nothing repaired")
			}
			b.ReportMetric(float64(read)/blockSize/float64(repairs), "read-blocks/repair")
		})
	}
}
