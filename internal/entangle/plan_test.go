package entangle

import (
	"bytes"
	"context"
	"math/rand"
	"slices"
	"testing"

	"aecodes/internal/lattice"
	"aecodes/internal/store"
)

// soundnessSettings are the (α, s, p) families the paper evaluates — the
// settings soundness_test.go sweeps.
var soundnessSettings = []lattice.Params{
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

// oracleOutcome is what the set oracle predicts for one Repair run.
type oracleOutcome struct {
	perRound []RoundStats
	data     []int          // unrepairable data blocks, enumeration order
	par      []lattice.Edge // unrepairable (or, under DataOnly, untouched) parities
}

// setOracle runs round-based repair as pure set closure on a lattice of n
// blocks, with no I/O and no block content: a missing block is repaired
// in round k iff one of its tuples is wholly available when round k
// starts. Available means inside the lattice's extent and not missing;
// virtual edges always are. Of the missing blocks only those in targets
// may be rebuilt, when it is not empty.
func setOracle(t testing.TB, lat *lattice.Lattice, n int, missing store.Missing, dataOnly bool, targets map[store.Ref]bool) oracleOutcome {
	t.Helper()
	goneData := make(map[int]bool)
	gonePar := make(map[lattice.Edge]bool)
	for _, i := range missing.Data {
		goneData[i] = true
	}
	for _, e := range missing.Parities {
		gonePar[e] = true
	}
	dataOK := func(i int) bool { return i >= 1 && i <= n && !goneData[i] }
	parOK := func(e lattice.Edge) bool { return e.IsVirtual() || (e.Left <= n && !gonePar[e]) }

	out := oracleOutcome{data: missing.Data, par: missing.Parities}
	if len(targets) > 0 {
		out.data = slices.DeleteFunc(slices.Clone(out.data), func(i int) bool { return !targets[store.DataRef(i)] })
		out.par = slices.DeleteFunc(slices.Clone(out.par), func(e lattice.Edge) bool { return !targets[store.ParityRef(e)] })
	}
	for {
		var fixedData, restData []int
		var fixedPar, restPar []lattice.Edge
		for _, i := range out.data {
			tuples, err := lat.Tuples(i)
			if err != nil {
				t.Fatal(err)
			}
			if slices.ContainsFunc(tuples, func(tu lattice.Tuple) bool { return parOK(tu.In) && parOK(tu.Out) }) {
				fixedData = append(fixedData, i)
			} else {
				restData = append(restData, i)
			}
		}
		for _, e := range out.par {
			options, err := lat.ParityOptions(e)
			if err != nil {
				t.Fatal(err)
			}
			if !dataOnly && slices.ContainsFunc(options, func(o lattice.ParityOption) bool { return dataOK(o.Data) && parOK(o.Parity) }) {
				fixedPar = append(fixedPar, e)
			} else {
				restPar = append(restPar, e)
			}
		}
		if len(fixedData)+len(fixedPar) == 0 {
			return out
		}
		// The round's repairs become available together, after it.
		for _, i := range fixedData {
			delete(goneData, i)
		}
		for _, e := range fixedPar {
			delete(gonePar, e)
		}
		out.perRound = append(out.perRound, RoundStats{
			Round: len(out.perRound) + 1, DataRepaired: len(fixedData), ParityRepaired: len(fixedPar),
		})
		out.data, out.par = restData, restPar
	}
}

// referenceSystem is a fully encoded lattice with a private copy of every
// block, taken before any damage.
type referenceSystem struct {
	st      *MemoryStore
	lat     *lattice.Lattice
	n       int
	data    [][]byte // 1-based
	parity  map[lattice.Edge][]byte
	ordered []store.Ref // d_1, its α out-parities, d_2, … — the damage order
}

func buildReference(t testing.TB, params lattice.Params, n, blockSize int, seed int64) *referenceSystem {
	t.Helper()
	st, originals := buildSystemQuick(params, n, blockSize, seed)
	lat, err := lattice.New(params)
	if err != nil {
		t.Fatal(err)
	}
	ref := &referenceSystem{st: st, lat: lat, n: n, data: originals, parity: make(map[lattice.Edge][]byte)}
	for i := 1; i <= n; i++ {
		ref.ordered = append(ref.ordered, store.DataRef(i))
		for _, class := range lat.Classes() {
			e, err := lat.OutEdge(class, i)
			if err != nil {
				t.Fatal(err)
			}
			b, ok := st.Parity(e)
			if !ok {
				t.Fatalf("parity %v missing before damage", e)
			}
			ref.parity[e] = bytes.Clone(b)
			ref.ordered = append(ref.ordered, store.ParityRef(e))
		}
	}
	return ref
}

// position is the lattice position a stored block belongs to: a data
// block's own, a parity's left endpoint (the block that produced it).
func position(r store.Ref) int {
	if r.Parity {
		return r.Edge.Left
	}
	return r.Index
}

// lose marks the k-th block of the damage order unavailable.
func (ref *referenceSystem) lose(k int) {
	if r := ref.ordered[k]; r.Parity {
		ref.st.LoseParity(r.Edge)
	} else {
		ref.st.LoseData(r.Index)
	}
}

// checkAgainstOracle repairs the reference system's current damage and
// fails unless the engine did exactly what the set oracle predicts, read
// no more than two blocks per repair, wrote nothing outside the lattice
// and restored original content. A non-zero mask (repeated) picks which
// of the missing blocks are handed over as Targets, and then nothing but
// them may be written. When the mask leaves a missing block out, rounds
// and reads are not compared: the engine learns of a missing non-target
// only by fetching a tuple it is in, so a target may slip a round behind
// the oracle and read a tuple it cannot use.
func checkAgainstOracle(t testing.TB, ref *referenceSystem, opts Options, mask byte) {
	t.Helper()
	enumerated, err := ref.st.Missing(bg)
	if err != nil {
		t.Fatal(err)
	}
	targets := make(map[store.Ref]bool)
	pick := func(k int, r store.Ref) {
		if mask&(1<<(k%8)) != 0 {
			targets[r] = true
			opts.Targets = append(opts.Targets, r)
		}
	}
	for k, i := range enumerated.Data {
		pick(k, store.DataRef(i))
	}
	for k, e := range enumerated.Parities {
		pick(len(enumerated.Data)+k, store.ParityRef(e))
	}
	targeted := len(targets) > 0
	partial := targeted && len(targets) < len(enumerated.Data)+len(enumerated.Parities)
	want := setOracle(t, ref.lat, ref.n, enumerated, opts.DataOnly, targets)

	rep, err := NewRepairer(ref.lat.Params())
	if err != nil {
		t.Fatal(err)
	}
	cs := &countingStore{inner: ref.st}
	stats, err := rep.Repair(bg, cs, opts)
	if err != nil {
		t.Fatal(err)
	}

	if !partial {
		if stats.Rounds != len(want.perRound) || !slices.Equal(stats.PerRound, want.perRound) {
			t.Fatalf("engine ran rounds %+v, oracle predicts %+v", stats.PerRound, want.perRound)
		}
		wantFirst := 0
		if len(want.perRound) > 0 {
			wantFirst = want.perRound[0].DataRepaired
		}
		if stats.FirstRoundData != wantFirst {
			t.Fatalf("FirstRoundData = %d, oracle predicts %d", stats.FirstRoundData, wantFirst)
		}
		blockSize := len(ref.data[1])
		if limit := int64(2 * blockSize * (stats.DataRepaired + stats.ParityRepaired)); stats.BytesRead > limit {
			t.Fatalf("BytesRead = %d for %d repairs of %d-byte blocks, want ≤ %d (two reads per repaired block)",
				stats.BytesRead, stats.DataRepaired+stats.ParityRepaired, blockSize, limit)
		}
	}
	if !slices.Equal(stats.UnrepairedData, want.data) {
		t.Fatalf("UnrepairedData = %v, oracle predicts %v", stats.UnrepairedData, want.data)
	}
	if !slices.Equal(stats.UnrepairedParities, want.par) {
		t.Fatalf("UnrepairedParities = %v, oracle predicts %v", stats.UnrepairedParities, want.par)
	}
	if _, _, _, _, missing := cs.counts(); targeted == (missing == 1) {
		t.Fatalf("%d Missing calls on a stable store, want one enumeration, or none with Targets", missing)
	}
	for _, batch := range cs.written {
		for _, r := range batch {
			if pos := position(r); pos < 1 || pos > ref.n || targeted && !targets[r] {
				t.Fatalf("engine wrote %v, outside the lattice 1..%d or the targets", r, ref.n)
			}
		}
	}

	// Whatever is available now must be original content, and exactly the
	// oracle's residue may still be missing of what was to be rebuilt.
	after, err := ref.st.Missing(bg)
	if err != nil {
		t.Fatal(err)
	}
	if targeted {
		after.Data = slices.DeleteFunc(after.Data, func(i int) bool { return !targets[store.DataRef(i)] })
		after.Parities = slices.DeleteFunc(after.Parities, func(e lattice.Edge) bool { return !targets[store.ParityRef(e)] })
	}
	if !slices.Equal(after.Data, want.data) || !slices.Equal(after.Parities, want.par) {
		t.Fatalf("store still misses %v / %v, oracle predicts %v / %v", after.Data, after.Parities, want.data, want.par)
	}
	for i := 1; i <= ref.n; i++ {
		if got, ok := ref.st.Data(i); ok && !bytes.Equal(got, ref.data[i]) {
			t.Fatalf("d%d differs from the original after repair", i)
		}
	}
	for e, orig := range ref.parity {
		if got, ok := ref.st.Parity(e); ok && !bytes.Equal(got, orig) {
			t.Fatalf("parity %v differs from the original after repair", e)
		}
	}
}

// TestRepairMatchesSetOracle is round equivalence as a property: over
// every evaluated code setting, light to catastrophic damage, both
// worker counts and both seeds — the store's enumeration, and everything
// it lists handed over as Targets — the engine's rounds, per-round
// counts, first-round share and unrepairable residue are exactly the set
// oracle's.
func TestRepairMatchesSetOracle(t *testing.T) {
	const n, blockSize = 150, 8
	for _, params := range soundnessSettings {
		t.Run(params.String(), func(t *testing.T) {
			for _, damage := range []float64{0.1, 0.3, 0.5, 0.7} {
				for _, run := range []struct {
					workers int
					mask    byte
				}{{1, 0}, {4, 0}, {1, 0xff}, {4, 0xff}} {
					ref := buildReference(t, params, n, blockSize, int64(damage*100))
					rng := rand.New(rand.NewSource(int64(damage * 1000)))
					for k := range ref.ordered {
						if rng.Float64() < damage {
							ref.lose(k)
						}
					}
					checkAgainstOracle(t, ref, Options{Workers: run.workers}, run.mask)
				}
			}
		})
	}
}

// FuzzRepairPlan drives the planner with arbitrary damage: the first five
// bytes pick the code setting, lattice length, worker count, DataOnly
// and checkAgainstOracle's target mask, the rest is a damage bitmap over
// the blocks in encoding order (repeated when shorter than the lattice).
// The engine must match the set oracle and never write a block outside
// 1..n or, given Targets, outside them.
func FuzzRepairPlan(f *testing.F) {
	f.Add([]byte{4, 63, 1, 0, 0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0}) // more under testdata/fuzz
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 6 {
			return
		}
		params := soundnessSettings[int(in[0])%len(soundnessSettings)]
		n := 4 + int(in[1])%93
		opts := Options{Workers: 1 + 3*int(in[2]&1), DataOnly: in[3]&1 == 1}
		bitmap := in[5:]
		ref := buildReference(t, params, n, 8, int64(in[1]))
		for k := range ref.ordered {
			if bitmap[(k/8)%len(bitmap)]&(1<<(k%8)) != 0 {
				ref.lose(k)
			}
		}
		checkAgainstOracle(t, ref, opts, in[4])
	})
}

// lyingStore answers GetMany with nil for the refs in lies although its
// Missing lists them as present — a block corrupted at rest after the
// enumeration, or a node that went away since.
type lyingStore struct {
	*countingStore
	lies map[store.Ref]bool
}

func (l *lyingStore) GetMany(ctx context.Context, refs []store.Ref) ([][]byte, error) {
	blocks, err := l.countingStore.GetMany(ctx, refs)
	for i, r := range refs {
		if err == nil && l.lies[r] {
			blocks[i] = nil
		}
	}
	return blocks, err
}

// TestRepairReplansAroundFetchContradiction pins what the engine does when
// a fetch contradicts the enumeration: the blocks that wanted the
// unreadable ref converge through their other tuples — without Patience,
// since that is not a fixpoint — the ref is never asked for again and
// never written, and the run does not spin.
func TestRepairReplansAroundFetchContradiction(t *testing.T) {
	params := lattice.Params{Alpha: 3, S: 2, P: 5}
	const n = 120
	st, originals := buildDamagedStore(t, params, n, 32, 0.25, 3)
	rep := mustRepairer(t, params)
	enumerated, err := st.Missing(bg)
	if err != nil {
		t.Fatal(err)
	}
	listed := make(map[store.Ref]bool)
	for _, e := range enumerated.Parities {
		listed[store.ParityRef(e)] = true
	}

	// Lie about the second parity of the first tuple of some missing data
	// blocks: the tuple the plan picks first whenever it looks complete.
	lies := make(map[store.Ref]bool)
	for _, i := range enumerated.Data {
		tuples, err := rep.Lattice().Tuples(i)
		if err != nil {
			t.Fatal(err)
		}
		if r := store.ParityRef(tuples[0].Out); !listed[r] && !listed[store.ParityRef(tuples[0].In)] && len(lies) < 5 {
			lies[r] = true
		}
	}
	if len(lies) < 3 {
		t.Fatalf("damage pattern left only %d first tuples to lie about", len(lies))
	}

	ls := &lyingStore{countingStore: &countingStore{inner: st}, lies: lies}
	stats, err := rep.Repair(bg, ls, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.UnrepairedData) != 0 {
		t.Fatalf("%d data blocks unrepaired: the engine did not move to other tuples", len(stats.UnrepairedData))
	}
	for i := 1; i <= n; i++ {
		if got, ok := st.Data(i); !ok || !bytes.Equal(got, originals[i]) {
			t.Fatalf("d%d missing or wrong after repair", i)
		}
	}
	asked := make(map[store.Ref]int)
	for _, batch := range ls.fetched {
		for _, r := range batch {
			asked[r]++
		}
	}
	for r := range lies {
		if asked[r] != 1 {
			t.Errorf("%v fetched %d times, want once: an unreadable ref must not be planned over again", r, asked[r])
		}
	}
	for _, batch := range ls.written {
		for _, r := range batch {
			if lies[r] {
				t.Errorf("engine wrote %v, a block the enumeration never listed as missing", r)
			}
		}
	}
	_, _, getMany, _, missing := ls.counts()
	if missing != 1 {
		t.Errorf("%d Missing calls, want 1: a contradicted fetch is not a reason to sweep the store", missing)
	}
	// Every fetch either repairs something or learns of an unreadable ref.
	if limit := stats.Rounds + len(lies); getMany > limit {
		t.Errorf("%d GetMany calls for %d rounds and %d unreadable refs, want ≤ %d", getMany, stats.Rounds, len(lies), limit)
	}
}

// TestRepairSingleContradictionIsNotFixpoint is the smallest contradiction:
// one missing block whose first tuple the fetch cannot complete. The round
// repairs nothing, yet the next plan has a tuple left, so the default
// Patience of zero must not call it a fixpoint.
func TestRepairSingleContradictionIsNotFixpoint(t *testing.T) {
	params := lattice.Params{Alpha: 3, S: 2, P: 5}
	st, originals := buildDamagedStore(t, params, 60, 32, 0, 9)
	st.LoseData(10)
	rep := mustRepairer(t, params)
	tuples, err := rep.Lattice().Tuples(10)
	if err != nil {
		t.Fatal(err)
	}
	ls := &lyingStore{
		countingStore: &countingStore{inner: st},
		lies:          map[store.Ref]bool{store.ParityRef(tuples[0].In): true, store.ParityRef(tuples[1].Out): true},
	}
	stats, err := rep.Repair(bg, ls, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := st.Data(10); !ok || !bytes.Equal(got, originals[10]) {
		t.Fatal("d10 not repaired through its third tuple")
	}
	_, _, getMany, putMany, _ := ls.counts()
	if stats.Rounds != 1 || getMany != 3 || putMany != 1 {
		t.Errorf("rounds=%d GetMany=%d PutMany=%d, want 1, 3 (one per tuple tried), 1", stats.Rounds, getMany, putMany)
	}
}

// TestRepairNeverWritesBeyondTail pins the lattice's open end: the right
// dp-tuple of a tail parity names d_{n+k}, a block that does not exist and
// that no enumeration lists. The engine may ask for it, must take nil for
// an answer, and must never create it.
func TestRepairNeverWritesBeyondTail(t *testing.T) {
	params := lattice.Params{Alpha: 3, S: 2, P: 5}
	const n = 40
	rep := mustRepairer(t, params)
	lat := rep.Lattice()
	tail, err := lat.OutEdge(lattice.Horizontal, n)
	if err != nil {
		t.Fatal(err)
	}
	if tail.Right <= n {
		t.Fatalf("%v is not a tail parity of a %d-block lattice", tail, n)
	}

	check := func(t *testing.T, cs *countingStore, st *MemoryStore) {
		t.Helper()
		for _, batch := range cs.written {
			for _, r := range batch {
				if position(r) > n {
					t.Errorf("engine wrote %v, beyond the %d-block lattice", r, n)
				}
			}
		}
		if st.DataCount() != n {
			t.Errorf("store holds %d data blocks, want %d", st.DataCount(), n)
		}
	}

	t.Run("recoverable", func(t *testing.T) {
		// d_n is the tail parity's left option; it comes back in round 1
		// through another strand, the parity in round 2.
		st, _ := buildDamagedStore(t, params, n, 16, 0, 21)
		st.LoseData(n)
		st.LoseParity(tail)
		cs := &countingStore{inner: st}
		stats, err := rep.Repair(bg, cs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Rounds != 2 || len(stats.UnrepairedData)+len(stats.UnrepairedParities) != 0 {
			t.Fatalf("stats %+v, want full repair in 2 rounds", stats)
		}
		check(t, cs, st)
	})

	t.Run("closed", func(t *testing.T) {
		// With every out-parity of d_n gone too, nothing is repairable: each
		// tuple of d_n needs one of them, and each of them needs d_n or the
		// blocks beyond it.
		st, _ := buildDamagedStore(t, params, n, 16, 0, 22)
		st.LoseData(n)
		for _, class := range lat.Classes() {
			e, err := lat.OutEdge(class, n)
			if err != nil {
				t.Fatal(err)
			}
			st.LoseParity(e)
		}
		cs := &countingStore{inner: st}
		stats, err := rep.Repair(bg, cs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(stats.UnrepairedData, []int{n}) || len(stats.UnrepairedParities) != 3 || stats.Rounds != 0 {
			t.Fatalf("stats %+v, want d%d and its 3 out-parities unrepaired after 0 rounds", stats, n)
		}
		if _, _, getMany, putMany, _ := cs.counts(); getMany != 1 || putMany != 0 {
			t.Errorf("GetMany=%d PutMany=%d, want one probe beyond the tail and no commit", getMany, putMany)
		}
		check(t, cs, st)
	})
}

// TestMaxRoundsDoesNotSwallowPatience pins that MaxRounds caps productive
// rounds only. The first round here is starved by an ErrUnavailable burst
// outlasting the prefetch's in-round retries; Patience allows the retry,
// and the one productive round MaxRounds grants must still happen — after
// seeding again from what seeded the run: the store's enumeration, or one
// more fetch of the Targets.
func TestMaxRoundsDoesNotSwallowPatience(t *testing.T) {
	params := lattice.Params{Alpha: 3, S: 2, P: 5}
	lost := []store.Ref{store.DataRef(7), store.DataRef(23), store.DataRef(41)}
	for _, targets := range [][]store.Ref{nil, lost} {
		st, originals := buildDamagedStore(t, params, 60, 32, 0, 4)
		for _, r := range lost {
			st.LoseData(r.Index)
		}
		cs := &countingStore{inner: st}
		// A target fetch is one more healthy call ahead of the burst.
		flaky := store.NewFlaky(cs, store.FlakyOptions{FailEvery: 2 + min(len(targets), 1), FailBurst: prefetchAttempts})
		// Spend a healthy call, so the burst starts with the engine's first
		// tuple fetch and ends with its last in-round retry.
		if _, err := flaky.GetMany(bg, nil); err != nil {
			t.Fatal(err)
		}
		rep := mustRepairer(t, params)
		stats, err := rep.Repair(bg, flaky, Options{MaxRounds: 1, Patience: 2, RetryDelay: -1, Targets: targets})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Rounds != 1 || stats.DataRepaired != 3 || len(stats.UnrepairedData) != 0 {
			t.Fatalf("stats %+v, want the 3 blocks repaired in 1 productive round after the starved one", stats)
		}
		for _, r := range lost {
			if got, ok := st.Data(r.Index); !ok || !bytes.Equal(got, originals[r.Index]) {
				t.Fatalf("%v missing or wrong after repair", r)
			}
		}
		targetFetches := len(cs.fetched) - stats.Rounds - 1 // all but the warm-up and the tuple fetch
		if want := 2 * min(len(targets), 1); cs.missing+targetFetches != 2 || targetFetches != want {
			t.Errorf("Targets=%v: %d enumerations and %d target fetches, want 2 seeds of the run's own kind", targets, cs.missing, targetFetches)
		}
	}
}
