package entangle

import (
	"bytes"
	"context"
	"slices"
	"testing"

	"aecodes/internal/lattice"
	"aecodes/internal/store"
)

// loseEdge removes the real edge e from the store.
func loseEdge(t *testing.T, st *MemoryStore, e lattice.Edge) {
	t.Helper()
	if e.IsVirtual() {
		t.Fatalf("test setup: edge %v is virtual, cannot lose it", e)
	}
	st.LoseParity(e)
}

func TestScopeBlockRepairsOnlyTargets(t *testing.T) {
	params := lattice.Params{Alpha: 3, S: 2, P: 5}
	st, originals := buildSystem(t, params, 120, 64, 11)
	r := mustRepairer(t, params)

	st.LoseData(60)
	st.LoseData(61)
	stats, err := r.Repair(bg, st, Options{Targets: []store.Ref{store.DataRef(60)}})
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	if stats.DataRepaired != 1 || stats.ParityRepaired != 0 {
		t.Fatalf("stats = %d data, %d parity repaired; want exactly the target", stats.DataRepaired, stats.ParityRepaired)
	}
	got, ok := st.Data(60)
	if !ok || !bytes.Equal(got, originals[60]) {
		t.Errorf("target block 60 not restored correctly")
	}
	if _, ok := st.Data(61); ok {
		t.Errorf("block 61 was repaired, but a targeted run must touch only its targets")
	}
	// A single-tuple repair of an interior block reads exactly the two
	// parities of one pp-tuple — the minimal-bandwidth property the
	// maintenance scheduler relies on.
	if want := int64(2 * 64); stats.BytesRead != want {
		t.Errorf("BytesRead = %d, want %d (two tuple parities)", stats.BytesRead, want)
	}
}

// TestScopeTupleHealsCompanionParity pins where the healer's cascade
// lives: the engine writes nothing but its targets, so a data block with
// no intact tuple stays missing as a bare target, and Health.Targets is
// what lists the parities that unlock it ahead of it.
func TestScopeTupleHealsCompanionParity(t *testing.T) {
	params := lattice.Params{Alpha: 3, S: 2, P: 5}
	r := mustRepairer(t, params)
	tuples, err := r.Lattice().Tuples(60)
	if err != nil {
		t.Fatal(err)
	}
	far, err := r.Lattice().OutEdge(lattice.Horizontal, 20)
	if err != nil {
		t.Fatal(err)
	}
	// No pp-tuple of 60 is complete; 90 keeps all of its tuples.
	want := []store.Ref{store.ParityRef(tuples[0].In), store.ParityRef(tuples[1].In), store.ParityRef(tuples[2].In),
		store.DataRef(60), store.DataRef(90), store.ParityRef(far)}
	for _, dataOnly := range []bool{false, true} {
		rounds, data, parity := 2, 2, 4
		if dataOnly {
			rounds, data, parity = 1, 1, 0 // no parity job, so 60 stays locked
		}
		st, originals := buildSystem(t, params, 120, 64, 13)
		for _, e := range []lattice.Edge{tuples[0].In, tuples[1].In, tuples[2].In, far} {
			loseEdge(t, st, e)
		}
		st.LoseData(60)
		st.LoseData(90)
		h, err := r.Health(bg, st, 120)
		if err != nil {
			t.Fatal(err)
		}
		// Most fragile data first behind its tuples' missing parities (and
		// only a tuple-less block gets them), then the parities not listed
		// yet, each block once.
		if got := h.Targets(32); !slices.Equal(got, want) || !slices.Equal(h.Targets(2), want[:2]) {
			t.Fatalf("Targets(32) = %v, Targets(2) = %v; want %v and its first two", got, h.Targets(2), want)
		}

		cs := &countingStore{inner: st}
		stats, err := r.Repair(bg, cs, Options{Targets: want[3:4]})
		if err != nil || !slices.Equal(stats.UnrepairedData, []int{60}) || cs.putMany != 0 {
			t.Fatalf("bare target d60: stats %+v, %d commits, err %v; want it unrepaired and nothing written", stats, cs.putMany, err)
		}

		stats, err = r.Repair(bg, st, Options{Targets: h.Targets(32), DataOnly: dataOnly})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Rounds != rounds || stats.DataRepaired != data || stats.ParityRepaired != parity ||
			len(stats.UnrepairedData)+len(stats.UnrepairedParities) != len(want)-data-parity {
			t.Fatalf("DataOnly=%v: stats %+v, want %d data + %d parity repairs in %d rounds and every other target unrepaired",
				dataOnly, stats, data, parity, rounds)
		}
		if limit := int64(2 * 64 * (data + parity)); stats.BytesRead > limit {
			t.Errorf("DataOnly=%v: BytesRead = %d, want ≤ %d (two reads per repair)", dataOnly, stats.BytesRead, limit)
		}
		if got, ok := st.Data(60); ok == dataOnly || ok && !bytes.Equal(got, originals[60]) {
			t.Errorf("DataOnly=%v: d60 served=%v, or with the wrong content", dataOnly, ok)
		}
	}
}

func TestScopedRepairSkipsPresentTargets(t *testing.T) {
	params := lattice.Params{Alpha: 3, S: 2, P: 5}
	st, _ := buildSystem(t, params, 120, 64, 14)
	r := mustRepairer(t, params)

	cs := &countingStore{inner: st}
	stats, err := r.Repair(bg, cs, Options{Targets: []store.Ref{store.DataRef(7), store.DataRef(8)}})
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	if stats.DataRepaired != 0 || stats.Rounds != 0 || cs.putMany != 0 {
		t.Errorf("present targets rewritten: %+v, %d commits", stats, cs.putMany)
	}
}

// acquireLog records every Limiter charge.
type acquireLog struct {
	ops   int
	bytes int64
	calls int
	fail  error
}

func (l *acquireLog) Acquire(ctx context.Context, ops int, bytes int64) error {
	if l.fail != nil {
		return l.fail
	}
	l.calls++
	l.ops += ops
	l.bytes += bytes
	return nil
}

func TestScopedRepairChargesLimiter(t *testing.T) {
	params := lattice.Params{Alpha: 3, S: 2, P: 5}
	st, _ := buildSystem(t, params, 120, 64, 15)
	r := mustRepairer(t, params)

	st.LoseData(60)
	lim := &acquireLog{}
	stats, err := r.Repair(bg, st, Options{Targets: []store.Ref{store.DataRef(60)}, RateLimit: lim})
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	// Every fetch and the commit must charge the bucket: reads
	// (BytesRead) plus one repaired block written back.
	want := stats.BytesRead + 64
	if lim.bytes != want {
		t.Errorf("limiter charged %d bytes, want %d (reads %d + one committed block)", lim.bytes, want, stats.BytesRead)
	}
	if lim.calls != 3 {
		t.Errorf("limiter charged %d times, want 3: the target fetch, the tuple fetch and the commit", lim.calls)
	}
}

func TestRoundRepairMetersAndCharges(t *testing.T) {
	params := lattice.Params{Alpha: 3, S: 2, P: 5}
	st, _ := buildSystem(t, params, 120, 64, 16)
	r := mustRepairer(t, params)

	st.LoseData(30)
	st.LoseData(90)
	lim := &acquireLog{}
	stats, err := r.Repair(bg, st, Options{RateLimit: lim})
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	if stats.DataRepaired != 2 {
		t.Fatalf("DataRepaired = %d, want 2", stats.DataRepaired)
	}
	if stats.BytesRead <= 0 {
		t.Errorf("round repair did not meter BytesRead")
	}
	if lim.bytes < stats.BytesRead {
		t.Errorf("limiter charged %d bytes < %d metered reads; commit must add more", lim.bytes, stats.BytesRead)
	}
}

func TestHealthScoresFragility(t *testing.T) {
	params := lattice.Params{Alpha: 3, S: 2, P: 5}
	st, _ := buildSystem(t, params, 120, 64, 17)
	r := mustRepairer(t, params)
	lat := r.Lattice()

	h, err := r.Health(bg, st, 120)
	if err != nil {
		t.Fatalf("Health: %v", err)
	}
	if !h.Healthy() || h.Score != 0 {
		t.Fatalf("undamaged lattice: Healthy=%v Score=%v", h.Healthy(), h.Score)
	}

	// Block 60: plain loss, all α tuples intact. Block 90: loss with every
	// tuple broken — one failure from permanent.
	st.LoseData(60)
	st.LoseData(90)
	tuples, err := lat.Tuples(90)
	if err != nil {
		t.Fatal(err)
	}
	for _, tup := range tuples {
		loseEdge(t, st, tup.In)
	}
	h, err = r.Health(bg, st, 120)
	if err != nil {
		t.Fatalf("Health: %v", err)
	}
	if h.Healthy() {
		t.Fatal("damaged lattice reported healthy")
	}
	if got := h.IntactTuples[60]; got != params.Alpha {
		t.Errorf("IntactTuples[60] = %d, want %d", got, params.Alpha)
	}
	if got := h.IntactTuples[90]; got != 0 {
		t.Errorf("IntactTuples[90] = %d, want 0", got)
	}
	order := h.FragileFirst()
	if len(order) != 2 || order[0] != 90 || order[1] != 60 {
		t.Errorf("FragileFirst() = %v, want [90 60] (fewest intact tuples first)", order)
	}
	// Scoring: 90 contributes 1/(1+0)=1, 60 contributes 1/(1+α), each
	// missing parity at most 0.5 — so the score must exceed 1 but stay
	// bounded by the parts.
	minScore := 1.0 + 1.0/float64(1+params.Alpha)
	maxScore := minScore + 0.5*float64(len(h.Missing.Parities))
	if h.Score < minScore || h.Score > maxScore {
		t.Errorf("Score = %v, want within [%v, %v]", h.Score, minScore, maxScore)
	}
}

// TestHealthTailParityHasOneOption: the right option of a tail parity
// names a data block beyond the lattice, which no enumeration lists as
// missing and which must not count as intact.
func TestHealthTailParityHasOneOption(t *testing.T) {
	params := lattice.Params{Alpha: 3, S: 2, P: 5}
	const n = 40
	st, _ := buildSystem(t, params, n, 16, 18)
	r := mustRepairer(t, params)
	tail, err := r.Lattice().OutEdge(lattice.Horizontal, n)
	if err != nil {
		t.Fatal(err)
	}
	loseEdge(t, st, tail)
	h, err := r.Health(bg, st, n)
	if err != nil {
		t.Fatal(err)
	}
	if want := 0.5 / 2; h.Score != want {
		t.Errorf("losing %v of a %d-block lattice scores %v, want %v: only d%d ⊕ its in-parity exists", tail, n, h.Score, want, n)
	}
}
