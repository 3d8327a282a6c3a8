package entangle

import (
	"bytes"
	"context"
	"testing"
	"time"

	"aecodes/internal/lattice"
	"aecodes/internal/store"
)

// TestRepairSurvivesFlakyBackend pins degraded-mode repair end to end: a
// backend that drops reads, injects latency and bursts ErrUnavailable
// must still yield a fully repaired lattice — dropped blocks simply wait
// for a later round, bursts are absorbed by the prefetch's bounded
// retries, and Patience rides out rounds starved entirely by drops. Run
// with -race this also pins that concurrent planners over the shared
// fault generator are race-clean.
func TestRepairSurvivesFlakyBackend(t *testing.T) {
	params := lattice.Params{Alpha: 3, S: 2, P: 5}
	st, originals := buildDamagedStore(t, params, 120, 48, 0.3, 77)
	flaky := store.NewFlaky(st, store.FlakyOptions{
		Seed:      7,
		DropRate:  0.2,
		Delay:     100 * time.Microsecond,
		FailEvery: 3, // every third GetMany starts a burst...
		FailBurst: 2, // ...of two consecutive failures, within prefetch retries
	})
	rep, err := NewRepairer(params, 48)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := rep.Repair(context.Background(), flaky, Options{
		Workers:   4,
		Patience:  6,
		MaxRounds: 200,
	})
	if err != nil {
		t.Fatalf("repair over flaky backend: %v", err)
	}
	if len(stats.UnrepairedData) != 0 || len(stats.UnrepairedParities) != 0 {
		t.Fatalf("flaky repair left %d data + %d parity blocks missing",
			len(stats.UnrepairedData), len(stats.UnrepairedParities))
	}
	for i := 1; i <= 120; i++ {
		got, err := st.GetData(context.Background(), i)
		if err != nil {
			t.Fatalf("d%d unavailable after flaky repair: %v", i, err)
		}
		if !bytes.Equal(got, originals[i]) {
			t.Fatalf("d%d corrupted by flaky repair", i)
		}
	}
}

// TestRepairPatienceRidesOutBurstBeyondRetries pins the outage boundary
// from the surviving side: a burst longer than the prefetch's in-round
// retries fails whole rounds, but Patience treats those as zero-progress
// rounds and repair still completes once the backend returns.
func TestRepairPatienceRidesOutBurstBeyondRetries(t *testing.T) {
	params := lattice.Params{Alpha: 3, S: 2, P: 5}
	st, originals := buildDamagedStore(t, params, 80, 32, 0.3, 13)
	flaky := store.NewFlaky(st, store.FlakyOptions{
		Seed:      2,
		FailEvery: 2, // every second GetMany starts a burst...
		FailBurst: 5, // ...outlasting the 3 in-round retries: whole rounds fail
	})
	rep, err := NewRepairer(params, 32)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := rep.Repair(context.Background(), flaky, Options{Patience: 8, MaxRounds: 100})
	if err != nil {
		t.Fatalf("repair did not ride out the burst: %v", err)
	}
	if len(stats.UnrepairedData) != 0 {
		t.Fatalf("repair left %d data blocks missing", len(stats.UnrepairedData))
	}
	for i := 1; i <= 80; i++ {
		got, err := st.GetData(context.Background(), i)
		if err != nil {
			t.Fatalf("d%d unavailable after repair: %v", i, err)
		}
		if !bytes.Equal(got, originals[i]) {
			t.Fatalf("d%d corrupted", i)
		}
	}
}

// TestRepairAbortsOnLongBurst pins the failure boundary: with no
// Patience, a burst longer than the prefetch's bounded retries is a real
// outage, and Repair reports it instead of spinning.
func TestRepairAbortsOnLongBurst(t *testing.T) {
	params := lattice.Params{Alpha: 3, S: 2, P: 5}
	st, _ := buildDamagedStore(t, params, 40, 32, 0.3, 5)
	flaky := store.NewFlaky(st, store.FlakyOptions{
		Seed:      1,
		FailEvery: 1,   // every GetMany call...
		FailBurst: 100, // ...fails, far beyond the bounded retries
	})
	rep, err := NewRepairer(params, 32)
	if err != nil {
		t.Fatal(err)
	}
	_, err = rep.Repair(context.Background(), flaky, Options{MaxRounds: 10})
	if err == nil {
		t.Fatal("repair over a dead backend succeeded, want prefetch error")
	}
}
