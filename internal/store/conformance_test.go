package store

import (
	"context"
	"errors"
	"sync"
	"testing"
)

// TestFlakyDeterministic pins that two Flaky wrappers with the same seed
// inject the same faults, so flaky-repair tests are reproducible.
func TestFlakyDeterministic(t *testing.T) {
	mk := func() *Flaky {
		f := newFakeStore()
		for i := 1; i <= 64; i++ {
			f.data[i] = []byte{byte(i)}
		}
		return NewFlaky(f, FlakyOptions{Seed: 3, DropRate: 0.3, FailEvery: 4, FailBurst: 2})
	}
	refs := make([]Ref, 64)
	for i := range refs {
		refs[i] = DataRef(i + 1)
	}
	a, b := mk(), mk()
	for call := 0; call < 10; call++ {
		ba, errA := a.GetMany(context.Background(), refs)
		bb, errB := b.GetMany(context.Background(), refs)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("call %d: error divergence: %v vs %v", call, errA, errB)
		}
		if errA != nil {
			if !errors.Is(errA, ErrUnavailable) {
				t.Fatalf("burst fault = %v, want ErrUnavailable", errA)
			}
			continue
		}
		for i := range ba {
			if (ba[i] == nil) != (bb[i] == nil) {
				t.Fatalf("call %d entry %d: drop divergence", call, i)
			}
		}
	}
}

// TestFlakyBurstSchedule pins the burst shape: with FailEvery=2 and
// FailBurst=2, calls fail in pairs starting at every second counted call.
func TestFlakyBurstSchedule(t *testing.T) {
	f := newFakeStore()
	f.data[1] = []byte{1}
	fl := NewFlaky(f, FlakyOptions{FailEvery: 2, FailBurst: 2})
	refs := []Ref{DataRef(1)}
	var outcomes []bool // true = failed
	for i := 0; i < 8; i++ {
		_, err := fl.GetMany(context.Background(), refs)
		outcomes = append(outcomes, err != nil)
	}
	// Counted calls: 1 ok, 2 fails + next burst fail, then repeat.
	want := []bool{false, true, true, false, true, true, false, true}
	for i := range want {
		if outcomes[i] != want[i] {
			t.Fatalf("burst schedule %v, want %v", outcomes, want)
		}
	}
}

// TestGetManyConsistentUnderConcurrentFaults hammers one store
// with concurrent GetMany prefetches and concurrent fault flips, pinning
// the documented consistency: the entry count always matches the ref
// count and non-nil entries always carry full content. Run under -race
// this is the contract's race-cleanliness check.
func TestGetManyConsistentUnderConcurrentFaults(t *testing.T) {
	f := newFakeStore()
	for i := 1; i <= 32; i++ {
		f.data[i] = []byte{byte(i)}
	}
	fl := NewFlaky(f, FlakyOptions{Seed: 11, DropRate: 0.4, FailEvery: 5, FailBurst: 1})
	refs := make([]Ref, 32)
	for i := range refs {
		refs[i] = DataRef(i + 1)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for call := 0; call < 50; call++ {
				blocks, err := fl.GetMany(context.Background(), refs)
				if err != nil {
					if !errors.Is(err, ErrUnavailable) {
						t.Errorf("batch failure = %v, want ErrUnavailable", err)
					}
					continue
				}
				if len(blocks) != len(refs) {
					t.Errorf("got %d entries, want %d", len(blocks), len(refs))
					return
				}
				for i, b := range blocks {
					if b != nil && (len(b) != 1 || b[0] != byte(i+1)) {
						t.Errorf("entry %d = %v, want full content or nil", i, b)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
