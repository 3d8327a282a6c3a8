package store

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"aecodes/internal/lattice"
)

// FlakyOptions configures the fault injection of a Flaky store.
type FlakyOptions struct {
	// Seed makes the injected faults reproducible.
	Seed int64
	// DropRate is the probability that a GetMany entry (or a single-block
	// read) is dropped — answered as unavailable even though the inner
	// store holds it. Dropped entries model blocks on locations that are
	// momentarily unreachable.
	DropRate float64
	// Delay is added to every operation, modelling a slow backend.
	Delay time.Duration
	// FailEvery > 0 starts an ErrUnavailable burst on every FailEvery'th
	// GetMany call: that call and the next FailBurst-1 calls fail
	// entirely, modelling a backend blip. FailBurst values < 1 mean a
	// burst of one call.
	FailEvery int
	// FailBurst is the length of each ErrUnavailable burst.
	FailBurst int
}

// Flaky wraps a BlockStore with deterministic fault injection — dropped
// reads, added latency, and whole-call ErrUnavailable bursts — so tests
// can pin how the engines behave over the unreliable backends the paper
// targets. It is safe for concurrent use (faults are drawn under a lock;
// the inner store provides its own safety) and race-clean by
// construction: it owns no state beyond the fault generator.
//
// Writes and enumeration pass through unmodified: faults target the read
// path, which is where degraded-mode behavior lives.
type Flaky struct {
	inner BlockStore
	opts  FlakyOptions

	mu       sync.Mutex
	rng      *rand.Rand
	getCalls int // GetMany calls seen, for FailEvery scheduling
	burst    int // remaining calls in the current ErrUnavailable burst
}

var _ BlockStore = (*Flaky)(nil)

// NewFlaky wraps inner with fault injection.
func NewFlaky(inner BlockStore, opts FlakyOptions) *Flaky {
	if opts.FailEvery > 0 && opts.FailBurst < 1 {
		opts.FailBurst = 1
	}
	return &Flaky{inner: inner, opts: opts, rng: rand.New(rand.NewSource(opts.Seed))}
}

// SleepCtx waits d or until ctx is done, whichever comes first — the
// shared pause primitive for retry pacing and fault injection (non-
// positive d just reports ctx state).
func SleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (f *Flaky) sleep(ctx context.Context) error {
	return SleepCtx(ctx, f.opts.Delay)
}

// drop draws one per-entry drop decision.
func (f *Flaky) drop() bool {
	if f.opts.DropRate <= 0 {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.rng.Float64() < f.opts.DropRate
}

// burstFault advances the GetMany burst schedule and reports whether this
// call falls inside an ErrUnavailable burst.
func (f *Flaky) burstFault() bool {
	if f.opts.FailEvery <= 0 {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.burst > 0 {
		f.burst--
		return true
	}
	f.getCalls++
	if f.getCalls%f.opts.FailEvery == 0 {
		f.burst = f.opts.FailBurst - 1
		return true
	}
	return false
}

// GetData implements Source, with drop injection.
func (f *Flaky) GetData(ctx context.Context, i int) ([]byte, error) {
	if err := f.sleep(ctx); err != nil {
		return nil, err
	}
	if f.drop() {
		return nil, fmt.Errorf("flaky: dropped d%d: %w", i, ErrNotFound)
	}
	return f.inner.GetData(ctx, i)
}

// GetParity implements Source, with drop injection.
func (f *Flaky) GetParity(ctx context.Context, e lattice.Edge) ([]byte, error) {
	if err := f.sleep(ctx); err != nil {
		return nil, err
	}
	if f.drop() {
		return nil, fmt.Errorf("flaky: dropped parity %v: %w", e, ErrNotFound)
	}
	return f.inner.GetParity(ctx, e)
}

// PutData implements BlockStore, passing through.
func (f *Flaky) PutData(ctx context.Context, i int, b []byte) error {
	if err := f.sleep(ctx); err != nil {
		return err
	}
	return f.inner.PutData(ctx, i, b)
}

// PutParity implements BlockStore, passing through.
func (f *Flaky) PutParity(ctx context.Context, e lattice.Edge, b []byte) error {
	if err := f.sleep(ctx); err != nil {
		return err
	}
	return f.inner.PutParity(ctx, e, b)
}

// Missing implements BlockStore, passing through.
func (f *Flaky) Missing(ctx context.Context) (Missing, error) {
	if err := f.sleep(ctx); err != nil {
		return Missing{}, err
	}
	return f.inner.Missing(ctx)
}

// GetMany implements BlockStore: whole-call ErrUnavailable bursts, then
// per-entry drops over the inner result.
func (f *Flaky) GetMany(ctx context.Context, refs []Ref) ([][]byte, error) {
	if err := f.sleep(ctx); err != nil {
		return nil, err
	}
	if f.burstFault() {
		return nil, fmt.Errorf("flaky: backend blip: %w", ErrUnavailable)
	}
	blocks, err := f.inner.GetMany(ctx, refs)
	if err != nil {
		return nil, err
	}
	for i := range blocks {
		if blocks[i] != nil && f.drop() {
			blocks[i] = nil
		}
	}
	return blocks, nil
}

// PutMany implements BlockStore, passing through.
func (f *Flaky) PutMany(ctx context.Context, blocks []Block) error {
	if err := f.sleep(ctx); err != nil {
		return err
	}
	return f.inner.PutMany(ctx, blocks)
}
