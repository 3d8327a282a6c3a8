package maintain

import (
	"context"
	"errors"

	"aecodes/internal/entangle"
	"aecodes/internal/segstore"
	"aecodes/internal/store"
)

// Scrubber is the store surface the scrub task walks; segstore.Store
// satisfies it.
type Scrubber interface {
	ScrubStep(after string, maxBytes int64) segstore.ScrubResult
}

// ScrubTask continuously CRC-verifies a segment store's records in key
// order, one bounded chunk per step, wrapping around forever. Corrupt
// records are dropped by the store itself, which makes them visible to
// missing-block enumeration — scrub findings feed straight into the
// healing task with no extra plumbing.
type ScrubTask struct {
	Store Scrubber
	// Chunk bounds one step's record bytes; <=0 defaults to 1 MiB.
	// It also bounds how long the store's write lock is held per step.
	Chunk int64
	// Limit, when set, charges each step's scanned bytes (debt model).
	Limit *Bucket

	// cursor resumes the key walk across steps (scheduler goroutine only).
	cursor string
}

// Name implements Task.
func (t *ScrubTask) Name() string { return "scrub" }

// RunOnce implements Task: verify one chunk, advance the cursor, charge
// the bucket for what was read.
func (t *ScrubTask) RunOnce(ctx context.Context) (Progress, error) {
	chunk := t.Chunk
	if chunk <= 0 {
		chunk = 1 << 20
	}
	if t.Limit != nil {
		// Admission: repay any outstanding debt before touching the store.
		if err := t.Limit.Acquire(ctx, 1, 0); err != nil {
			return Progress{}, err
		}
	}
	res := t.Store.ScrubStep(t.cursor, chunk)
	t.cursor = res.Next
	if t.Limit != nil && res.Scanned > 0 {
		if err := t.Limit.Acquire(ctx, res.Scanned, res.Bytes); err != nil {
			return Progress{}, err
		}
	}
	return Progress{
		Ops:   res.Scanned,
		Bytes: res.Bytes,
		Found: len(res.Corrupt),
		Idle:  res.Scanned == 0, // empty store: nothing to verify
	}, nil
}

// HealTarget is one healable lattice. cooperative.Broker satisfies it
// directly; NewStoreTarget adapts a repairer plus a local BlockStore.
type HealTarget interface {
	Health(ctx context.Context) (entangle.Health, error)
	Repair(ctx context.Context, opts entangle.Options) (entangle.Stats, error)
}

// NewStoreTarget adapts a repairer over a local BlockStore (typically
// segstore.OpenLattice's view) into a HealTarget. blocks is the
// lattice's data-block count, recorded in health probes.
func NewStoreTarget(rep *entangle.Repairer, st store.BlockStore, blocks int) HealTarget {
	return storeTarget{rep: rep, st: st, blocks: blocks}
}

type storeTarget struct {
	rep    *entangle.Repairer
	st     store.BlockStore
	blocks int
}

func (t storeTarget) Health(ctx context.Context) (entangle.Health, error) {
	return t.rep.Health(ctx, t.st, t.blocks)
}

func (t storeTarget) Repair(ctx context.Context, opts entangle.Options) (entangle.Stats, error) {
	return t.rep.Repair(ctx, t.st, opts)
}

// HealTask proactively repairs a lattice, most-fragile blocks first:
// each step probes health and runs one targeted Repair over the Batch
// most urgent blocks in Health.Targets order (fewest intact repair
// tuples first, a tuple-less block behind the parities that unlock it),
// so bytes moved stay at two blocks per repaired block. If the targets
// cannot make progress but damage remains, the step falls back to one
// bounded whole-lattice pass — rounds propagate repairs that the
// targets' own tuples cannot reach — still under the same rate limit.
type HealTask struct {
	// Open resolves the lattice to heal at step time (it may not exist
	// yet, or its shape may change across re-archives). An error
	// wrapping store.ErrNotFound means "nothing to heal": the task stays
	// idle without logging.
	Open func(ctx context.Context) (HealTarget, error)
	// Opts is the template for repair calls; Priority and Targets are
	// overwritten per step, everything else (RateLimit, Workers, ...)
	// passes through.
	Opts entangle.Options
	// Batch caps targets per step; <=0 defaults to 32. It is also the
	// grain of the rate limit: the engine charges the limiter once per
	// fetched batch of at most Batch targets (and their tuples), not per
	// block.
	Batch int
}

// Name implements Task.
func (t *HealTask) Name() string { return "heal" }

// RunOnce implements Task.
func (t *HealTask) RunOnce(ctx context.Context) (Progress, error) {
	target, err := t.Open(ctx)
	if errors.Is(err, store.ErrNotFound) {
		return Progress{Idle: true}, nil
	}
	if err != nil {
		return Progress{}, err
	}
	h, err := target.Health(ctx)
	if err != nil {
		return Progress{}, err
	}
	if h.Healthy() {
		return Progress{Idle: true}, nil
	}
	batch := t.Batch
	if batch <= 0 {
		batch = 32
	}
	opts := t.Opts
	opts.Priority = entangle.PriorityBackground
	if urgent(h) {
		opts.Priority = entangle.PriorityUrgent
	}
	opts.Targets = h.Targets(batch)
	stats, err := target.Repair(ctx, opts)
	found := h.MissingData() + h.MissingParities()
	repaired := stats.DataRepaired + stats.ParityRepaired
	prog := Progress{Ops: repaired, Bytes: stats.BytesRead, Found: found, Repaired: repaired}
	if err != nil {
		return prog, err
	}
	if repaired == 0 {
		// The targets could not complete anything: one whole-lattice
		// pass propagates repairs across rounds. MaxRounds bounds the
		// step so the scheduler keeps interleaving other tasks.
		opts.Targets = nil
		opts.MaxRounds = 4
		fstats, ferr := target.Repair(ctx, opts)
		prog.Bytes += fstats.BytesRead
		prog.Repaired += fstats.DataRepaired + fstats.ParityRepaired
		prog.Ops += fstats.DataRepaired + fstats.ParityRepaired
		if ferr != nil {
			return prog, ferr
		}
		if prog.Repaired == 0 {
			// Unrecoverable under current availability: back off instead
			// of spinning on the same damage.
			prog.Idle = true
		}
	}
	return prog, nil
}

// urgent reports whether some missing data block is down to at most one
// intact repair tuple — the health score's "nearly unrecoverable" band.
func urgent(h entangle.Health) bool {
	for _, n := range h.IntactTuples {
		if n <= 1 {
			return true
		}
	}
	return false
}

// Drainer is the control-plane surface the drain task drives;
// cluster.Manager satisfies it.
type Drainer interface {
	// DrainStep re-places up to max volumes off draining nodes and
	// reports how many moved. (0, nil) means nothing left to move.
	DrainStep(max int) (int, error)
}

// DrainTask migrates volumes off draining nodes, a bounded batch per
// step, through the cluster's existing re-placement path (repair
// regenerates the blocks on their new homes, exactly as after a node
// death — the drain just moves the routes ahead of failure).
type DrainTask struct {
	Mgr Drainer
	// Batch caps volume moves per step; <=0 defaults to 16.
	Batch int
	// Limit, when set, charges one op per moved volume.
	Limit *Bucket
}

// Name implements Task.
func (t *DrainTask) Name() string { return "drain" }

// RunOnce implements Task.
func (t *DrainTask) RunOnce(ctx context.Context) (Progress, error) {
	batch := t.Batch
	if batch <= 0 {
		batch = 16
	}
	if t.Limit != nil {
		if err := t.Limit.Acquire(ctx, 1, 0); err != nil {
			return Progress{}, err
		}
	}
	moved, err := t.Mgr.DrainStep(batch)
	if t.Limit != nil && moved > 0 {
		if aerr := t.Limit.Acquire(ctx, moved, 0); aerr != nil {
			return Progress{Ops: moved, Repaired: moved}, aerr
		}
	}
	prog := Progress{Ops: moved, Repaired: moved, Idle: moved == 0}
	return prog, err
}
