package entangle

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"aecodes/internal/hotpath"
	"aecodes/internal/lattice"
	"aecodes/internal/store"
	"aecodes/internal/xorblock"
)

// ErrUnrepairable is returned by the single-block repair functions when no
// complete tuple is available this round. Round-based repair treats it as
// "try again next round".
var ErrUnrepairable = errors.New("entangle: no complete repair tuple available")

// Repairer rebuilds missing blocks using the lattice geometry. Repairers are
// stateless and safe for concurrent use.
//
// The repairer reads through the context-aware Source dialect and treats
// any read error as "block unavailable" — a node that cannot be reached
// holds nothing this round. Context cancellation is checked at every
// tuple search and round boundary and surfaces as ctx.Err().
type Repairer struct {
	lat *lattice.Lattice
}

// NewRepairer returns a repairer for the given code parameters.
func NewRepairer(params lattice.Params) (*Repairer, error) {
	lat, err := lattice.New(params)
	if err != nil {
		return nil, err
	}
	return &Repairer{lat: lat}, nil
}

// Lattice returns the geometry this repairer operates on.
func (r *Repairer) Lattice() *lattice.Lattice { return r.lat }

// available adapts a dialect read to the planner's availability view: any
// error means the block cannot be used this round.
func available(b []byte, err error) ([]byte, bool) {
	if err != nil {
		return nil, false
	}
	return b, true
}

// RepairData rebuilds data block i from the first complete pp-tuple among
// its α strands — "the decoder uses the shortest available path", and the
// one-hop paths are exactly the pp-tuples. The repair cost is always one
// XOR of two blocks, regardless of the code parameters (§III: none of the
// three parameters change the cost of a single failure).
//
// It returns ErrUnrepairable when every tuple is incomplete.
func (r *Repairer) RepairData(ctx context.Context, src Source, i int) ([]byte, error) {
	in, out, err := r.findDataTuple(ctx, src, i)
	if err != nil {
		return nil, err
	}
	return xorblock.Xor(in, out)
}

// RepairDataInto is RepairData writing into a caller-supplied buffer, so
// hot repair loops can recycle blocks instead of allocating one per repair.
// dst must have the block size; it is untouched on ErrUnrepairable.
func (r *Repairer) RepairDataInto(ctx context.Context, dst []byte, src Source, i int) error {
	in, out, err := r.findDataTuple(ctx, src, i)
	if err != nil {
		return err
	}
	return xorblock.XorInto(dst, in, out)
}

// findDataTuple locates the first complete pp-tuple for data block i and
// returns its two parity blocks.
func (r *Repairer) findDataTuple(ctx context.Context, src Source, i int) (in, out []byte, err error) {
	tuples, err := r.lat.Tuples(i)
	if err != nil {
		return nil, nil, err
	}
	for _, t := range tuples {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		in, okIn := available(src.GetParity(ctx, t.In))
		if !okIn {
			continue
		}
		out, okOut := available(src.GetParity(ctx, t.Out))
		if !okOut {
			continue
		}
		return in, out, nil
	}
	return nil, nil, ErrUnrepairable
}

// RepairParity rebuilds the parity on edge e from either of its two
// dp-tuples: p_{i,j} = d_i XOR p_{h,i} = d_j XOR p_{j,k} (§III.B: "there are
// always two options").
//
// It returns ErrUnrepairable when both options are incomplete.
func (r *Repairer) RepairParity(ctx context.Context, src Source, e lattice.Edge) ([]byte, error) {
	d, p, err := r.findParityOption(ctx, src, e)
	if err != nil {
		return nil, err
	}
	return xorblock.Xor(d, p)
}

// RepairParityInto is RepairParity writing into a caller-supplied buffer.
// dst must have the block size; it is untouched on ErrUnrepairable.
func (r *Repairer) RepairParityInto(ctx context.Context, dst []byte, src Source, e lattice.Edge) error {
	d, p, err := r.findParityOption(ctx, src, e)
	if err != nil {
		return err
	}
	return xorblock.XorInto(dst, d, p)
}

// findParityOption locates the first complete dp-tuple for the parity on e
// and returns the data block and companion parity.
func (r *Repairer) findParityOption(ctx context.Context, src Source, e lattice.Edge) (d, p []byte, err error) {
	opts, err := r.lat.ParityOptions(e)
	if err != nil {
		return nil, nil, err
	}
	for _, opt := range opts {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		d, okD := available(src.GetData(ctx, opt.Data))
		if !okD {
			continue
		}
		p, okP := available(src.GetParity(ctx, opt.Parity))
		if !okP {
			continue
		}
		return d, p, nil
	}
	return nil, nil, ErrUnrepairable
}

// Options configures round-based repair.
type Options struct {
	// MaxRounds caps the number of productive repair rounds — the rounds
	// Stats.Rounds and Stats.PerRound count; 0 means run until fixpoint.
	// Rounds that repair nothing are bounded by Patience alone.
	MaxRounds int
	// DataOnly restricts repair to data blocks ("minimal maintenance",
	// §V.C.2): missing parities are left unrepaired.
	DataOnly bool
	// Workers sets the number of goroutines planning repairs within a
	// round ("the decoder can repair multiple single failures in
	// parallel", §III.A). Values below 2 select the serial planner. The
	// result is identical for any worker count: planning is read-only
	// against the frozen pre-round state and commits stay ordered.
	Workers int
	// Patience is the number of consecutive stalled rounds tolerated
	// before declaring a fixpoint — rounds in which no missing block has
	// a usable tuple left, or whose prefetch failed outright. The default
	// 0 stops at the first (the paper's Table VI semantics over a stable
	// store). Over a flaky backend a round can stall because reads were
	// dropped rather than because nothing is repairable, so a small
	// Patience lets repair ride out transient unavailability: every
	// tolerated stall pauses RetryDelay and re-enumerates the store, which
	// also forgets what earlier fetches failed to return.
	Patience int
	// RetryDelay is the pause between prefetch retry attempts and before
	// re-enumerating after a stalled round, giving a blipped
	// backend (a transport pool mid-redial, a restarting node) real time
	// to recover instead of burning every retry and Patience round in
	// microseconds. Zero defaults to 50ms — on the order of the
	// transport's first redial backoff; negative disables the pause.
	RetryDelay time.Duration
	// RateLimit, when non-nil, meters the run's I/O: the engine charges
	// every fetched and committed block against it and stalls when the
	// budget is spent. Background maintenance shares one limiter across
	// all of its tasks so foreground traffic keeps its p99.
	RateLimit Limiter
	// Priority tags the run for schedulers sharing a rate budget; the
	// engine records it but does not act on it.
	Priority Priority
	// Scope selects the repair surface: whole-lattice rounds (the
	// default, ScopeLattice), exactly Targets (ScopeBlock), or Targets
	// plus the missing tuple companions needed to complete them
	// (ScopeTuple). See the Scope constants.
	Scope Scope
	// Targets lists the blocks scoped repair rebuilds; ignored under
	// ScopeLattice.
	Targets []store.Ref
}

// retryDelay resolves the option's default.
func (o Options) retryDelay() time.Duration {
	if o.RetryDelay == 0 {
		return 50 * time.Millisecond
	}
	if o.RetryDelay < 0 {
		return 0
	}
	return o.RetryDelay
}

// RoundStats records what one synchronous repair round achieved.
type RoundStats struct {
	Round          int
	DataRepaired   int
	ParityRepaired int
}

// Stats summarises a full Repair run.
type Stats struct {
	// Rounds is the number of rounds that performed at least one repair.
	Rounds int
	// DataRepaired and ParityRepaired count successfully rebuilt blocks.
	DataRepaired   int
	ParityRepaired int
	// FirstRoundData counts data blocks rebuilt in round 1 — the paper's
	// "single failures solved at the first round" numerator (Fig 13).
	FirstRoundData int
	// PerRound holds one entry per executed round.
	PerRound []RoundStats
	// UnrepairedData and UnrepairedParities list blocks that remained
	// missing at fixpoint (irrecoverable under the current availability).
	UnrepairedData     []int
	UnrepairedParities []lattice.Edge
	// BytesRead counts block bytes the engine fetched to plan repairs —
	// the numerator of bytes-moved-per-repaired-block. Both engines read
	// only the tuple a repair uses: at most two blocks per repaired
	// block, fewer where a tuple member is a virtual edge or is shared
	// between two repairs of one round.
	BytesRead int64
}

// DataLoss returns the number of data blocks the engine failed to repair —
// the paper's data-loss metric (Fig 11).
func (s Stats) DataLoss() int { return len(s.UnrepairedData) }

// Repair runs synchronous repair rounds over the store until every missing
// block is rebuilt, a fixpoint without progress is reached, or MaxRounds is
// hit. Within a round every repair reads only blocks that were available
// when the round started, so the round count matches the paper's Table VI
// semantics; newly repaired blocks become usable in the next round.
//
// The store is enumerated once per run: Missing seeds the engine's own
// set of missing blocks, and every later round works from that set minus
// what the engine has committed since. A round picks, for each missing
// block, the first repair tuple none of whose members is in the set,
// fetches exactly the chosen tuples with one GetMany into an engine-owned
// round cache — the paper's two reads per repaired block — and commits
// all of its repairs with a single PutMany batch, so a batch-native store
// moves a whole round in a constant number of requests per storage
// location and planning reads never touch the backend. The fetch freezes
// the pre-round state: every planner reads the same snapshot whatever
// the worker count.
//
// A block the enumeration called present but a fetch cannot return
// (corrupted at rest since, on a node that just went away, or beyond the
// lattice's extent at the tail) is remembered as unusable: no later tuple
// is planned over it, it is never written, and the blocks that wanted it
// move to their other tuples next round. The engine enumerates again only
// after a stalled round tolerated by Options.Patience; the statistics'
// Unrepaired lists are the engine's set at exit.
func (r *Repairer) Repair(ctx context.Context, st Store, opts Options) (Stats, error) {
	var stats Stats
	var err error
	if opts.Scope != ScopeLattice {
		stats, err = r.repairScoped(ctx, st, opts)
	} else {
		stats, err = r.repairLattice(ctx, st, opts)
	}
	recordRepairObs(opts, stats, err)
	return stats, err
}

// repairLattice is the whole-lattice ScopeLattice engine behind Repair.
func (r *Repairer) repairLattice(ctx context.Context, st Store, opts Options) (Stats, error) {
	var stats Stats
	var loss *lossSet // nil: enumerate before the next round
	stalled := 0
	for opts.MaxRounds <= 0 || stats.Rounds < opts.MaxRounds {
		if err := ctx.Err(); err != nil {
			return stats, err
		}
		if loss == nil {
			missing, err := st.Missing(ctx)
			if err != nil {
				return stats, fmt.Errorf("entangle: enumerating missing blocks: %w", err)
			}
			loss = newLossSet(missing)
		}
		if len(loss.data) == 0 && (opts.DataOnly || len(loss.par) == 0) {
			break
		}

		// Plan from the set, fetch the chosen tuples with one batch, then
		// XOR against that frozen snapshot.
		plan, err := r.chooseTuples(loss, opts.DataOnly)
		if err != nil {
			return stats, err
		}
		var dataFixes []dataFix
		var parFixes []parFix
		var fetchErr error
		if len(plan.refs) > 0 {
			var cache *roundCache
			cache, fetchErr = prefetchRound(ctx, st, plan.refs, loss, opts, &stats)
			if cerr := ctx.Err(); cerr != nil {
				return stats, cerr
			}
			if fetchErr == nil {
				dataFixes, parFixes, err = r.planRound(ctx, cache, plan.data, plan.par, opts.Workers)
				if err != nil {
					return stats, err
				}
			}
		}

		if len(dataFixes) == 0 && len(parFixes) == 0 {
			if len(plan.refs) > 0 && fetchErr == nil {
				// Every planned tuple lost a member to the fetch, and each of
				// those members is now in the set: the next plan is strictly
				// narrower, so this cannot spin.
				continue
			}
			// Stalled: no missing block has a usable tuple left, or a
			// prefetch whose bounded retries all failed — a backend outage
			// lasting beyond this round. Without Patience that is the
			// fixpoint (or the run's error); with it, the backend gets time
			// to recover and a fresh enumeration replaces the set.
			stalled++
			if stalled > opts.Patience {
				if fetchErr != nil {
					return stats, fmt.Errorf("entangle: prefetching round %d: %w", stats.Rounds+1, fetchErr)
				}
				break
			}
			if serr := store.SleepCtx(ctx, opts.retryDelay()); serr != nil {
				return stats, serr
			}
			loss = nil
			continue
		}
		stalled = 0

		// ...then commit the round as one batch, making this round's
		// repairs visible to the next.
		if err := commitRound(ctx, st, dataFixes, parFixes, opts); err != nil {
			return stats, fmt.Errorf("entangle: committing round %d (%d blocks): %w",
				stats.Rounds+1, len(dataFixes)+len(parFixes), err)
		}
		loss.repaired(dataFixes, parFixes)

		// Rounds counts productive rounds only, whatever unproductive
		// iterations were interleaved: PerRound[i].Round == i+1 always
		// holds, and the Table VI round count stays comparable across
		// stable and flaky backends.
		stats.Rounds++
		rs := RoundStats{Round: stats.Rounds, DataRepaired: len(dataFixes), ParityRepaired: len(parFixes)}
		stats.PerRound = append(stats.PerRound, rs)
		stats.DataRepaired += rs.DataRepaired
		stats.ParityRepaired += rs.ParityRepaired
		if stats.Rounds == 1 {
			stats.FirstRoundData = rs.DataRepaired
		}
	}
	stats.UnrepairedData = loss.data
	stats.UnrepairedParities = loss.par
	return stats, nil
}

// commitRound writes one round's repairs with a single PutMany and returns
// the planner's pooled buffers. Store implementations copy (or transmit)
// on PutMany — see the Store contract — so the buffers can be recycled as
// soon as the commit returns, keeping whole-round repair allocation-free
// in steady state.
func commitRound(ctx context.Context, st Store, dataFixes []dataFix, parFixes []parFix, opts Options) error {
	commit := make([]store.Block, 0, len(dataFixes)+len(parFixes))
	var commitBytes int64
	for _, f := range dataFixes {
		commit = append(commit, store.Block{Ref: store.DataRef(f.pos), Data: f.buf})
		commitBytes += int64(len(f.buf))
	}
	for _, f := range parFixes {
		commit = append(commit, store.Block{Ref: store.ParityRef(f.edge), Data: f.buf})
		commitBytes += int64(len(f.buf))
	}
	defer func() {
		for _, b := range commit {
			xorblock.PoolFor(len(b.Data)).Put(b.Data)
		}
	}()
	if opts.RateLimit != nil {
		if err := opts.RateLimit.Acquire(ctx, len(commit), commitBytes); err != nil {
			return err
		}
	}
	return st.PutMany(ctx, commit)
}

// lossSet is the engine's picture of what the store cannot serve, kept
// between enumerations so a round costs no store sweep: the blocks the
// last Missing listed minus the repairs committed since, plus the blocks
// a fetch has contradicted the enumeration about.
type lossSet struct {
	// data and par are the missing blocks in enumeration order — what
	// repair still has to rebuild, and Stats.Unrepaired* at exit.
	data []int
	par  []lattice.Edge
	// gone holds every block no tuple may be planned over: the missing
	// ones above, and those a prefetch returned nil for although the
	// enumeration called them present. The latter are only ever avoided,
	// never rebuilt — the engine has no evidence they should exist
	// (d_{n+1} at the lattice's tail does not). Virtual edges are never
	// enumerated and never fetched, so they are never in it.
	gone map[store.Ref]bool
}

// newLossSet copies the enumeration: the set is edited as rounds commit,
// and a store may keep the slices it returned.
func newLossSet(m store.Missing) *lossSet {
	l := &lossSet{
		data: slices.Clone(m.Data),
		par:  slices.Clone(m.Parities),
		gone: make(map[store.Ref]bool, len(m.Data)+len(m.Parities)),
	}
	for _, i := range m.Data {
		l.gone[store.DataRef(i)] = true
	}
	for _, e := range m.Parities {
		l.gone[store.ParityRef(e)] = true
	}
	return l
}

// repaired subtracts one round's committed fixes from the set.
func (l *lossSet) repaired(dataFixes []dataFix, parFixes []parFix) {
	for _, f := range dataFixes {
		delete(l.gone, store.DataRef(f.pos))
	}
	for _, f := range parFixes {
		delete(l.gone, store.ParityRef(f.edge))
	}
	l.data = slices.DeleteFunc(l.data, func(i int) bool { return !l.gone[store.DataRef(i)] })
	l.par = slices.DeleteFunc(l.par, func(e lattice.Edge) bool { return !l.gone[store.ParityRef(e)] })
}

// roundPlan is one round's choice: the missing blocks that have a tuple
// to try, and the real blocks of those tuples.
type roundPlan struct {
	data []int
	par  []lattice.Edge
	refs []store.Ref // deduplicated; virtual edges never need fetching
}

// chooseTuples picks, for every missing block, the first pp-tuple (data)
// or dp-tuple (parity) none of whose members is in the set — the tuple
// the planner will use if the fetch agrees with the enumeration. A block
// with no such tuple sits the round out.
func (r *Repairer) chooseTuples(loss *lossSet, dataOnly bool) (roundPlan, error) {
	var plan roundPlan
	fetching := make(map[store.Ref]bool)
	// choose takes the tuple (a, b) unless the set holds a member of it.
	choose := func(a, b store.Ref) bool {
		if loss.gone[a] || loss.gone[b] {
			return false
		}
		for _, ref := range [2]store.Ref{a, b} {
			if !fetching[ref] && !(ref.Parity && ref.Edge.IsVirtual()) {
				fetching[ref] = true
				plan.refs = append(plan.refs, ref)
			}
		}
		return true
	}
	for _, i := range loss.data {
		tuples, err := r.lat.Tuples(i)
		if err != nil {
			return roundPlan{}, err
		}
		for _, t := range tuples {
			if choose(store.ParityRef(t.In), store.ParityRef(t.Out)) {
				plan.data = append(plan.data, i)
				break
			}
		}
	}
	if dataOnly {
		return plan, nil
	}
	for _, e := range loss.par {
		options, err := r.lat.ParityOptions(e)
		if err != nil {
			return roundPlan{}, err
		}
		for _, opt := range options {
			if choose(store.DataRef(opt.Data), store.ParityRef(opt.Parity)) {
				plan.par = append(plan.par, e)
				break
			}
		}
	}
	return plan, nil
}

// roundCache is the engine-owned snapshot of one repair round: the blocks
// of the tuples chooseTuples picked, fetched with a single GetMany before
// planning starts. It serves the planner as a Source — a ref absent from
// the snapshot (or fetched as unavailable) reads as ErrNotFound, so a
// concurrent fault mid-round cannot make two planners disagree about
// availability. The cache is read-only after construction and therefore
// safe for any number of planner goroutines.
type roundCache struct {
	blockSize int // learned from the first fetched block; 0 if none
	data      map[int][]byte
	par       map[edgeKey][]byte
}

var _ Source = (*roundCache)(nil)

// GetData implements Source against the snapshot.
func (c *roundCache) GetData(ctx context.Context, i int) ([]byte, error) {
	if b := c.data[i]; b != nil {
		return b, nil
	}
	return nil, fmt.Errorf("entangle: d%d not in round snapshot: %w", i, store.ErrNotFound)
}

// GetParity implements Source against the snapshot; virtual edges read as
// zero blocks once any real block has told the cache the block size.
func (c *roundCache) GetParity(ctx context.Context, e lattice.Edge) ([]byte, error) {
	if e.IsVirtual() {
		if c.blockSize == 0 {
			// Nothing real was fetched, so no tuple can complete anyway.
			return nil, fmt.Errorf("entangle: parity %v: %w", e, store.ErrNotFound)
		}
		return store.ZeroBlock(c.blockSize), nil
	}
	if b := c.par[keyOf(e)]; b != nil {
		return b, nil
	}
	return nil, fmt.Errorf("entangle: parity %v not in round snapshot: %w", e, store.ErrNotFound)
}

// prefetchAttempts bounds the in-round retries of the tuple fetch, so a
// short ErrUnavailable burst from a flaky backend costs a retry instead
// of aborting the whole repair run.
const prefetchAttempts = 3

// prefetchRound issues the round's single GetMany over the chosen tuples
// and builds the snapshot the planners read from. A failed batch is
// retried a bounded number of times with delay between attempts (flaky
// backends burst; pools need their redial backoff to land); nil entries
// — blocks the store cannot serve after all — go into loss as unusable.
// Fetched bytes are counted into stats and charged against the rate
// limiter after the batch lands (the debt model: the engine only learns
// sizes by reading).
func prefetchRound(ctx context.Context, st Store, refs []store.Ref, loss *lossSet, opts Options, stats *Stats) (*roundCache, error) {
	var blocks [][]byte
	var err error
	for attempt := 1; ; attempt++ {
		blocks, err = st.GetMany(ctx, refs)
		if err == nil {
			break
		}
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		if attempt >= prefetchAttempts {
			return nil, fmt.Errorf("entangle: tuple prefetch failed after %d attempts: %w", attempt, err)
		}
		if serr := store.SleepCtx(ctx, opts.retryDelay()); serr != nil {
			return nil, serr
		}
	}
	if len(blocks) != len(refs) {
		return nil, fmt.Errorf("entangle: tuple prefetch returned %d entries, want %d", len(blocks), len(refs))
	}
	cache := &roundCache{
		data: make(map[int][]byte),
		par:  make(map[edgeKey][]byte, len(refs)),
	}
	var fetched int64
	served := 0
	for idx, ref := range refs {
		b := blocks[idx]
		if b == nil {
			loss.gone[ref] = true
			continue
		}
		if cache.blockSize == 0 {
			cache.blockSize = len(b)
		}
		fetched += int64(len(b))
		served++
		if ref.Parity {
			cache.par[keyOf(ref.Edge)] = b
		} else {
			cache.data[ref.Index] = b
		}
	}
	stats.BytesRead += fetched
	hotpath.CountRepairRead(int(fetched))
	if opts.RateLimit != nil {
		if err := opts.RateLimit.Acquire(ctx, served, fetched); err != nil {
			return nil, err
		}
	}
	return cache, nil
}

// dataFix and parFix are planned repairs awaiting commit.
type dataFix struct {
	pos int
	buf []byte
}

type parFix struct {
	edge lattice.Edge
	buf  []byte
}

// planRound computes every repair possible against the round snapshot
// without committing anything. With workers ≥ 2 the planning fans
// out over goroutines; results keep the input order either way, so the
// round outcome is identical.
func (r *Repairer) planRound(ctx context.Context, src Source, missingData []int, missingPar []lattice.Edge, workers int) ([]dataFix, []parFix, error) {
	if workers < 2 {
		return r.planSerial(ctx, src, missingData, missingPar)
	}
	dataBufs := make([][]byte, len(missingData))
	parBufs := make([][]byte, len(missingPar))
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for idx := w; idx < len(missingData); idx += workers {
				buf, err := r.repairDataPooled(ctx, src, missingData[idx])
				if errors.Is(err, ErrUnrepairable) {
					continue
				}
				if err != nil {
					errs[w] = fmt.Errorf("entangle: repairing d%d: %w", missingData[idx], err)
					return
				}
				dataBufs[idx] = buf
			}
			for idx := w; idx < len(missingPar); idx += workers {
				buf, err := r.repairParityPooled(ctx, src, missingPar[idx])
				if errors.Is(err, ErrUnrepairable) {
					continue
				}
				if err != nil {
					errs[w] = fmt.Errorf("entangle: repairing %v: %w", missingPar[idx], err)
					return
				}
				parBufs[idx] = buf
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	var dataFixes []dataFix
	for idx, buf := range dataBufs {
		if buf != nil {
			dataFixes = append(dataFixes, dataFix{pos: missingData[idx], buf: buf})
		}
	}
	var parFixes []parFix
	for idx, buf := range parBufs {
		if buf != nil {
			parFixes = append(parFixes, parFix{edge: missingPar[idx], buf: buf})
		}
	}
	return dataFixes, parFixes, nil
}

func (r *Repairer) planSerial(ctx context.Context, src Source, missingData []int, missingPar []lattice.Edge) ([]dataFix, []parFix, error) {
	dataFixes := make([]dataFix, 0, len(missingData))
	parFixes := make([]parFix, 0, len(missingPar))
	for _, i := range missingData {
		buf, err := r.repairDataPooled(ctx, src, i)
		if errors.Is(err, ErrUnrepairable) {
			continue
		}
		if err != nil {
			return nil, nil, fmt.Errorf("entangle: repairing d%d: %w", i, err)
		}
		dataFixes = append(dataFixes, dataFix{pos: i, buf: buf})
	}
	for _, e := range missingPar {
		buf, err := r.repairParityPooled(ctx, src, e)
		if errors.Is(err, ErrUnrepairable) {
			continue
		}
		if err != nil {
			return nil, nil, fmt.Errorf("entangle: repairing %v: %w", e, err)
		}
		parFixes = append(parFixes, parFix{edge: e, buf: buf})
	}
	return dataFixes, parFixes, nil
}

// repairDataPooled is RepairData drawing its output from the process-wide
// block pool; the Repair commit loop returns the buffer after PutMany.
func (r *Repairer) repairDataPooled(ctx context.Context, src Source, i int) ([]byte, error) {
	in, out, err := r.findDataTuple(ctx, src, i)
	if err != nil {
		return nil, err
	}
	buf := xorblock.PoolFor(len(in)).Get()
	if err := xorblock.XorInto(buf, in, out); err != nil {
		xorblock.PoolFor(len(buf)).Put(buf)
		return nil, err
	}
	return buf, nil
}

// repairParityPooled is RepairParity drawing its output from the
// process-wide block pool.
func (r *Repairer) repairParityPooled(ctx context.Context, src Source, e lattice.Edge) ([]byte, error) {
	d, p, err := r.findParityOption(ctx, src, e)
	if err != nil {
		return nil, err
	}
	buf := xorblock.PoolFor(len(d)).Get()
	if err := xorblock.XorInto(buf, d, p); err != nil {
		xorblock.PoolFor(len(buf)).Put(buf)
		return nil, err
	}
	return buf, nil
}

// AuditResult reports the consistency of one data block against its α
// strands, the observable side of the anti-tampering property (§III): a
// modified block disagrees with every strand the attacker did not rewrite.
type AuditResult struct {
	Index int
	// Consistent[c] is true when d XOR p_{h,i} == p_{i,j} holds on strand
	// class c. Checked[c] is false when either parity was unavailable.
	Consistent map[lattice.Class]bool
	Checked    map[lattice.Class]bool
}

// Clean reports whether every checked strand agreed with the block.
func (a AuditResult) Clean() bool {
	for class, checked := range a.Checked {
		if checked && !a.Consistent[class] {
			return false
		}
	}
	return true
}

// CheckedStrands returns how many strands could be verified.
func (a AuditResult) CheckedStrands() int {
	n := 0
	for _, ok := range a.Checked {
		if ok {
			n++
		}
	}
	return n
}

// Audit verifies data block i against each of its α strands. A block that
// fails the audit on some strand has been modified after entanglement (or
// the strand has): to tamper undetectably an attacker must recompute "all
// the parities computed from its position to the closest strand extremity"
// on every one of the α strands (§III).
func (r *Repairer) Audit(ctx context.Context, src Source, i int) (AuditResult, error) {
	res := AuditResult{
		Index:      i,
		Consistent: make(map[lattice.Class]bool, r.lat.Params().Alpha),
		Checked:    make(map[lattice.Class]bool, r.lat.Params().Alpha),
	}
	d, ok := available(src.GetData(ctx, i))
	if !ok {
		return res, fmt.Errorf("entangle: data block %d unavailable for audit", i)
	}
	tuples, err := r.lat.Tuples(i)
	if err != nil {
		return res, err
	}
	for _, t := range tuples {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		in, okIn := available(src.GetParity(ctx, t.In))
		out, okOut := available(src.GetParity(ctx, t.Out))
		if !okIn || !okOut {
			res.Checked[t.In.Class] = false
			continue
		}
		want, err := xorblock.Xor(d, in)
		if err != nil {
			return res, err
		}
		res.Checked[t.In.Class] = true
		res.Consistent[t.In.Class] = xorblock.Equal(want, out)
	}
	return res, nil
}
