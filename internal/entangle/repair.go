package entangle

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

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
	// §V.C.2): no parity is rebuilt, whether the store enumerated it or
	// Targets named it, and every missing one is reported unrepaired.
	DataOnly bool
	// Workers sets the number of goroutines XORing a round's repairs
	// ("the decoder can repair multiple single failures in parallel",
	// §III.A); values below 2 mean one. The result is identical for any
	// worker count: the workers only read the round's fetched snapshot
	// and commits stay ordered.
	Workers int
	// Patience is the number of consecutive stalled rounds tolerated
	// before declaring a fixpoint — rounds in which no missing block has
	// a usable tuple left, or whose prefetch failed outright. The default
	// 0 stops at the first (the paper's Table VI semantics over a stable
	// store). Over a flaky backend a round can stall because reads were
	// dropped rather than because nothing is repairable, so a small
	// Patience lets repair ride out transient unavailability: every
	// tolerated stall pauses RetryDelay and seeds the run again, which
	// also forgets what earlier fetches failed to return.
	Patience int
	// RetryDelay is the pause between prefetch retry attempts and before
	// seeding again after a stalled round, giving a blipped
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
	// Priority tags the run in the repair counters; the engine records
	// it but does not act on it.
	Priority Priority
	// Targets, when non-empty, restricts the run to these blocks: the
	// engine fetches them instead of enumerating the store, drops the
	// ones the store serves (a present block is never rewritten) and
	// takes the rest as its whole loss set, so nothing else is ever
	// written. A target whose every tuple needs a block that is missing
	// and not itself a target stays unrepaired — Health.Targets lists
	// the parities that unlock such a block ahead of it.
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
	// missing at fixpoint (irrecoverable under the current availability);
	// with Options.Targets, what is left of the targets.
	UnrepairedData     []int
	UnrepairedParities []lattice.Edge
	// BytesRead counts block bytes the engine fetched — the numerator of
	// bytes-moved-per-repaired-block. The engine reads only the tuple a
	// repair uses: at most two blocks per repaired block, fewer where a
	// tuple member is a virtual edge or is shared between two repairs of
	// one round. A targeted run also reads each target the store still
	// serves, once.
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
// The run is seeded once: the store's Missing enumeration — or, with
// Options.Targets, the targets one GetMany cannot serve — becomes the
// engine's own set of missing blocks, and every later round works from
// that set minus what the engine has committed since. A round picks, for
// each missing block, the first repair tuple none of whose members is in
// the set, fetches exactly the chosen tuples with one GetMany — the
// paper's two reads per repaired block — XORs each pair, and commits all
// of its repairs with a single PutMany batch, so a batch-native store
// moves a whole round in a constant number of requests per storage
// location. The fetch freezes the pre-round state: every worker reads the
// same snapshot whatever the worker count.
//
// A block the seed called present but a fetch cannot return (corrupted at
// rest since, on a node that just went away, beyond the lattice's extent
// at the tail, or — on a targeted run — missing without being a target)
// is remembered as unusable: no later tuple is planned over it, it is
// never written, and the blocks that wanted it move to their other tuples
// next round. The engine seeds again only after a stalled round tolerated
// by Options.Patience; the statistics' Unrepaired lists are the engine's
// set at exit.
func (r *Repairer) Repair(ctx context.Context, st Store, opts Options) (Stats, error) {
	stats, err := r.repair(ctx, st, opts)
	recordRepairObs(opts, stats, err)
	return stats, err
}

// repair is Repair without the counters.
func (r *Repairer) repair(ctx context.Context, st Store, opts Options) (Stats, error) {
	var stats Stats
	var loss *lossSet // nil: seed before the next round
	stalled := 0
	for opts.MaxRounds <= 0 || stats.Rounds < opts.MaxRounds {
		if err := ctx.Err(); err != nil {
			return stats, err
		}
		if loss == nil {
			var err error
			if loss, err = seedLoss(ctx, st, opts, &stats); err != nil {
				return stats, err
			}
		}
		if len(loss.data) == 0 && (opts.DataOnly || len(loss.par) == 0) {
			break
		}

		// Plan from the set, fetch the chosen tuples with one batch, then
		// XOR against that frozen snapshot.
		jobs, refs, err := r.chooseTuples(loss, opts.DataOnly)
		if err != nil {
			return stats, err
		}
		var fixes []store.Block
		var fetchErr error
		if len(refs) > 0 {
			var blocks [][]byte
			blocks, fetchErr = fetch(ctx, st, refs, opts, &stats)
			if cerr := ctx.Err(); cerr != nil {
				return stats, cerr
			}
			if fetchErr == nil {
				loss.refused(refs, blocks)
				if fixes, err = xorRound(jobs, blocks, opts.Workers); err != nil {
					return stats, err
				}
			}
		}

		if len(fixes) == 0 {
			if len(refs) > 0 && fetchErr == nil {
				// Every planned tuple lost a member to the fetch, and each of
				// those members is now in the set: the next plan is strictly
				// narrower, so this cannot spin.
				continue
			}
			// Stalled: no missing block has a usable tuple left, or a
			// prefetch whose bounded retries all failed — a backend outage
			// lasting beyond this round. Without Patience that is the
			// fixpoint (or the run's error); with it, the backend gets time
			// to recover and a fresh seed replaces the set.
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
		if err := commitRound(ctx, st, fixes, opts); err != nil {
			return stats, fmt.Errorf("entangle: committing round %d (%d blocks): %w", stats.Rounds+1, len(fixes), err)
		}
		loss.repaired(fixes)

		// Rounds counts productive rounds only, whatever unproductive
		// iterations were interleaved: PerRound[i].Round == i+1 always
		// holds, and the Table VI round count stays comparable across
		// stable and flaky backends.
		stats.Rounds++
		rs := RoundStats{Round: stats.Rounds}
		for _, f := range fixes {
			if f.Ref.Parity {
				rs.ParityRepaired++
			} else {
				rs.DataRepaired++
			}
		}
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
// the round's pooled buffers. Store implementations copy (or transmit)
// on PutMany — see the Store contract — so the buffers can be recycled as
// soon as the commit returns, keeping whole-round repair allocation-free
// in steady state.
func commitRound(ctx context.Context, st Store, fixes []store.Block, opts Options) error {
	var commitBytes int64
	for _, f := range fixes {
		commitBytes += int64(len(f.Data))
	}
	defer func() {
		for _, f := range fixes {
			xorblock.PoolFor(len(f.Data)).Put(f.Data)
		}
	}()
	if opts.RateLimit != nil {
		if err := opts.RateLimit.Acquire(ctx, len(fixes), commitBytes); err != nil {
			return err
		}
	}
	return st.PutMany(ctx, fixes)
}

// DecodeData rebuilds the data blocks at positions without writing
// anything: a repair round that does not commit, which is what a streaming
// reader's degraded read of a window is. The positions are the whole loss
// set. Every pass picks, for each position still short, its first pp-tuple
// no member of which a fetch has come back without, fetches the chosen
// tuples with one deduplicated GetMany and XORs the complete ones; only
// the positions that came back short move on to their next tuple. Pass k
// therefore reads strands of the k-th class only: a call is at most α
// store calls, however many positions it is given, and fetches no block
// twice.
//
// The result is parallel to positions: the rebuilt block — drawn from the
// process-wide pool and the caller's to keep — or nil where no tuple is
// complete, as for any position beyond the lattice's extent, whose
// out-edges were never written.
func (r *Repairer) DecodeData(ctx context.Context, st Store, positions []int) (out [][]byte, err error) {
	loss := &lossSet{gone: make(map[store.Ref]bool)}
	for _, i := range positions {
		loss.add(store.DataRef(i))
	}
	decoded := make(map[int][]byte, len(positions))
	defer func() {
		if err != nil {
			for _, b := range decoded {
				xorblock.PoolFor(len(b)).Put(b)
			}
		}
	}()
	var stats Stats
	for len(loss.data) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		jobs, refs, err := r.chooseTuples(loss, true)
		if err != nil {
			return nil, err
		}
		if len(jobs) == 0 {
			break
		}
		blocks, err := fetch(ctx, st, refs, Options{}, &stats)
		if err != nil {
			return nil, err
		}
		loss.refused(refs, blocks)
		fixes, err := xorRound(jobs, blocks, 1)
		if err != nil {
			return nil, err
		}
		for _, f := range fixes {
			decoded[f.Ref.Index] = f.Data
		}
		loss.repaired(fixes)
	}
	out = make([][]byte, len(positions))
	for k, i := range positions {
		out[k] = decoded[i]
	}
	return out, nil
}

// lossSet is the engine's picture of what the store cannot serve, kept
// between seeds so a round costs no store sweep: the blocks the seed
// found missing minus the repairs committed since, plus the blocks a
// fetch has contradicted the seed about.
type lossSet struct {
	// data and par are the missing blocks in seed order — what repair
	// still has to rebuild, and Stats.Unrepaired* at exit.
	data []int
	par  []lattice.Edge
	// gone holds every block no tuple may be planned over: the missing
	// ones above, and those a prefetch returned nil for although the
	// seed did not list them. The latter are only ever avoided, never
	// rebuilt — the engine has no evidence they should exist (d_{n+1} at
	// the lattice's tail does not) or leave to rebuild them (a missing
	// block the caller's Targets left out). Virtual edges are never
	// enumerated and never fetched, so they are never in it.
	gone map[store.Ref]bool
}

// add lists ref as missing, once.
func (l *lossSet) add(ref store.Ref) {
	if l.gone[ref] {
		return
	}
	l.gone[ref] = true
	if ref.Parity {
		l.par = append(l.par, ref.Edge)
	} else {
		l.data = append(l.data, ref.Index)
	}
}

// refused puts into the set every ref a fetch came back without: no
// later tuple is planned over it.
func (l *lossSet) refused(refs []store.Ref, blocks [][]byte) {
	for idx, b := range blocks {
		if b == nil {
			l.gone[refs[idx]] = true
		}
	}
}

// repaired subtracts one round's committed fixes from the set.
func (l *lossSet) repaired(fixes []store.Block) {
	for _, f := range fixes {
		delete(l.gone, f.Ref)
	}
	l.data = slices.DeleteFunc(l.data, func(i int) bool { return !l.gone[store.DataRef(i)] })
	l.par = slices.DeleteFunc(l.par, func(e lattice.Edge) bool { return !l.gone[store.ParityRef(e)] })
}

// seedLoss builds a run's loss set: everything the store's enumeration
// lists, or — when the caller named Targets — the targets one fetch
// cannot serve.
func seedLoss(ctx context.Context, st Store, opts Options, stats *Stats) (*lossSet, error) {
	loss := &lossSet{gone: make(map[store.Ref]bool)}
	if len(opts.Targets) == 0 {
		missing, err := st.Missing(ctx)
		if err != nil {
			return nil, fmt.Errorf("entangle: enumerating missing blocks: %w", err)
		}
		for _, i := range missing.Data {
			loss.add(store.DataRef(i))
		}
		for _, e := range missing.Parities {
			loss.add(store.ParityRef(e))
		}
		return loss, nil
	}
	blocks, err := fetch(ctx, st, opts.Targets, opts, stats)
	if err != nil {
		return nil, fmt.Errorf("entangle: fetching the repair targets: %w", err)
	}
	for idx, ref := range opts.Targets {
		if blocks[idx] == nil {
			loss.add(ref)
		}
	}
	return loss, nil
}

// job is one planned repair: ref = a ⊕ b, where a and b index the
// round's fetch list and -1 stands for a virtual edge, which reads as
// zeros and is never fetched.
type job struct {
	ref  store.Ref
	a, b int
}

// chooseTuples picks, for every missing block, the first pp-tuple (data)
// or dp-tuple (parity) none of whose members is in the set — the tuple
// the round will XOR if the fetch agrees with the seed — and returns the
// repairs with the deduplicated list of real blocks they read. A block
// with no such tuple sits the round out.
func (r *Repairer) chooseTuples(loss *lossSet, dataOnly bool) ([]job, []store.Ref, error) {
	var jobs []job
	var refs []store.Ref
	fetching := make(map[store.Ref]int)
	slot := func(ref store.Ref) int {
		if ref.Parity && ref.Edge.IsVirtual() {
			return -1
		}
		idx, ok := fetching[ref]
		if !ok {
			idx = len(refs)
			fetching[ref] = idx
			refs = append(refs, ref)
		}
		return idx
	}
	// choose takes the tuple (a, b) for ref unless the set holds a member
	// of it.
	choose := func(ref, a, b store.Ref) bool {
		if loss.gone[a] || loss.gone[b] {
			return false
		}
		jobs = append(jobs, job{ref: ref, a: slot(a), b: slot(b)})
		return true
	}
	for _, i := range loss.data {
		tuples, err := r.lat.Tuples(i)
		if err != nil {
			return nil, nil, err
		}
		for _, t := range tuples {
			if choose(store.DataRef(i), store.ParityRef(t.In), store.ParityRef(t.Out)) {
				break
			}
		}
	}
	if dataOnly {
		return jobs, refs, nil
	}
	for _, e := range loss.par {
		options, err := r.lat.ParityOptions(e)
		if err != nil {
			return nil, nil, err
		}
		for _, opt := range options {
			if choose(store.ParityRef(e), store.DataRef(opt.Data), store.ParityRef(opt.Parity)) {
				break
			}
		}
	}
	return jobs, refs, nil
}

// prefetchAttempts bounds the in-round retries of a fetch, so a short
// ErrUnavailable burst from a flaky backend costs a retry instead of
// aborting the whole repair run.
const prefetchAttempts = 3

// fetch is the engine's one read: a single GetMany over refs, one entry
// back per ref and nil for what the store cannot serve. A failed batch is
// retried a bounded number of times with delay between attempts (flaky
// backends burst; pools need their redial backoff to land). Fetched bytes
// are counted into stats and charged against the rate limiter after the
// batch lands (the debt model: the engine only learns sizes by reading).
func fetch(ctx context.Context, st Store, refs []store.Ref, opts Options, stats *Stats) ([][]byte, error) {
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
			return nil, fmt.Errorf("entangle: block fetch failed after %d attempts: %w", attempt, err)
		}
		if serr := store.SleepCtx(ctx, opts.retryDelay()); serr != nil {
			return nil, serr
		}
	}
	if len(blocks) != len(refs) {
		return nil, fmt.Errorf("entangle: block fetch returned %d entries, want %d", len(blocks), len(refs))
	}
	var fetched int64
	served := 0
	for _, b := range blocks {
		if b != nil {
			fetched += int64(len(b))
			served++
		}
	}
	stats.BytesRead += fetched
	if opts.RateLimit != nil {
		if err := opts.RateLimit.Acquire(ctx, served, fetched); err != nil {
			return nil, err
		}
	}
	return blocks, nil
}

// xorRound computes every job whose two members the fetch returned, each
// into a buffer from the process-wide block pool (commitRound returns
// them; DecodeData hands them to its caller), and lists the repairs in
// job order. A job that lost a member to the fetch is dropped: the member
// is in the loss set by now, so the block moves to another tuple next
// round. Workers stride the job list; when one fails, every buffer drawn
// goes back to the pool.
func xorRound(jobs []job, blocks [][]byte, workers int) ([]store.Block, error) {
	var zero []byte // what a virtual edge reads as; nil while nothing real was fetched
	if i := slices.IndexFunc(blocks, func(b []byte) bool { return b != nil }); i >= 0 {
		zero = store.ZeroBlock(len(blocks[i]))
	}
	member := func(idx int) []byte {
		if idx < 0 {
			return zero
		}
		return blocks[idx]
	}
	workers = max(workers, 1)
	bufs := make([][]byte, len(jobs))
	errs := make([]error, workers)
	work := func(w int) {
		for idx := w; idx < len(jobs); idx += workers {
			a, b := member(jobs[idx].a), member(jobs[idx].b)
			if a == nil || b == nil {
				continue
			}
			bufs[idx] = xorblock.PoolFor(len(a)).Get()
			if err := xorblock.XorInto(bufs[idx], a, b); err != nil {
				errs[w] = fmt.Errorf("entangle: repairing %v: %w", jobs[idx].ref, err)
				return
			}
		}
	}
	// The caller's goroutine is worker 0, so a single worker starts none.
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(0)
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		for _, buf := range bufs {
			if buf != nil {
				xorblock.PoolFor(len(buf)).Put(buf)
			}
		}
		return nil, err
	}
	fixes := make([]store.Block, 0, len(jobs))
	for idx, buf := range bufs {
		if buf != nil {
			fixes = append(fixes, store.Block{Ref: jobs[idx].ref, Data: buf})
		}
	}
	return fixes, nil
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
