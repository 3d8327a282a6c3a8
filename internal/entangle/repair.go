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

// windowBytes bounds what one window of a repair round holds: the blocks
// it fetched, or carries for a later window, and the blocks it rebuilt.
const windowBytes = 32 << 20

// Repairer rebuilds missing blocks using the lattice geometry. Repairers are
// stateless and safe for concurrent use.
//
// The repairer reads through the context-aware Source dialect and treats
// any read error as "block unavailable" — a node that cannot be reached
// holds nothing this round. Context cancellation is checked at every
// tuple search and round boundary and surfaces as ctx.Err().
type Repairer struct {
	lat *lattice.Lattice
	// window is how many blocks one window of a repair round may hold:
	// windowBytes of the block size, at least one. Only tests change it.
	window int
}

// NewRepairer returns a repairer for the given code parameters and block
// size in bytes; the block size sizes the windows Repair runs its rounds
// in.
func NewRepairer(params lattice.Params, blockSize int) (*Repairer, error) {
	lat, err := lattice.New(params)
	if err != nil {
		return nil, err
	}
	if blockSize <= 0 {
		return nil, fmt.Errorf("entangle: block size must be positive, got %d", blockSize)
	}
	return &Repairer{lat: lat, window: max(windowBytes/blockSize, 1)}, nil
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
	// BytesRead counts the block bytes the repairs read — the numerator
	// of blocks-read-per-repaired-block. The engine reads only the tuple a
	// repair uses: at most two blocks per repaired block, fewer where a
	// tuple member is a virtual edge or is shared between two repairs of
	// one round. A companion a store read to rebuild a parity in place
	// (store.XorPutter) counts as if the engine had fetched it, so the
	// figure counts repair reads wherever they happen, not bytes that
	// crossed into the engine. A targeted run also reads each target the
	// store still serves, once.
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
// each missing block, one repair tuple none of whose members is in the set
// — the paper's two reads per repaired block, fewer where the round's
// repairs share a member, and the planner picks the tuples that do (see
// shareReads) — and runs the plan in windows that together hold at most
// 32 MiB of fetched and rebuilt blocks. A window fetches with one GetMany
// the chosen tuple members no earlier window fetched, XORs its repairs,
// commits them with a single PutMany and hands back (store.Release) every
// block no later window reads. A round that fits one window runs it so,
// in line: one GetMany and one PutMany, which a batch-native store moves
// in a constant number of requests per storage location. A round that
// needs more windows is cut at half the bound and runs them two deep:
// window k's commit runs on a goroutine while window k+1 fetches and
// XORs, and is waited for before window k+1's commit starts; the last
// window commits in line. A round's memory is thus bounded whatever was
// lost. No round writes a block one of its tuples reads, so its windows
// read exactly what one fetch of the whole plan would: every worker reads
// the pre-round state, whatever the worker count, the cut or the overlap.
// The statistics, the loss set and the counters are kept on the caller's
// goroutine, once a commit has been waited for; Options.RateLimit may be
// charged by a commit and the next fetch at once.
//
// On a store that rebuilds in place (store.XorPutter), a parity the round
// repairs from a dp-tuple whose parity member — the companion — the store
// reports in place with it is not XORed by the engine: the round fetches
// only the data member d and hands it to one XorPutMany, and the store
// stores d ⊕ companion where the companion lives. Every other repair
// takes the fetch and the PutMany. The pushes go out in the round's first
// window, beside its commit — on a broker their data members are its own
// blocks, which cost no memory — and no push reads a block the round
// writes, so a round that fits one window stays a fetch and one write
// deep. A push reads, like every repair of the round, only blocks present
// when the round started, so rounds, repairs and reads come out as on any
// other store. A companion the store cannot serve is handled as a nil
// fetch entry.
//
// A block the seed called present but a fetch cannot return (corrupted at
// rest since, on a node that just went away, beyond the lattice's extent
// at the tail, or — on a targeted run — missing without being a target)
// is remembered as unusable: no later tuple is planned over it, it is
// never written, and the blocks that wanted it move to their other tuples
// next round. The engine seeds again only after a stalled round tolerated
// by Options.Patience; the statistics' Unrepaired lists are the engine's
// set at exit.
//
// A window whose fetch still fails after its retries ends the round with
// what the windows before it committed; the rest of the plan is planned
// again next round. A window whose commit fails, or a context that ends,
// stops the run. Whatever stops a round, the commit in flight is waited
// for first — no goroutine outlives Repair — and it counts if and only if
// it returned nil: the statistics, and the repair counters, count exactly
// the commits that landed, the stopped round in PerRound included.
func (r *Repairer) Repair(ctx context.Context, st Store, opts Options) (Stats, error) {
	stats, windows, err := r.repair(ctx, st, opts)
	recordRepairObs(opts, stats, windows, err)
	return stats, err
}

// repair is Repair without the counters; it also returns how many
// windows the run's rounds ran.
func (r *Repairer) repair(ctx context.Context, st Store, opts Options) (stats Stats, windows int, err error) {
	xp, _ := st.(store.XorPutter) // nil: the engine XORs every repair
	var loss *lossSet             // nil: seed before the next round
	stalled := 0
	for opts.MaxRounds <= 0 || stats.Rounds < opts.MaxRounds {
		if err := ctx.Err(); err != nil {
			return stats, windows, err
		}
		if loss == nil {
			var err error
			if loss, err = seedLoss(ctx, st, opts, &stats); err != nil {
				return stats, windows, err
			}
		}
		if len(loss.data) == 0 && (opts.DataOnly || len(loss.par) == 0) {
			break
		}

		// Plan from the set, then fetch, XOR and commit the plan window by
		// window; the round's repairs become visible to the next.
		p, err := r.chooseTuples(ctx, loss, opts.DataOnly, xp)
		if err != nil {
			return stats, windows, err
		}
		var done []store.Ref
		var fetchErr error
		if len(p.refs) > 0 {
			var n int
			done, n, fetchErr, err = r.runRound(ctx, st, xp, p, loss, opts, &stats)
			windows += n
			if err != nil {
				stats.addRound(done) // what earlier windows committed is on disk
				return stats, windows, err
			}
		}

		if len(done) == 0 {
			if len(p.refs) > 0 && fetchErr == nil {
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
					return stats, windows, fmt.Errorf("entangle: prefetching round %d: %w", stats.Rounds+1, fetchErr)
				}
				break
			}
			if serr := store.SleepCtx(ctx, opts.retryDelay()); serr != nil {
				return stats, windows, serr
			}
			loss = nil
			continue
		}
		stalled = 0
		loss.repaired(done)
		stats.addRound(done)
	}
	stats.UnrepairedData = loss.data
	stats.UnrepairedParities = loss.par
	return stats, windows, nil
}

// addRound records a round that committed done. Rounds counts productive
// rounds only, whatever unproductive iterations were interleaved:
// PerRound[i].Round == i+1 always holds, and the Table VI round count
// stays comparable across stable and flaky backends.
func (s *Stats) addRound(done []store.Ref) {
	if len(done) == 0 {
		return
	}
	s.Rounds++
	rs := RoundStats{Round: s.Rounds}
	for _, ref := range done {
		if ref.Parity {
			rs.ParityRepaired++
		} else {
			rs.DataRepaired++
		}
	}
	s.PerRound = append(s.PerRound, rs)
	s.DataRepaired += rs.DataRepaired
	s.ParityRepaired += rs.ParityRepaired
	if s.Rounds == 1 {
		s.FirstRoundData = rs.DataRepaired
	}
}

// runRound runs one round's plan window by window — fetch, XOR, commit,
// release — and returns the refs the windows committed and how many
// windows ran. A round cut into several windows runs them two deep: the
// commit of window k runs on a goroutine while window k+1 fetches and
// XORs, and is waited for before window k+1's commit starts, so at most
// one commit is ever in flight and the last one runs in line. A round
// that fits one window commits it in line, as one fetch and one write.
// Bookkeeping — done, the loss set, stats — happens only here, once a
// commit has been waited for, and only for a commit that returned nil.
//
// A window fetch that fails after its retries ends the round and comes
// back as fetchErr; any other failure stops it and comes back as err.
// Either way the commit in flight is waited for first, and done holds
// what the windows that committed wrote.
func (r *Repairer) runRound(ctx context.Context, st Store, xp store.XorPutter, p plan, loss *lossSet, opts Options, stats *Stats) (done []store.Ref, windows int, fetchErr, err error) {
	cut := r.cut(p, r.window)
	if len(cut.jobs) > 1 {
		// Two windows are held at once — one commits while the next
		// fetches and XORs — so each holds half of what one may.
		cut = r.cut(p, max(r.window/2, 1))
	}
	// blocks parallels p.refs: an entry holds its block from the window
	// that fetches it to the commit of the last window that reads it.
	blocks := make([][]byte, len(p.refs))
	defer func() { store.Release(st, blocks) }() // what a stopped round still holds
	var inflight *windowCommit
	// settle waits for the commit in flight, books it when it returned
	// nil and hands back every block no later window reads.
	settle := func() error {
		c := inflight
		if c == nil {
			return nil
		}
		inflight = nil
		<-c.done
		if c.err != nil {
			return fmt.Errorf("entangle: committing round %d: %w", stats.Rounds+1, c.err)
		}
		done = append(done, c.book(loss, stats)...)
		// Neither PutMany nor XorPutMany keeps what it was given.
		held := make([][]byte, 0, len(cut.release[c.window]))
		for _, idx := range cut.release[c.window] {
			held = append(held, blocks[idx])
			blocks[idx] = nil
		}
		store.Release(st, held)
		return nil
	}
	for w, jobs := range cut.jobs {
		if idxs := cut.fetch[w]; len(idxs) > 0 {
			refs := make([]store.Ref, len(idxs))
			for k, idx := range idxs {
				refs[k] = p.refs[idx]
			}
			got, err := fetch(ctx, st, refs, opts, stats)
			if err == nil {
				for k, idx := range idxs {
					blocks[idx] = got[k]
				}
			}
			if cerr := ctx.Err(); cerr != nil {
				settle() // counted only if it landed; the run ends with ctx's error either way
				return done, windows, nil, cerr
			}
			if err != nil {
				if serr := settle(); serr != nil {
					return done, windows, nil, serr
				}
				return done, windows, err, nil
			}
			loss.refused(refs, got)
		}
		windows++
		fixes, err := xorRound(jobs, blocks, opts.Workers)
		if serr := settle(); serr != nil || err != nil {
			recycle(fixes)
			return done, windows, nil, errors.Join(serr, err)
		}
		var items []store.XorPut
		var reads []bool
		if w == 0 {
			items, reads = p.sendable(blocks)
		}
		inflight = startCommit(ctx, st, xp, w, items, reads, fixes, opts, w < len(cut.jobs)-1)
	}
	err = settle()
	return done, windows, nil, err
}

// windowCommit is one window's writes, run in line or on a goroutine
// beside the next window's fetch and XOR: the XORed fixes with a single
// PutMany and, in the round's first window on a store that rebuilds in
// place, the sendable pushes with a single XorPutMany in flight beside
// it. Neither reads what the other writes. Until done is closed only the
// goroutine running the writes touches applied and err.
type windowCommit struct {
	window  int
	fixed   []store.Ref // the fixes' refs
	items   []store.XorPut
	reads   []bool
	applied []bool
	err     error
	done    chan struct{}
}

// startCommit starts window's writes — on a goroutine when async — and
// returns them in flight.
func startCommit(ctx context.Context, st Store, xp store.XorPutter, window int, items []store.XorPut, reads []bool, fixes []store.Block, opts Options, async bool) *windowCommit {
	c := &windowCommit{window: window, fixed: blockRefs(fixes), items: items, reads: reads, done: make(chan struct{})}
	if async {
		go c.write(ctx, st, xp, fixes, opts) // runRound waits for c.done on every path
	} else {
		c.write(ctx, st, xp, fixes, opts)
	}
	return c
}

// write runs the commit's writes and closes c.done. The fixes' pooled
// buffers go back to the pool once the writes return: store
// implementations copy (or transmit) on PutMany — see the Store contract
// — which keeps repair allocation-free in steady state.
func (c *windowCommit) write(ctx context.Context, st Store, xp store.XorPutter, fixes []store.Block, opts Options) {
	defer close(c.done)
	defer recycle(fixes)
	var pushErr error
	var wg sync.WaitGroup
	if len(c.items) > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.applied, pushErr = pushRound(ctx, xp, c.items, c.reads, opts)
		}()
	}
	var putErr error
	if len(fixes) > 0 {
		putErr = putRound(ctx, st, fixes, opts)
	}
	wg.Wait()
	c.err = errors.Join(putErr, pushErr)
}

// book returns the refs a commit that returned nil wrote: its fixes, and
// the pushes the store applied. A push answered false puts its companion
// into the loss set, as a nil fetch entry would, so its parity moves to
// its other dp-tuple next round; one that read a companion no fetch read
// counts that read in stats.
func (c *windowCommit) book(loss *lossSet, stats *Stats) []store.Ref {
	done := c.fixed
	for k, ok := range c.applied {
		if !ok {
			loss.gone[blockKey(c.items[k].Src)] = true
			continue
		}
		done = append(done, c.items[k].Dst)
		if c.reads[k] {
			stats.BytesRead += int64(len(c.items[k].Data))
		}
	}
	return done
}

// recycle hands fixes' buffers back to the block pool.
func recycle(fixes []store.Block) {
	for _, f := range fixes {
		xorblock.PoolFor(len(f.Data)).Put(f.Data)
	}
}

// putRound writes a window's XORed fixes with a single PutMany, charged
// to the rate limiter first.
func putRound(ctx context.Context, st Store, fixes []store.Block, opts Options) error {
	if opts.RateLimit != nil {
		var commitBytes int64
		for _, f := range fixes {
			commitBytes += int64(len(f.Data))
		}
		if err := opts.RateLimit.Acquire(ctx, len(fixes), commitBytes); err != nil {
			return err
		}
	}
	return st.PutMany(ctx, fixes)
}

// pushRound hands the round's sendable pushes to the store with a single
// XorPutMany, charged to the rate limiter first as the fetch and commit
// it replaces would have been: a write per push, and a read per item that
// reads a companion the round's fetch did not. It returns one answer per
// item.
func pushRound(ctx context.Context, xp store.XorPutter, items []store.XorPut, reads []bool, opts Options) ([]bool, error) {
	if opts.RateLimit != nil {
		var ops int
		var size int64
		for k, it := range items {
			n := 1
			if reads[k] {
				n = 2
			}
			ops += n
			size += int64(n * len(it.Data))
		}
		if err := opts.RateLimit.Acquire(ctx, ops, size); err != nil {
			return nil, err
		}
	}
	applied, err := xp.XorPutMany(ctx, items)
	if err != nil {
		return nil, fmt.Errorf("rebuilding %d parities in place: %w", len(items), err)
	}
	if len(applied) != len(items) {
		return nil, fmt.Errorf("in-place rebuild answered %d entries, want %d", len(applied), len(items))
	}
	return applied, nil
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
// twice. That is why it does not pick shared tuples as Repair's rounds
// do: a pass that mixed classes could fetch again, in a later pass, a
// block an earlier one returned.
//
// The result is parallel to positions: the rebuilt block — drawn from the
// process-wide pool and the caller's to keep — or nil where no tuple is
// complete, as for any position beyond the lattice's extent, whose
// out-edges were never written.
func (r *Repairer) DecodeData(ctx context.Context, st Store, positions []int) (out [][]byte, err error) {
	loss := &lossSet{gone: make(map[int64]bool)}
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
		cands, named, err := r.candidates(loss, true)
		if err != nil {
			return nil, err
		}
		p := planRound(ctx, cands, named, nil, nil)
		if len(p.jobs) == 0 {
			break
		}
		blocks, err := fetch(ctx, st, p.refs, Options{}, &stats)
		if err != nil {
			return nil, err
		}
		loss.refused(p.refs, blocks)
		fixes, err := xorRound(p.jobs, blocks, 1)
		store.Release(st, blocks)
		if err != nil {
			return nil, err
		}
		for _, f := range fixes {
			decoded[f.Ref.Index] = f.Data
		}
		loss.repaired(blockRefs(fixes))
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
	// block the caller's Targets left out) — and the companions an
	// in-place rebuild was refused over. Virtual edges are never
	// enumerated, fetched or pushed, so they are never in it. Blocks are
	// keyed by blockKey.
	gone map[int64]bool
}

// add lists ref as missing, once.
func (l *lossSet) add(ref store.Ref) {
	if l.gone[blockKey(ref)] {
		return
	}
	l.gone[blockKey(ref)] = true
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
			l.gone[blockKey(refs[idx])] = true
		}
	}
}

// repaired subtracts one round's committed repairs from the set.
func (l *lossSet) repaired(refs []store.Ref) {
	for _, ref := range refs {
		delete(l.gone, blockKey(ref))
	}
	l.data = slices.DeleteFunc(l.data, func(i int) bool { return !l.gone[blockKey(store.DataRef(i))] })
	l.par = slices.DeleteFunc(l.par, func(e lattice.Edge) bool { return !l.gone[blockKey(store.ParityRef(e))] })
}

// seedLoss builds a run's loss set: everything the store's enumeration
// lists, or — when the caller named Targets — the targets one fetch
// cannot serve.
func seedLoss(ctx context.Context, st Store, opts Options, stats *Stats) (*lossSet, error) {
	loss := &lossSet{gone: make(map[int64]bool)}
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
	store.Release(st, blocks)
	return loss, nil
}

// job is one planned repair: ref = a ⊕ b, where a and b index the
// round's fetch list and -1 stands for a virtual edge, which reads as
// zeros and is never fetched.
type job struct {
	ref  store.Ref
	a, b int
}

// push is one planned in-place rebuild: the store writes ref = a ⊕
// companion where the companion lives, a indexing the round's fetch list
// and cid numbering the companion as candidates does.
type push struct {
	ref, companion store.Ref
	a              int
	cid            int32
}

// plan is one round's repairs: jobs the engine XORs from the fetched
// refs, and pushes a store that rebuilds in place runs. slots maps each
// block candidates numbered to its index in refs plus one, or to zero
// when the round fetches it not.
type plan struct {
	jobs   []job
	pushes []push
	refs   []store.Ref
	slots  []int
}

// sendable lists the pushes whose data member the fetch returned as
// XorPutMany items. reads[k] is true when item k is the first to read a
// companion no window of the round fetches: what the push adds to the
// round's reads.
func (p plan) sendable(blocks [][]byte) (items []store.XorPut, reads []bool) {
	read := make([]bool, len(p.slots))
	for _, j := range p.pushes {
		d := blocks[j.a]
		if d == nil {
			continue
		}
		items = append(items, store.XorPut{Dst: j.ref, Src: j.companion, Data: d})
		reads = append(reads, p.slots[j.cid] == 0 && !read[j.cid])
		read[j.cid] = true
	}
	return items, reads
}

// position is the lattice position a stored block belongs to: a data
// block's own, a parity's left endpoint (the block that produced it).
func position(r store.Ref) int {
	if r.Parity {
		return r.Edge.Left
	}
	return r.Index
}

// windows is one round's plan cut into the windows Repair runs in order,
// two deep: jobs[w] are window w's repairs in plan order, fetch[w] indexes
// the refs it fetches — those no earlier window fetched — and release[w]
// those no later window reads, handed back once it has committed. The
// round's pushes go out in window 0, which fetches their data members.
type windows struct {
	jobs           [][]job
	fetch, release [][]int
}

// cut splits p into windows of at most window blocks each, counting the
// fetched blocks a window reads or carries for a later one and the blocks
// it rebuilds; a window takes at least one job. Jobs are taken in lattice
// order, each at the last position it touches, so the members neighbouring
// repairs share are mostly read by one window and seldom carried to the
// next, and each window keeps its jobs and fetches in plan order: a
// round that fits one window runs the plan as it stands. A push's data
// member is fetched by window 0 and counted only where a job reads it:
// on a broker it is a block of its own.
func (r *Repairer) cut(p plan, window int) windows {
	order := make([]int, len(p.jobs))
	for k := range order {
		order[k] = k
	}
	// A parity rebuilt from its right dp-tuple sits beside the repairs
	// that share its data member.
	at := make([]int, len(p.jobs))
	for k, j := range p.jobs {
		at[k] = position(j.ref)
		for _, idx := range [2]int{j.a, j.b} {
			if idx >= 0 {
				at[k] = max(at[k], position(p.refs[idx]))
			}
		}
	}
	slices.SortStableFunc(order, func(x, y int) int { return at[x] - at[y] })
	lastJob := make([]int, len(p.refs)) // the last job in order to read each ref
	for s, k := range order {
		for _, idx := range [2]int{p.jobs[k].a, p.jobs[k].b} {
			if idx >= 0 {
				lastJob[idx] = s
			}
		}
	}
	first := make([]int, len(p.refs)) // the window fetching each ref
	last := make([]int, len(p.refs))  // the window releasing each ref
	for idx := range first {
		first[idx] = -1
	}
	win := make([]int, len(p.jobs))
	// held is what window w holds so far; open counts the fetched refs a
	// job still to come reads, which the next window carries.
	w, held, open, taken := 0, 0, 0, 0
	for s, k := range order {
		members := [2]int{p.jobs[k].a, p.jobs[k].b}
		fresh := 0
		for _, idx := range members {
			if idx >= 0 && first[idx] < 0 {
				fresh++
			}
		}
		if taken > 0 && held+fresh+1 > window {
			w, held, taken = w+1, open, 0
		}
		for _, idx := range members {
			if idx >= 0 && first[idx] < 0 {
				first[idx] = w
				open++
			}
		}
		held += fresh + 1
		taken++
		win[k] = w
		for _, idx := range members {
			if idx >= 0 && lastJob[idx] == s {
				last[idx] = w
				open--
			}
		}
	}
	for _, ps := range p.pushes {
		first[ps.a] = 0
	}
	cut := windows{jobs: make([][]job, w+1), fetch: make([][]int, w+1), release: make([][]int, w+1)}
	for k, j := range p.jobs {
		cut.jobs[win[k]] = append(cut.jobs[win[k]], j)
	}
	for idx := range p.refs {
		cut.fetch[first[idx]] = append(cut.fetch[first[idx]], idx)
		cut.release[last[idx]] = append(cut.release[last[idx]], idx)
	}
	return cut
}

// option is one repair tuple of a missing block, ref = a ⊕ b: a pp-tuple
// (a the in-edge, b the out-edge) of a data block, a dp-tuple (a the data
// member, b the parity member — the companion) of a parity. ia and ib
// number the members among the real blocks the round's options name; a
// virtual member is -1.
type option struct {
	a, b   store.Ref
	ia, ib int32
}

// candidate is a missing block and its complete options — those none of
// whose members is in the loss set — in the lattice's order: by strand
// class for a data block, left before right for a parity.
type candidate struct {
	ref     store.Ref
	options []option
}

// candidates lists every missing block that has a complete option — data
// blocks in the set's order, then, unless dataOnly, parities — and how
// many real blocks their options name. A block with no complete option
// sits the round out. The options of all candidates share one array.
func (r *Repairer) candidates(loss *lossSet, dataOnly bool) ([]candidate, int, error) {
	n := len(r.lat.Classes()) * len(loss.data)
	if !dataOnly {
		n += 2 * len(loss.par)
	}
	all := make([]option, 0, n)
	ids := make(map[int64]int32, n)
	id := func(ref store.Ref) int32 {
		if ref.Parity && ref.Edge.IsVirtual() {
			return -1
		}
		key := blockKey(ref)
		v, ok := ids[key]
		if !ok {
			v = int32(len(ids))
			ids[key] = v
		}
		return v
	}
	out := make([]candidate, 0, len(loss.data)+len(loss.par))
	// complete keeps the options appended since from that no member of
	// which is in the set.
	complete := func(ref store.Ref, from int) {
		kept := slices.DeleteFunc(all[from:], func(o option) bool { return loss.gone[blockKey(o.a)] || loss.gone[blockKey(o.b)] })
		all = all[:from+len(kept)]
		if len(kept) == 0 {
			return
		}
		for x := range kept {
			kept[x].ia, kept[x].ib = id(kept[x].a), id(kept[x].b)
		}
		out = append(out, candidate{ref: ref, options: kept[:len(kept):len(kept)]})
	}
	for _, i := range loss.data {
		tuples, err := r.lat.Tuples(i)
		if err != nil {
			return nil, 0, err
		}
		from := len(all)
		for _, t := range tuples {
			all = append(all, option{a: store.ParityRef(t.In), b: store.ParityRef(t.Out)})
		}
		complete(store.DataRef(i), from)
	}
	if !dataOnly {
		for _, e := range loss.par {
			dp, err := r.lat.ParityOptions(e)
			if err != nil {
				return nil, 0, err
			}
			from := len(all)
			for _, o := range dp {
				all = append(all, option{a: store.DataRef(o.Data), b: store.ParityRef(o.Parity)})
			}
			complete(store.ParityRef(e), from)
		}
	}
	return out, len(ids), nil
}

// blockKey packs a block's identity — its position and, for a parity,
// its strand class, which with the position names the edge — into one
// integer, a cheaper map key than the Ref itself.
func blockKey(ref store.Ref) int64 {
	if ref.Parity {
		return int64(ref.Edge.Left)<<2 | int64(ref.Edge.Class)
	}
	return int64(ref.Index) << 2
}

// shareReads picks an option for every candidate so that the round reads
// few of the blocks their options name, and returns the picks parallel to
// cands. A candidate with a single option takes it first. Every other
// one, in lattice order, takes the option with the fewest members the
// round does not read yet; among equals the one whose unread members the
// options of the most candidates still to pick also use, so a block a
// later repair can share is read early; then the earlier option. A
// virtual member costs nothing. An option whose data member lies past
// reach — the highest position the loss set names — comes last whatever
// it shares: that block may lie beyond the lattice's end, and a fetch
// that misses it would cost its parity the round.
//
// The picks depend on nothing but cands and reach, so a store that
// rebuilds in place is planned exactly as a plain one: its pushes read the
// companions the plain plan fetches.
func shareReads(cands []candidate, blocks, reach int) []int {
	beyond := func(o option) bool { return !o.a.Parity && o.a.Index > reach }
	// uses holds, per block the round does not read yet, how many options
	// of candidates still to pick read it; a block the round reads holds
	// read.
	const read = -1
	uses := make([]int32, blocks)
	count := func(c candidate, delta int32) {
		for _, o := range c.options {
			if beyond(o) {
				continue
			}
			for _, m := range [2]int32{o.ia, o.ib} {
				if m >= 0 && uses[m] != read {
					uses[m] += delta
				}
			}
		}
	}
	take := func(o option) {
		for _, m := range [2]int32{o.ia, o.ib} {
			if m >= 0 {
				uses[m] = read
			}
		}
	}
	picks := make([]int, len(cands))
	var open []int // candidates with a choice, in lattice order
	for k, c := range cands {
		if len(c.options) == 1 {
			take(c.options[0])
		} else {
			open = append(open, k)
			count(c, 1)
		}
	}
	slices.SortStableFunc(open, func(x, y int) int { return position(cands[x].ref) - position(cands[y].ref) })
	for _, k := range open {
		c := cands[k]
		count(c, -1) // its own options are no reason to read a block
		best, bestCost, bestShare := -1, 0, int32(0)
		for x, o := range c.options {
			cost, share := 0, int32(0)
			for _, m := range [2]int32{o.ia, o.ib} {
				if m >= 0 && uses[m] != read {
					cost++
					share += uses[m]
				}
			}
			if beyond(o) {
				cost += 3 // after every option within reach
			}
			if best < 0 || cost < bestCost || cost == bestCost && share > bestShare {
				best, bestCost, bestShare = x, cost, share
			}
		}
		picks[k] = best
		take(c.options[best])
	}
	return picks
}

// reach is the highest position the set names: every data block up to it
// lies within the lattice.
func (l *lossSet) reach() int {
	top := 0
	for _, i := range l.data {
		top = max(top, i)
	}
	for _, e := range l.par {
		top = max(top, e.Left)
	}
	return top
}

// chooseTuples plans a repair round: for every missing block with a
// complete option, the option shareReads picks — the tuple the round will
// XOR if the fetch agrees with the seed — with the deduplicated list of
// real blocks the repairs read. With xp, a parity whose chosen companion
// xp reports in place with it becomes a push.
func (r *Repairer) chooseTuples(ctx context.Context, loss *lossSet, dataOnly bool, xp store.XorPutter) (plan, error) {
	cands, blocks, err := r.candidates(loss, dataOnly)
	if err != nil {
		return plan{}, err
	}
	return planRound(ctx, cands, blocks, shareReads(cands, blocks, loss.reach()), xp), nil
}

// planRound turns each candidate's picked option — its first when picks
// is nil — into a job, or with xp into a push where the store holds the
// companion in place with the parity. blocks is what candidates counted.
func planRound(ctx context.Context, cands []candidate, blocks int, picks []int, xp store.XorPutter) plan {
	p := plan{slots: make([]int, blocks)}
	slot := func(ref store.Ref, id int32) int {
		if id < 0 {
			return -1
		}
		if p.slots[id] == 0 {
			p.refs = append(p.refs, ref)
			p.slots[id] = len(p.refs)
		}
		return p.slots[id] - 1
	}
	for k, c := range cands {
		o := c.options[0]
		if picks != nil {
			o = c.options[picks[k]]
		}
		if xp != nil && c.ref.Parity && o.ib >= 0 && xp.InPlace(ctx, c.ref, o.b) {
			p.pushes = append(p.pushes, push{ref: c.ref, companion: o.b, a: slot(o.a, o.ia), cid: o.ib})
			continue
		}
		p.jobs = append(p.jobs, job{ref: c.ref, a: slot(o.a, o.ia), b: slot(o.b, o.ib)})
	}
	return p
}

// blockRefs lists the refs of blocks.
func blockRefs(blocks []store.Block) []store.Ref {
	refs := make([]store.Ref, len(blocks))
	for i, b := range blocks {
		refs[i] = b.Ref
	}
	return refs
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
// into a buffer from the process-wide block pool (commitWindow returns
// them; DecodeData hands them to its caller), and lists the repairs in
// job order. It keeps no fetched block: the caller releases the fetch
// once the window is done with it. A job that lost a member to the fetch
// is dropped: the member is in the loss set by now, so the block moves
// to another tuple next round. Workers stride the job list; when one
// fails, every buffer drawn goes back to the pool.
func xorRound(jobs []job, blocks [][]byte, workers int) ([]store.Block, error) {
	var zero []byte // what a virtual edge reads as: zeros the size of a real member beside one
	for _, j := range jobs {
		if m := max(j.a, j.b); min(j.a, j.b) < 0 && blocks[m] != nil {
			zero = store.ZeroBlock(len(blocks[m]))
			break
		}
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
