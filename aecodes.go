// Package aecodes implements alpha entanglement codes AE(α, s, p) — the
// practical erasure codes for archival storage in unreliable environments
// introduced by Estrada-Galiñanes, Miller, Felber and Pâris (DSN 2018).
//
// Alpha entanglement codes propagate redundancy instead of grouping blocks
// into fixed stripes: every data block is XOR-tangled into α strands of a
// helical lattice, so its information spreads to an ever-growing mesh of
// interdependent blocks. Single failures always repair with one XOR of two
// blocks, regardless of parameters; the parameters s and p raise fault
// tolerance without any extra storage; and α can be increased later
// without re-encoding existing data.
//
// All storage flows through one context-aware, batch-native dialect: the
// BlockStore interface family. Every backend in the repository — the
// in-memory MemoryStore, the segment-log archive store, the cooperative
// TCP network — speaks it, so the codec, the streaming Archive API and
// the repair engine run unchanged on any of them; implementations agree
// on the ErrNotFound / ErrUnavailable sentinels instead of ad-hoc
// (value, bool) conventions.
//
// # Quick start
//
//	code, err := aecodes.New(aecodes.Params{Alpha: 3, S: 2, P: 5}, 4096)
//	if err != nil { ... }
//	ctx := context.Background()
//	store := aecodes.NewMemoryStore(4096)
//	ent, err := code.Entangle(block)        // α parities for this block
//	for _, p := range ent.Parities {
//		store.PutParity(ctx, p.Edge, p.Data) // place them anywhere durable
//	}
//	store.PutData(ctx, ent.Index, block)
//	...
//	repaired, err := code.RepairData(ctx, store, ent.Index) // one XOR
//
// Whole files stream through NewArchiveWriter and OpenArchive with
// bounded memory: the writer entangles an io.Reader's content through the
// concurrent encode pipeline, the reader reconstructs the exact bytes —
// repairing damaged blocks on the fly — from any BlockStore.
//
// Whole-system recovery after correlated failures uses Repair, which runs
// synchronous repair rounds until every reachable block is regenerated;
// the same rounds restricted to RepairOptions.Targets are how background
// maintenance heals the most fragile blocks first (LatticeHealth.Targets).
// Audit verifies a block against all of its strands, exposing the code's
// anti-tampering property.
//
// The internal packages contain the full evaluation apparatus of the
// paper: the disaster simulator behind Figs 11–13 with its Reed–Solomon
// and replication baselines, the minimal-erasure-pattern searcher behind
// Figs 6–9, the entangled-mirror reliability study, and a cooperative
// backup system with a TCP block transport. DESIGN.md has the system
// inventory: the package map, the commands, and how data flows.
package aecodes

import (
	"context"

	"aecodes/internal/entangle"
	"aecodes/internal/lattice"
	"aecodes/internal/maintain"
	"aecodes/internal/mep"
	"aecodes/internal/store"
)

// Params holds the three code parameters of AE(α, s, p): α parities per
// block, s horizontal strands, p helical strands per class. Valid settings
// are α = 1 with s = 1, p = 0, and α ∈ {2, 3} with 1 ≤ s ≤ p.
type Params = lattice.Params

// Class identifies a strand class (horizontal, right-handed, left-handed).
type Class = lattice.Class

// The strand classes of the helical lattice.
const (
	Horizontal  = lattice.Horizontal
	RightHanded = lattice.RightHanded
	LeftHanded  = lattice.LeftHanded
)

// Edge identifies a parity block p_{Left,Right} on one strand.
type Edge = lattice.Edge

// Lattice answers geometry queries (strand membership, repair tuples) for
// a parameter set.
type Lattice = lattice.Lattice

// Parity is one encoder output: the parity block on Edge.
type Parity = entangle.Parity

// Entanglement is the result of entangling one data block.
type Entanglement = entangle.Entanglement

// ErrNotFound is the sentinel every BlockStore implementation returns
// (wrapped) for a block it cannot currently serve: never written, evicted,
// or sitting on a failed location. Test with errors.Is.
var ErrNotFound = store.ErrNotFound

// ErrUnavailable is the sentinel for a backend that cannot serve requests
// at all (node down, connection lost). Unlike ErrNotFound it says nothing
// about whether the block exists.
var ErrUnavailable = store.ErrUnavailable

// ErrQuotaExceeded is the sentinel a multi-tenant storage node returns
// for a write its admission control refused. It is permanent for that
// write — retrying cannot succeed until the node frees space — so
// callers surface it instead of retrying. Test with errors.Is.
var ErrQuotaExceeded = store.ErrQuotaExceeded

// Source is the read view the repair engine needs: context-aware block
// reads, with ErrNotFound reporting unavailability.
type Source = store.Source

// BlockStore is the unified storage dialect: context-aware single-block
// operations, missing-block enumeration, and the GetMany/PutMany batches
// that let engines move a whole encode batch or repair round in one
// request per backend.
type BlockStore = store.BlockStore

// BlockRef addresses one lattice block: a data position or a parity edge.
type BlockRef = store.Ref

// DataRef returns the ref of data block i.
func DataRef(i int) BlockRef { return store.DataRef(i) }

// ParityRef returns the ref of the parity on edge e.
func ParityRef(e Edge) BlockRef { return store.ParityRef(e) }

// Block pairs a BlockRef with content — the unit of a PutMany batch.
type Block = store.Block

// MissingBlocks enumerates the blocks a store should hold but cannot
// serve.
type MissingBlocks = store.Missing

// MemoryStore is an in-memory BlockStore for tests, tools and examples.
type MemoryStore = entangle.MemoryStore

// NewMemoryStore returns an empty in-memory store for blocks of the given
// size.
func NewMemoryStore(blockSize int) *MemoryStore { return entangle.NewMemoryStore(blockSize) }

// RepairOptions configures repair: round counts, worker fan-out, and —
// shared with background maintenance — the RateLimit, Priority and
// Targets knobs. The zero value runs whole-lattice rounds to fixpoint,
// unmetered; Targets restricts the same rounds to the listed blocks.
type RepairOptions = entangle.Options

// RepairStats summarises a Repair run: rounds, blocks repaired per round,
// bytes read to plan the repairs, and what remained unrepairable.
type RepairStats = entangle.Stats

// RepairPriority labels a repair run in the repair counters; nothing
// schedules by it.
type RepairPriority = entangle.Priority

// The repair priorities.
const (
	PriorityBackground = entangle.PriorityBackground
	PriorityNormal     = entangle.PriorityNormal
	PriorityUrgent     = entangle.PriorityUrgent
)

// RepairLimiter is the rate-limit contract metered repair draws from;
// NewRateLimiter returns the standard token-bucket implementation.
type RepairLimiter = entangle.Limiter

// RateLimiter is a token bucket with bytes/s and ops/s budgets (zero
// disables a dimension), the limiter background maintenance shares
// across its scrub, heal and drain tasks.
type RateLimiter = maintain.Bucket

// NewRateLimiter returns a RateLimiter refilling bytesPerSec and
// opsPerSec tokens per second.
func NewRateLimiter(bytesPerSec, opsPerSec float64) *RateLimiter {
	return maintain.NewBucket(bytesPerSec, opsPerSec)
}

// LatticeHealth is one lattice's repair-urgency snapshot: what is
// missing, how many repair tuples each missing block still has, and an
// urgency score weighting nearly-unrecoverable blocks highest.
type LatticeHealth = entangle.Health

// AuditResult reports a block's consistency against its α strands.
type AuditResult = entangle.AuditResult

// StrandHead is a snapshot of one strand's current head parity, used to
// resume encoding after a crash.
type StrandHead = entangle.StrandHead

// ErasurePattern is a set of blocks whose simultaneous loss is
// irrecoverable; see MinimalErasure.
type ErasurePattern = mep.Pattern

// Code is an alpha entanglement codec: a streaming encoder plus a repair
// engine over one helical lattice. The encoder side carries state (the
// strand heads) and is not safe for concurrent use; the repair side is
// stateless.
type Code struct {
	enc *entangle.Encoder
	rep *entangle.Repairer
}

// New returns a codec for the given parameters and block size in bytes.
func New(params Params, blockSize int) (*Code, error) {
	enc, err := entangle.NewEncoder(params, blockSize)
	if err != nil {
		return nil, err
	}
	rep, err := entangle.NewRepairer(params, blockSize)
	if err != nil {
		return nil, err
	}
	return &Code{enc: enc, rep: rep}, nil
}

// Params returns the code parameters.
func (c *Code) Params() Params { return c.enc.Lattice().Params() }

// BlockSize returns the configured block size in bytes.
func (c *Code) BlockSize() int { return c.enc.BlockSize() }

// Lattice exposes the lattice geometry for placement decisions and
// diagnostics.
func (c *Code) Lattice() *Lattice { return c.enc.Lattice() }

// Next returns the lattice position the next Entangle call will assign.
func (c *Code) Next() int { return c.enc.Next() }

// WriteCost returns the write penalty α+1: blocks written per logical
// write.
func (c *Code) WriteCost() int { return c.enc.WriteCost() }

// Entangle assigns the next lattice position to data and returns the α
// parities created. Store all of them: they are the block's redundancy.
func (c *Code) Entangle(data []byte) (Entanglement, error) {
	return c.enc.Entangle(data)
}

// SetPuncture installs a puncture policy: parities for which the policy
// returns false are computed (strands must grow) but flagged unstored,
// trading fault tolerance for storage (§III "Reducing Storage Overhead").
// A nil policy stores everything.
func (c *Code) SetPuncture(policy func(Edge) bool) {
	if policy == nil {
		c.enc.SetPuncture(nil)
		return
	}
	c.enc.SetPuncture(entangle.PuncturePolicy(policy))
}

// Heads snapshots the encoder state (next position plus one head parity
// per strand) for crash recovery.
func (c *Code) Heads() (next int, heads []StrandHead) { return c.enc.Heads() }

// RestoreHeads reinstates encoder state captured with Heads, or rebuilt by
// re-fetching each strand's last parity from storage.
func (c *Code) RestoreHeads(next int, heads []StrandHead) error {
	return c.enc.RestoreHeads(next, heads)
}

// RepairData rebuilds data block i from the first complete pp-tuple among
// its α strands — always a single XOR of two parity blocks.
func (c *Code) RepairData(ctx context.Context, src Source, i int) ([]byte, error) {
	return c.rep.RepairData(ctx, src, i)
}

// DecodeData rebuilds the data blocks at positions together and writes
// nothing — a repair round that does not commit, the degraded read
// ArchiveReader does for the missing blocks of a window. Every position
// starts on its first pp-tuple, all chosen tuples travel in one GetMany,
// and only the positions whose tuple came back incomplete move to their
// next one: at most α store calls however many positions are asked for.
// The result is parallel to positions, nil where every tuple of a
// position is incomplete.
func (c *Code) DecodeData(ctx context.Context, st BlockStore, positions []int) ([][]byte, error) {
	return c.rep.DecodeData(ctx, st, positions)
}

// RepairParity rebuilds the parity on edge e from either of its two
// dp-tuples (an adjacent data block plus that block's neighbouring parity
// on the same strand).
func (c *Code) RepairParity(ctx context.Context, src Source, e Edge) ([]byte, error) {
	return c.rep.RepairParity(ctx, src, e)
}

// Repair runs synchronous repair rounds over the store until every missing
// block is rebuilt or no more progress is possible. The run is seeded
// once — one Missing call, or with opts.Targets one GetMany of the
// targets, which then are the only blocks it may write; each round then
// fetches only the repair tuple it chose for every missing block — two
// reads per repaired block. A round runs in windows, one after another,
// of at most 32 MiB of fetched and rebuilt blocks: each fetches with one
// GetMany the members no earlier window fetched, commits with a single
// PutMany and hands back what no later window reads. A round that fits
// one window is one GetMany and one PutMany, so a batch-native store
// moves it in one exchange per location, and a larger round holds one
// window at a time whatever was lost. A run stopped by a failed commit
// or the context still reports what its earlier windows committed.
func (c *Code) Repair(ctx context.Context, st BlockStore, opts RepairOptions) (RepairStats, error) {
	return c.rep.Repair(ctx, st, opts)
}

// Health probes st's repair urgency with one Missing enumeration plus
// lattice geometry: no block contents move. blocks is the expected
// data-block count.
func (c *Code) Health(ctx context.Context, st BlockStore, blocks int) (LatticeHealth, error) {
	return c.rep.Health(ctx, st, blocks)
}

// Audit verifies data block i against each of its α strands; a block that
// disagrees with a strand has been modified after entanglement.
func (c *Code) Audit(ctx context.Context, src Source, i int) (AuditResult, error) {
	return c.rep.Audit(ctx, src, i)
}

// TamperScope returns the parities an attacker would have to recompute to
// modify data block i undetectably, given that n blocks have been encoded:
// every parity from the block to the growing end of each of its α strands
// (§III "Anti-tampering Property"). The scope grows with the archive.
func (c *Code) TamperScope(i, n int) ([]Edge, error) {
	return c.enc.Lattice().TamperScope(i, n)
}

// ErrUnrepairable is returned by RepairData and RepairParity when no
// complete repair tuple is currently available.
var ErrUnrepairable = entangle.ErrUnrepairable

// MinimalErasure finds a smallest irreducible erasure pattern containing
// exactly x data blocks for the given parameters — the |ME(x)| fault-
// tolerance metric of the paper's §V.A. It is exhaustive within a window
// that covers all known pattern families; expect exponential cost for
// large x.
func MinimalErasure(params Params, x int) (ErasurePattern, error) {
	return mep.MinimalErasure(params, x, mep.Options{})
}
