// Package store defines the unified storage dialect of the repository: a
// context-aware, batch-native BlockStore interface that every backend —
// in-memory maps, directory archives, clustered locations, remote TCP
// nodes — implements, so the encoder pipeline and the repair engine run
// unchanged on top of any of them.
//
// The interface family is layered:
//
//   - Source is the read view the repair engine needs.
//   - Single adds writes and missing-block enumeration — enough for
//     round-based whole-system repair, one block per call.
//   - BlockStore adds the batch operations GetMany/PutMany, letting a
//     round of reads or a commit of writes travel as one request per
//     backend (one frame per TCP node, one lock acquisition in memory).
//
// Backends that are naturally single-block implement Single and are
// promoted with Batch (which wraps them in a BatchAdapter); batch-capable
// backends implement BlockStore directly and Batch returns them as-is.
//
// Below the ref dialect sits the lower tier's one contract, Keyed: what a
// storage node serves — blocks under opaque keys, single and batched,
// with consume-before-return writes and lending batch reads. The
// transport server, the tenant registry and the durable lattice view are
// all written against it, and cooperative.NodeStore is the same contract
// as a broker sees it through the wire. It is stated here, once; the
// other packages point at it.
//
// Availability is reported through sentinel errors, not (value, bool)
// pairs: a read of a block the store cannot currently serve returns
// ErrNotFound (the block is missing or its location is down), and a
// backend that cannot serve anything at all returns ErrUnavailable.
// Implementations agree on these sentinels so callers can use errors.Is
// across backends.
package store

import (
	"context"
	"errors"
	"fmt"

	"aecodes/internal/lattice"
)

// ErrNotFound reports a block the store does not currently hold: never
// written, evicted, or sitting on a failed location. Repair engines treat
// it as "missing, try to regenerate".
var ErrNotFound = errors.New("aecodes: block not found")

// ErrUnavailable reports a backend that cannot serve requests at all
// (node down, connection lost). Unlike ErrNotFound it says nothing about
// whether the block exists.
var ErrUnavailable = errors.New("aecodes: storage unavailable")

// ErrQuotaExceeded reports a write refused by admission control: the
// tenant (or the node) is out of byte or block budget. It is a permanent
// condition for the write that triggered it — retrying the same write
// cannot succeed until space is freed — so brokers and the repair engine
// surface it instead of retrying.
var ErrQuotaExceeded = errors.New("aecodes: storage quota exceeded")

// KV is one key/block pair of a keyed batch write, shared by the keyed
// lower-tier backends (the TCP transport and cooperative storage nodes).
type KV struct {
	Key  string
	Data []byte
}

// Keyed is the lower tier's one contract: a storage node that puts and
// gets blocks under "a value derived from the node id and the block
// position" (§IV.A, Table III). Every store a transport.Server serves
// implements all of it — the in-memory transport.MemStore, the durable
// segstore.Store, a tenant.Store view of either — so one wire frame is
// one call, whatever the store. Implementations must be safe for
// concurrent use.
//
// Consume-before-return is the unconditional write contract: by the time
// Put or PutBatch returns, the store has copied or written out every
// data slice it was handed and keeps no alias. Callers recycle those
// buffers the moment the call returns (the transport server's pooled
// receive buffer, the broker's upload arena), so a store that retained
// one would read recycled garbage. aelint's retainedput analyzer proves
// it for every implementation in the repository and storetest.RunKeyed
// exercises it at runtime.
//
// Lending is the batch read contract, its mirror: ReadBatch hands fn
// blocks the store still owns — a pooled read arena, or the stored
// slices themselves — so a node serves a batch without a buffer per
// block.
// Every block fn sees is valid only until fn returns and must never be
// modified; fn may rewrite the outer slice's entries. No store lock is
// held while fn runs, so fn may block on the network, and writes,
// deletes and compactions that complete meanwhile do not change the
// bytes fn holds. A caller that keeps a block copies it inside fn;
// retainedput proves that no callback in the repository keeps one.
type Keyed interface {
	// Get returns the block and whether it exists.
	Get(key string) ([]byte, bool)
	// Put stores a block.
	Put(key string, data []byte) error
	// Del removes a block; deleting a missing key is not an error.
	Del(key string)
	// ReadBatch calls fn once with one entry per key in order: the
	// block lent under the contract above, nil for a missing key (a
	// present-but-empty block is a non-nil empty slice). It returns fn's
	// error.
	ReadBatch(keys []string, fn func(blocks [][]byte) error) error
	// PutBatch stores all items in order, so the last write of a key
	// wins; the first failing entry aborts the batch and earlier entries
	// may have been stored.
	PutBatch(items []KV) error
	// StatBatch returns one entry per key in order: the block's byte
	// length when present, -1 when absent. It agrees with ReadBatch on
	// every block not corrupted at rest since the store last verified it;
	// a store that finds a block corrupt stops listing it.
	StatBatch(keys []string) []int
}

// Ref addresses one lattice block: a data position (Parity false) or a
// parity edge (Parity true).
type Ref struct {
	Parity bool
	Index  int          // data position when Parity is false
	Edge   lattice.Edge // parity edge when Parity is true
}

// DataRef returns the ref of data block i.
func DataRef(i int) Ref { return Ref{Index: i} }

// ParityRef returns the ref of the parity on edge e.
func ParityRef(e lattice.Edge) Ref { return Ref{Parity: true, Edge: e} }

// String renders the ref in the paper's block notation.
func (r Ref) String() string {
	if r.Parity {
		return fmt.Sprintf("p%d,%d(%v)", r.Edge.Left, r.Edge.Right, r.Edge.Class)
	}
	return fmt.Sprintf("d%d", r.Index)
}

// Block pairs a ref with block content, the unit of a batch write.
type Block struct {
	Ref  Ref
	Data []byte
}

// Missing enumerates the blocks a store knows it should hold but cannot
// currently serve.
type Missing struct {
	// Data lists unavailable data positions, ascending.
	Data []int
	// Parities lists unavailable parity edges in a deterministic order
	// (by class, then left index).
	Parities []lattice.Edge
}

// Empty reports whether nothing is missing.
func (m Missing) Empty() bool { return len(m.Data) == 0 && len(m.Parities) == 0 }

// Source is the read view the repair engine needs. Implementations must
// treat virtual edges (Edge.IsVirtual) as always available with all-zero
// content; ZeroBlock helps with that. Reads of blocks the store cannot
// serve return an error wrapping ErrNotFound.
type Source interface {
	// GetData returns the content of data block i.
	GetData(ctx context.Context, i int) ([]byte, error)
	// GetParity returns the content of the parity on edge e.
	GetParity(ctx context.Context, e lattice.Edge) ([]byte, error)
}

// Single extends Source with single-block writes and missing-block
// enumeration: the minimal mutable store, one block per call.
//
// Put implementations must not retain b after returning (copy it, or
// transmit it before returning): the engines recycle block buffers
// through a pool the moment a Put call completes. Every store in this
// repository complies.
type Single interface {
	Source
	// PutData stores (or restores) a data block.
	PutData(ctx context.Context, i int, b []byte) error
	// PutParity stores (or restores) a parity block.
	PutParity(ctx context.Context, e lattice.Edge, b []byte) error
	// Missing enumerates every block the store should hold but cannot
	// serve. Batch-capable backends may use one bulk fetch per location
	// to answer, seeding any read cache they keep for the round.
	Missing(ctx context.Context) (Missing, error)
}

// BlockStore is the full dialect: single-block operations plus batches.
// All in-repo backends implement it (directly, or via Batch).
//
// GetMany is the repair engine's round-prefetch primitive, so its
// partial-result semantics are load-bearing: a nil entry means "this
// block cannot be served right now" whatever the reason — never written,
// evicted, or sitting on a location that is down — and is NOT an error.
// The error return is reserved for failures of the batch itself (context
// cancellation, a backend that cannot serve anything, a malformed
// response). Under concurrent faults the result must stay internally
// consistent: every returned non-nil entry holds the full content that
// block had at some point during the call, and the entry count always
// matches the ref count. Missing must agree with the same availability
// view — a block GetMany would return nil for is either enumerated by
// Missing or outside the store's expected set — except for a block
// corrupted at rest that no read has found yet: it may be listed present
// until a GetMany returns nil for it, and is enumerated from then on.
//
// Implementations must be safe for concurrent use. The encode pipeline
// calls PutMany from all of its workers at once, and a streaming archive
// reader keeps one GetMany running in the background (the next window)
// while the goroutine it is read from may issue another.
type BlockStore interface {
	Single
	// GetMany returns one entry per ref in order; entries for blocks the
	// store cannot serve are nil — a missing block or an unavailable
	// location is not an error. The error return is reserved for failures
	// of the batch itself.
	GetMany(ctx context.Context, refs []Ref) ([][]byte, error)
	// PutMany stores all blocks, applied in order; the first failing
	// entry aborts the batch and earlier entries may have been stored.
	// Like the single-block puts, implementations must not retain the
	// Data slices after returning.
	PutMany(ctx context.Context, blocks []Block) error
}

// Get dispatches a single-block read through a ref.
func Get(ctx context.Context, src Source, r Ref) ([]byte, error) {
	if r.Parity {
		return src.GetParity(ctx, r.Edge)
	}
	return src.GetData(ctx, r.Index)
}

// Put dispatches a single-block write through a ref.
func Put(ctx context.Context, s Single, b Block) error {
	if b.Ref.Parity {
		return s.PutParity(ctx, b.Ref.Edge, b.Data)
	}
	return s.PutData(ctx, b.Ref.Index, b.Data)
}

// ZeroBlock returns an all-zero block of the given size, backing every
// virtual-edge read. Callers must not mutate the returned slice when an
// implementation chooses to share one.
func ZeroBlock(size int) []byte { return make([]byte, size) }

// Batch promotes a Single to the full BlockStore dialect: stores that are
// already batch-native are returned unchanged, anything else is wrapped
// in a BatchAdapter.
func Batch(s Single) BlockStore {
	if bs, ok := s.(BlockStore); ok {
		return bs
	}
	return BatchAdapter{Single: s}
}

// BatchAdapter synthesizes GetMany/PutMany for a single-block backend by
// looping, honouring context cancellation between blocks. It adds no
// concurrency of its own: the adapter is as goroutine-safe as the store
// it wraps.
type BatchAdapter struct {
	Single
}

var _ BlockStore = BatchAdapter{}

// GetMany implements BlockStore: one Get per ref, with unavailability
// mapped to a nil entry — ErrNotFound and ErrUnavailable both mean "this
// block cannot be served right now", matching the batch-native backends'
// partial-result semantics so the repair engine's prefetch behaves the
// same over an adapter as over a native store. Any other error aborts
// the batch.
func (a BatchAdapter) GetMany(ctx context.Context, refs []Ref) ([][]byte, error) {
	out := make([][]byte, len(refs))
	for i, r := range refs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		b, err := Get(ctx, a.Single, r)
		if errors.Is(err, ErrNotFound) || errors.Is(err, ErrUnavailable) {
			continue
		}
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

// PutMany implements BlockStore: one Put per block, in order, first error
// aborts.
func (a BatchAdapter) PutMany(ctx context.Context, blocks []Block) error {
	for _, b := range blocks {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := Put(ctx, a.Single, b); err != nil {
			return err
		}
	}
	return nil
}

// Putter is the write slice of the dialect the encode pipeline needs: it
// delivers data blocks and freshly computed parities. Every BlockStore is
// a Putter.
type Putter interface {
	PutData(ctx context.Context, i int, b []byte) error
	PutParity(ctx context.Context, e lattice.Edge, b []byte) error
}
