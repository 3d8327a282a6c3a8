// Package entangle implements the alpha entanglement encoder and the
// round-based repair engine — the primary contribution of the DSN'18 paper
// (§III "Alpha Entanglement Codes").
//
// The encoder consumes data blocks in lattice order and emits α parity
// blocks per data block, each extending one strand: the entanglement
// function "computes the exclusive-or (XOR) of two consecutive blocks at the
// head of a strand and inserts the output adjacent to the last block"
// (§III). The encoder therefore only needs to keep the current head parity
// of each of the s+(α−1)·p strands in memory — for AE(3,5,5) that is 15
// blocks, exactly the broker memory footprint described in §IV.A.
//
// The repair engine implements the decoder of §III.B: a data block is
// rebuilt from any complete pp-tuple (the two parities adjacent to it on one
// strand, α options), a parity block from either of its two dp-tuples (an
// incident data block plus that block's other parity on the same strand).
// Multiple failures are repaired in synchronous rounds until a fixpoint is
// reached (§V.C.4 "Code Performance").
package entangle

import (
	"fmt"

	"aecodes/internal/lattice"
	"aecodes/internal/xorblock"
)

// Parity is one encoder output: the content of edge Edge. When a puncture
// policy is installed, Stored is false for parities the system chooses not
// to persist (§III "Reducing Storage Overhead"); the encoder still computes
// them because strands must keep growing.
type Parity struct {
	Edge   lattice.Edge
	Data   []byte
	Stored bool
}

// Entanglement is the result of entangling one data block: its lattice
// position and the α parities created by the entanglement function.
type Entanglement struct {
	Index    int
	Parities []Parity
}

// PuncturePolicy decides whether a freshly computed parity should be stored.
// Returning false punctures (drops) the parity.
type PuncturePolicy func(e lattice.Edge) bool

// Encoder entangles a stream of equally sized data blocks into a helical
// lattice. It is not safe for concurrent use; wrap it in a mutex or use one
// encoder per lattice.
type Encoder struct {
	lat       *lattice.Lattice
	blockSize int
	next      int      // position assigned to the next data block (counter c+1)
	heads     [][]byte // current head parity per dense strand id; nil until first use
	puncture  PuncturePolicy
}

// NewEncoder returns an encoder for the given code parameters and block
// size. All data blocks passed to Entangle must have exactly blockSize
// bytes; parities have the same size ("data and parity blocks with identical
// size", §III.B).
func NewEncoder(params lattice.Params, blockSize int) (*Encoder, error) {
	lat, err := lattice.New(params)
	if err != nil {
		return nil, err
	}
	if blockSize <= 0 {
		return nil, fmt.Errorf("entangle: block size must be positive, got %d", blockSize)
	}
	return &Encoder{
		lat:       lat,
		blockSize: blockSize,
		next:      1,
	}, nil
}

// initHeads allocates the strand heads, zero-seeded, on first use: a Code
// that only reads, repairs or checks health never pays for them. Only the
// single-threaded entry points call it; ApplyOp runs after PlanNext has.
func (e *Encoder) initHeads() {
	if e.heads != nil {
		return
	}
	e.heads = make([][]byte, e.lat.Params().StrandCount())
	for i := range e.heads {
		e.heads[i] = make([]byte, e.blockSize)
	}
}

// Lattice returns the lattice geometry the encoder writes into.
func (e *Encoder) Lattice() *lattice.Lattice { return e.lat }

// BlockSize returns the configured block size in bytes.
func (e *Encoder) BlockSize() int { return e.blockSize }

// Next returns the lattice position that the next call to Entangle will
// assign (the paper's counter c, plus one).
func (e *Encoder) Next() int { return e.next }

// SetPuncture installs a puncture policy. A nil policy stores every parity.
func (e *Encoder) SetPuncture(p PuncturePolicy) { e.puncture = p }

// Entangle assigns the next lattice position to data and returns the α
// parities created. The returned parity buffers are private copies; the
// caller owns them. The input slice is retained only for the duration of
// the call.
func (e *Encoder) Entangle(data []byte) (Entanglement, error) {
	e.initHeads()
	return e.entangle(data, func(int) []byte { return make([]byte, e.blockSize) })
}

// EntangleInto is like Entangle but writes the α parities into the supplied
// buffers instead of allocating: bufs must hold exactly α slices of
// blockSize bytes each, and Parities[k].Data aliases bufs[k] on return. The
// caller may recycle the buffers once it is done with the Entanglement —
// together with a xorblock.Pool this makes steady-state encoding
// allocation-free.
func (e *Encoder) EntangleInto(data []byte, bufs [][]byte) (Entanglement, error) {
	if len(bufs) != len(e.lat.Classes()) {
		return Entanglement{}, fmt.Errorf("entangle: got %d parity buffers, want %d", len(bufs), len(e.lat.Classes()))
	}
	for k, b := range bufs {
		if len(b) != e.blockSize {
			return Entanglement{}, fmt.Errorf("entangle: parity buffer %d has %d bytes, want %d", k, len(b), e.blockSize)
		}
	}
	e.initHeads()
	return e.entangle(data, func(k int) []byte { return bufs[k] })
}

// EntangleBatch entangles blocks in order, drawing every parity buffer from
// pool (which must hand out blockSize-byte blocks). The caller owns the
// returned parity buffers and should Put them back into the pool when done.
// A nil pool falls back to plain allocation.
func (e *Encoder) EntangleBatch(blocks [][]byte, pool *xorblock.Pool) ([]Entanglement, error) {
	if pool != nil && pool.BlockSize() != e.blockSize {
		return nil, fmt.Errorf("entangle: pool block size %d, want %d", pool.BlockSize(), e.blockSize)
	}
	e.initHeads()
	alloc := func(int) []byte { return make([]byte, e.blockSize) }
	if pool != nil {
		alloc = func(int) []byte { return pool.Get() }
	}
	out := make([]Entanglement, 0, len(blocks))
	for _, data := range blocks {
		ent, err := e.entangle(data, alloc)
		if err != nil {
			return out, err
		}
		out = append(out, ent)
	}
	return out, nil
}

// entangle is the shared core: buf(k) supplies the output buffer for the
// k-th parity. Each strand head is advanced in place with a single XOR pass
// (head = data XOR head) and copied out once, rather than XOR-allocating a
// fresh block and copying it back into the head.
func (e *Encoder) entangle(data []byte, buf func(k int) []byte) (Entanglement, error) {
	if len(data) != e.blockSize {
		return Entanglement{}, fmt.Errorf("entangle: data block has %d bytes, want %d", len(data), e.blockSize)
	}
	i := e.next
	classes := e.lat.Classes()
	parities := make([]Parity, 0, len(classes))
	for k, class := range classes {
		out, err := e.lat.OutEdge(class, i)
		if err != nil {
			return Entanglement{}, err
		}
		sid, err := e.lat.StrandID(class, i)
		if err != nil {
			return Entanglement{}, err
		}
		// p_{i,j} = d_i XOR p_{h,i}: the fresh parity is also the new head,
		// so compute it directly into the head slot.
		head := e.heads[sid]
		if err := xorblock.XorInto(head, data, head); err != nil {
			return Entanglement{}, err
		}
		dst := buf(k)
		copy(dst, head)
		stored := e.puncture == nil || e.puncture(out)
		parities = append(parities, Parity{Edge: out, Data: dst, Stored: stored})
	}
	e.next++
	return Entanglement{Index: i, Parities: parities}, nil
}

// StrandOp is one strand's share of entangling a single data block, as
// planned by PlanNext. Ops for distinct strand ids are independent; ops for
// the same strand must be applied in the order they were planned.
type StrandOp struct {
	// Index is the lattice position of the data block being entangled.
	Index int
	// StrandID is the dense strand id whose head this op advances.
	StrandID int
	// Edge is the out-edge the resulting parity lives on.
	Edge lattice.Edge
	// Stored reflects the puncture policy at planning time.
	Stored bool
}

// PlanNext reserves the next lattice position and returns the α strand
// operations that entangle it, without touching any block content. It gives
// pipelined encoders the dependency structure of the lattice: PlanNext
// itself must be called serially, but the returned ops may be applied
// concurrently by ApplyOp as long as per-strand order is preserved.
func (e *Encoder) PlanNext() (int, []StrandOp, error) {
	e.initHeads()
	i := e.next
	classes := e.lat.Classes()
	ops := make([]StrandOp, 0, len(classes))
	for _, class := range classes {
		out, err := e.lat.OutEdge(class, i)
		if err != nil {
			return 0, nil, err
		}
		sid, err := e.lat.StrandID(class, i)
		if err != nil {
			return 0, nil, err
		}
		stored := e.puncture == nil || e.puncture(out)
		ops = append(ops, StrandOp{Index: i, StrandID: sid, Edge: out, Stored: stored})
	}
	e.next++
	return i, ops, nil
}

// ApplyOp executes one planned strand operation: the strand head becomes
// data XOR head in a single in-place XOR pass, and the returned Parity's
// Data field aliases that head. The alias is valid only until the next op
// on the same strand is applied; consumers must copy (or transmit) it
// before then. ApplyOp calls for distinct strand ids may run concurrently;
// calls for one strand must be serialised in plan order. ApplyOp must not
// race with Entangle, Heads or RestoreHeads, and applies only what a
// PlanNext planned: the strand heads are allocated there, not here.
func (e *Encoder) ApplyOp(op StrandOp, data []byte) (Parity, error) {
	if len(data) != e.blockSize {
		return Parity{}, fmt.Errorf("entangle: data block has %d bytes, want %d", len(data), e.blockSize)
	}
	if op.StrandID < 0 || op.StrandID >= len(e.heads) {
		return Parity{}, fmt.Errorf("entangle: strand id %d out of range [0,%d)", op.StrandID, len(e.heads))
	}
	head := e.heads[op.StrandID]
	if err := xorblock.XorInto(head, data, head); err != nil {
		return Parity{}, err
	}
	return Parity{Edge: op.Edge, Data: head, Stored: op.Stored}, nil
}

// StrandHead is a snapshot of one strand's current head parity, keyed by the
// dense strand id. Heads returned by Heads can be fed to RestoreHeads to
// resume encoding after a broker crash by refetching the last parity of each
// strand from remote nodes (§IV.A: "If the broker crashes, it only needs to
// retrieve the p-blocks from the remote nodes").
type StrandHead struct {
	StrandID int
	Data     []byte
}

// Heads returns a deep copy of the current strand heads together with the
// next position, forming a complete resumable encoder state.
func (e *Encoder) Heads() (next int, heads []StrandHead) {
	e.initHeads()
	heads = make([]StrandHead, len(e.heads))
	for i, h := range e.heads {
		cp := make([]byte, len(h))
		copy(cp, h)
		heads[i] = StrandHead{StrandID: i, Data: cp}
	}
	return e.next, heads
}

// RestoreHeads reinstates encoder state captured with Heads. It returns an
// error when a head has the wrong size or an out-of-range strand id, or when
// next is not positive.
func (e *Encoder) RestoreHeads(next int, heads []StrandHead) error {
	if next < 1 {
		return fmt.Errorf("entangle: next position must be >= 1, got %d", next)
	}
	e.initHeads()
	for _, h := range heads {
		if h.StrandID < 0 || h.StrandID >= len(e.heads) {
			return fmt.Errorf("entangle: strand id %d out of range [0,%d)", h.StrandID, len(e.heads))
		}
		if len(h.Data) != e.blockSize {
			return fmt.Errorf("entangle: head for strand %d has %d bytes, want %d", h.StrandID, len(h.Data), e.blockSize)
		}
	}
	for _, h := range heads {
		copy(e.heads[h.StrandID], h.Data)
	}
	e.next = next
	return nil
}

// WriteCost returns the paper's write penalty α+1: every logical write
// stores one data block plus α parities (§IV.B.2 "Never-ending Stripe").
func (e *Encoder) WriteCost() int { return e.lat.Params().Alpha + 1 }
