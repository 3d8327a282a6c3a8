// Package lattice implements the helical-lattice geometry of alpha
// entanglement codes AE(α, s, p) — §III of the DSN'18 paper.
//
// A lattice is a virtual layer that assigns every data block a node position
// i ≥ 1 and every parity block an edge p_{i,j} connecting two node positions
// on one strand. Nodes live on an s-row cylinder: node i sits at row
// (i−1) mod s and column (i−1) div s. Three strand classes exist:
//
//   - Horizontal (H): stays on its row, i → i+s. Every α uses H.
//   - Right-handed helical (RH): descends with slope +1 and wraps from the
//     bottom row back to the top, skipping ahead so that p distinct RH
//     strands tile the lattice. Used when α ≥ 2.
//   - Left-handed helical (LH): ascends with slope −1 and wraps from the top
//     row to the bottom. Used when α = 3.
//
// The in/out index rules implement Tables I and II of the paper verbatim,
// including the top/central/bottom node categories. For s = 1 every node is
// simultaneously top and bottom and the wrap rules apply on both sides, which
// reproduces the single-row lattices of Fig 3.
//
// Everything in this package is pure index arithmetic: the lattice is
// conceptually infinite ("never-ending stripe", §IV.B.2) and no block content
// is involved.
package lattice

import (
	"errors"
	"fmt"
)

// Class identifies a strand class.
type Class int

// The three strand classes of §III.B.
const (
	Horizontal Class = iota + 1
	RightHanded
	LeftHanded
)

// String returns the class abbreviation used throughout the paper ("h",
// "rh", "lh" — the spelling of Table V).
func (c Class) String() string {
	switch c {
	case Horizontal:
		return "h"
	case RightHanded:
		return "rh"
	case LeftHanded:
		return "lh"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Params holds the three code parameters of AE(α, s, p).
//
// Alpha is the number of parities created per data block and therefore the
// number of strands each node participates in. S is the number of horizontal
// strands and P the number of helical strands per helical class. The paper's
// validity constraints are: α=1 ⇒ s=1 ∧ p=0; α ∈ {2,3} ⇒ 1 ≤ s ≤ p (p < s
// would deform the lattice, §III.B "Code Parameters").
type Params struct {
	Alpha int
	S     int
	P     int
}

// Validate reports whether the parameters describe a well-formed lattice.
func (p Params) Validate() error {
	switch {
	case p.Alpha < 1 || p.Alpha > 3:
		return fmt.Errorf("lattice: alpha must be in [1,3], got %d", p.Alpha)
	case p.Alpha == 1:
		if p.S != 1 || p.P != 0 {
			return fmt.Errorf("lattice: single entanglement requires s=1, p=0, got s=%d p=%d", p.S, p.P)
		}
	default:
		if p.S < 1 {
			return fmt.Errorf("lattice: s must be >= 1, got %d", p.S)
		}
		if p.P < p.S {
			return fmt.Errorf("lattice: p must be >= s (deformed lattice otherwise), got s=%d p=%d", p.S, p.P)
		}
	}
	return nil
}

// String renders the conventional code name, e.g. "AE(3,2,5)" or "AE(1,-,-)".
func (p Params) String() string {
	if p.Alpha == 1 {
		return "AE(1,-,-)"
	}
	return fmt.Sprintf("AE(%d,%d,%d)", p.Alpha, p.S, p.P)
}

// StorageOverhead returns the additional-storage factor α (i.e. α·100 % of
// the data volume, Table IV row "AS").
func (p Params) StorageOverhead() int { return p.Alpha }

// CodeRate returns the code rate 1/(α+1) (§III.B).
func (p Params) CodeRate() float64 { return 1 / float64(p.Alpha+1) }

// StrandCount returns the total number of strands, s + (α−1)·p (§III.B).
func (p Params) StrandCount() int { return p.S + (p.Alpha-1)*p.P }

// Edge identifies a parity block p_{Left,Right} on one strand class. Edges
// are uniquely keyed by (Class, Left): the parity is created when the encoder
// processes node Left. An edge with Left < 1 is virtual: it represents the
// implicit all-zero seed at the start of a strand and is always readable.
type Edge struct {
	Class Class
	Left  int
	Right int
}

// IsVirtual reports whether the edge is a strand seed that precedes the
// first real node of the lattice.
func (e Edge) IsVirtual() bool { return e.Left < 1 }

// String renders the paper's p_{i,j} notation tagged with the strand class.
func (e Edge) String() string { return fmt.Sprintf("p[%s]{%d,%d}", e.Class, e.Left, e.Right) }

// Tuple is a pp-tuple: the pair of parities adjacent to a data node on one
// strand, XOR of which reconstructs the node (§IV.A "repairing d-blocks
// requires complete pp-tuples").
type Tuple struct {
	In  Edge // p_{h,i}
	Out Edge // p_{i,j}
}

// ParityOption is a dp-tuple: one data node plus the parity adjacent to it
// on the damaged edge's strand, XOR of which reconstructs the edge
// (§IV.A "repairing p-blocks requires complete dp-tuples").
type ParityOption struct {
	Data   int  // d_i or d_j
	Parity Edge // p_{h,i} or p_{j,k}
}

// Lattice answers geometry queries for a fixed parameter set.
type Lattice struct {
	params  Params
	classes []Class
}

// New returns a lattice for the given parameters.
// It returns an error if the parameters are invalid.
func New(params Params) (*Lattice, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	classes := []Class{Horizontal}
	if params.Alpha >= 2 {
		classes = append(classes, RightHanded)
	}
	if params.Alpha >= 3 {
		classes = append(classes, LeftHanded)
	}
	return &Lattice{params: params, classes: classes}, nil
}

// Params returns the code parameters of the lattice.
func (l *Lattice) Params() Params { return l.params }

// Classes returns the strand classes active for this α, in H, RH, LH order.
// The returned slice is shared; callers must not modify it.
func (l *Lattice) Classes() []Class { return l.classes }

// Row returns the lattice row of node i, in [0, s). Positions ≤ 0 (virtual
// seed territory) are mapped with Euclidean modulo so that strand arithmetic
// stays consistent across the origin.
func (l *Lattice) Row(i int) int {
	s := l.params.S
	return ((i-1)%s + s) % s
}

// Col returns the lattice column of node i (floor division, so columns are
// negative before the origin).
func (l *Lattice) Col(i int) int {
	s := l.params.S
	n := i - 1
	if n < 0 && n%s != 0 {
		return n/s - 1
	}
	return n / s
}

// IsTop reports whether node i is a top node (i ≡ 1 mod s; for s=1 every
// node is top).
func (l *Lattice) IsTop(i int) bool { return l.Row(i) == 0 }

// IsBottom reports whether node i is a bottom node (i ≡ 0 mod s; for s=1
// every node is bottom).
func (l *Lattice) IsBottom(i int) bool { return l.Row(i) == l.params.S-1 }

// Category returns the paper's node category name for diagnostics.
func (l *Lattice) Category(i int) string {
	switch {
	case l.params.S == 1:
		return "top+bottom"
	case l.IsTop(i):
		return "top"
	case l.IsBottom(i):
		return "bottom"
	default:
		return "central"
	}
}

// Backward returns h such that p_{h,i} is the in-edge of node i on the given
// class — Table I of the paper. h may be ≤ 0 near the lattice origin, in
// which case the edge is virtual (zero seed).
func (l *Lattice) Backward(class Class, i int) (int, error) {
	s, p := l.params.S, l.params.P
	switch class {
	case Horizontal:
		return i - s, nil
	case RightHanded:
		if l.params.Alpha < 2 {
			return 0, fmt.Errorf("lattice: %v has no RH strands", l.params)
		}
		if l.IsTop(i) { // wrap-in from the previous revolution
			return i - s*p + (s*s - 1), nil
		}
		return i - (s + 1), nil
	case LeftHanded:
		if l.params.Alpha < 3 {
			return 0, fmt.Errorf("lattice: %v has no LH strands", l.params)
		}
		if l.IsBottom(i) { // wrap-in from the previous revolution
			return i - s*p + (s-1)*(s-1), nil
		}
		return i - (s - 1), nil
	default:
		return 0, fmt.Errorf("lattice: unknown class %v", class)
	}
}

// Forward returns j such that p_{i,j} is the out-edge of node i on the given
// class — Table II of the paper.
func (l *Lattice) Forward(class Class, i int) (int, error) {
	s, p := l.params.S, l.params.P
	switch class {
	case Horizontal:
		return i + s, nil
	case RightHanded:
		if l.params.Alpha < 2 {
			return 0, fmt.Errorf("lattice: %v has no RH strands", l.params)
		}
		if l.IsBottom(i) { // wrap-out to the next revolution
			return i + s*p - (s*s - 1), nil
		}
		return i + s + 1, nil
	case LeftHanded:
		if l.params.Alpha < 3 {
			return 0, fmt.Errorf("lattice: %v has no LH strands", l.params)
		}
		if l.IsTop(i) { // wrap-out to the next revolution
			return i + s*p - (s-1)*(s-1), nil
		}
		return i + s - 1, nil
	default:
		return 0, fmt.Errorf("lattice: unknown class %v", class)
	}
}

// InEdge returns the in-edge p_{h,i} of node i on the given class.
func (l *Lattice) InEdge(class Class, i int) (Edge, error) {
	h, err := l.Backward(class, i)
	if err != nil {
		return Edge{}, err
	}
	return Edge{Class: class, Left: h, Right: i}, nil
}

// OutEdge returns the out-edge p_{i,j} of node i on the given class.
func (l *Lattice) OutEdge(class Class, i int) (Edge, error) {
	j, err := l.Forward(class, i)
	if err != nil {
		return Edge{}, err
	}
	return Edge{Class: class, Left: i, Right: j}, nil
}

// RealOutEdges returns the storable (non-virtual) out-edges of positions
// 1..n — the expected parity set of an n-block lattice — each edge once,
// in first-seen (position, class) order. This is the one enumeration
// Missing implementations and conformance tests share, so "which
// parities should exist" cannot drift between backends.
func (l *Lattice) RealOutEdges(n int) []Edge {
	seen := make(map[Edge]bool)
	var out []Edge
	for i := 1; i <= n; i++ {
		for _, class := range l.classes {
			e, err := l.OutEdge(class, i)
			if err != nil || e.IsVirtual() || seen[e] {
				continue
			}
			seen[e] = true
			out = append(out, e)
		}
	}
	return out
}

// Tuples returns the α pp-tuples of node i, one per strand class, each able
// to reconstruct d_i as In XOR Out.
func (l *Lattice) Tuples(i int) ([]Tuple, error) {
	if i < 1 {
		return nil, fmt.Errorf("lattice: node position must be >= 1, got %d", i)
	}
	tuples := make([]Tuple, 0, len(l.classes))
	for _, c := range l.classes {
		in, err := l.InEdge(c, i)
		if err != nil {
			return nil, err
		}
		out, err := l.OutEdge(c, i)
		if err != nil {
			return nil, err
		}
		tuples = append(tuples, Tuple{In: in, Out: out})
	}
	return tuples, nil
}

// ParityOptions returns the two dp-tuples able to reconstruct edge e:
// (d_Left, in-edge of Left) and (d_Right, out-edge of Right). For virtual
// edges there is nothing to reconstruct and an error is returned.
func (l *Lattice) ParityOptions(e Edge) ([]ParityOption, error) {
	if e.IsVirtual() {
		return nil, errors.New("lattice: virtual edges are constant zero and need no repair")
	}
	in, err := l.InEdge(e.Class, e.Left)
	if err != nil {
		return nil, err
	}
	out, err := l.OutEdge(e.Class, e.Right)
	if err != nil {
		return nil, err
	}
	return []ParityOption{
		{Data: e.Left, Parity: in},
		{Data: e.Right, Parity: out},
	}, nil
}

// StrandIndex returns the 0-based index of the strand of the given class
// passing through node i: the row for H, (col−row) mod p for RH and
// (col+row) mod p for LH. These labels are invariant along a strand,
// including across wraps.
func (l *Lattice) StrandIndex(class Class, i int) (int, error) {
	r, c := l.Row(i), l.Col(i)
	p := l.params.P
	switch class {
	case Horizontal:
		return r, nil
	case RightHanded:
		if l.params.Alpha < 2 {
			return 0, fmt.Errorf("lattice: %v has no RH strands", l.params)
		}
		return ((c-r)%p + p) % p, nil
	case LeftHanded:
		if l.params.Alpha < 3 {
			return 0, fmt.Errorf("lattice: %v has no LH strands", l.params)
		}
		return ((c+r)%p + p) % p, nil
	default:
		return 0, fmt.Errorf("lattice: unknown class %v", class)
	}
}

// StrandID returns a dense identifier in [0, StrandCount()) for the strand
// of the given class through node i: H strands first, then RH, then LH.
func (l *Lattice) StrandID(class Class, i int) (int, error) {
	idx, err := l.StrandIndex(class, i)
	if err != nil {
		return 0, err
	}
	switch class {
	case Horizontal:
		return idx, nil
	case RightHanded:
		return l.params.S + idx, nil
	default: // LeftHanded; StrandIndex already rejected invalid classes.
		return l.params.S + l.params.P + idx, nil
	}
}

// TamperScope returns the parities an attacker must recompute to modify
// data block i undetectably in a lattice whose last encoded node is n: on
// each of the α strands, every parity from the block's out-edge to the
// strand's growing end (§III "Anti-tampering Property"). The count grows
// without bound as the lattice grows, which is what makes silent
// modification progressively harder in an append-only store.
func (l *Lattice) TamperScope(i, n int) ([]Edge, error) {
	if i < 1 || i > n {
		return nil, fmt.Errorf("lattice: node %d outside encoded range [1,%d]", i, n)
	}
	var edges []Edge
	for _, class := range l.classes {
		for cur := i; cur <= n; {
			e, err := l.OutEdge(class, cur)
			if err != nil {
				return nil, err
			}
			edges = append(edges, e)
			cur = e.Right
		}
	}
	return edges, nil
}
