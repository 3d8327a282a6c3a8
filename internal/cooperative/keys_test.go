package cooperative

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"aecodes/internal/blockstore"
	"aecodes/internal/lattice"
	"aecodes/internal/store"
)

// TestKeysMatchFmtSpelling: block names are a persisted format, so the
// strconv-built keys must be the bytes fmt.Sprintf spelled — for random
// edges with virtual, negative and extreme positions and classes outside
// the three the lattice knows — through every builder: store's, the
// blockstore forwarders, and the broker's single and bulk keys, under a
// short user and one longer than the broker's stack buffer.
func TestKeysMatchFmtSpelling(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pos := func() int {
		switch rng.Intn(4) {
		case 0:
			return rng.Intn(21) - 10 // around the virtual strand seeds
		case 1:
			return rng.Int()
		case 2:
			return -rng.Int()
		default:
			return []int{math.MaxInt, math.MinInt, 0, 1}[rng.Intn(4)]
		}
	}
	edges := make([]lattice.Edge, 3000)
	for k := range edges {
		edges[k] = lattice.Edge{Class: lattice.Class(rng.Intn(6)), Left: pos(), Right: pos()}
	}
	for k := range edges {
		e := edges[k]
		want := fmt.Sprintf("p:%s:%d:%d", e.Class, e.Left, e.Right)
		if got := store.ParityKey(e); got != want {
			t.Fatalf("store.ParityKey(%+v) = %q, want %q", e, got, want)
		}
		if got := string(store.AppendParityKey([]byte("x/"), e)); got != "x/"+want {
			t.Fatalf("store.AppendParityKey(x/, %+v) = %q, want %q", e, got, "x/"+want)
		}
		if got := blockstore.ParityKey(e); got != want {
			t.Fatalf("blockstore.ParityKey(%+v) = %q, want %q", e, got, want)
		}
		i := pos()
		want = fmt.Sprintf("d:%d", i)
		if got := store.DataKey(i); got != want {
			t.Fatalf("store.DataKey(%d) = %q, want %q", i, got, want)
		}
		if got := blockstore.DataKey(i); got != want {
			t.Fatalf("blockstore.DataKey(%d) = %q, want %q", i, got, want)
		}
	}
	for _, user := range []string{"alice", strings.Repeat("u", 100)} {
		b, err := NewBroker(user, testParams, testBlockSize, []NodeStore{NewInMemoryNode()})
		if err != nil {
			t.Fatal(err)
		}
		bulk := b.parityKeys(len(edges), func(k int) lattice.Edge { return edges[k] })
		if len(bulk) != len(edges) {
			t.Fatalf("parityKeys returned %d keys for %d edges", len(bulk), len(edges))
		}
		for k, e := range edges {
			want := fmt.Sprintf("%s/p:%s:%d:%d", user, e.Class, e.Left, e.Right)
			if got := b.parityKey(e); got != want {
				t.Fatalf("parityKey(%+v) = %q, want %q", e, got, want)
			}
			if bulk[k] != want {
				t.Fatalf("parityKeys entry %d = %q, want %q", k, bulk[k], want)
			}
		}
	}
}
