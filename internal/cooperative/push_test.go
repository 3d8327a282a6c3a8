package cooperative

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"

	"aecodes/internal/entangle"
	"aecodes/internal/lattice"
	"aecodes/internal/store"
)

// bareNode shows the broker an in-memory node through NodeStore alone: a
// node without the optional ops.
type bareNode struct{ NodeStore }

// refusingNode answers the in-place rebuild the way a node built before
// it does.
type refusingNode struct{ *InMemoryNode }

func (n refusingNode) XorPutMany(ctx context.Context, items []store.XorKV) ([]bool, error) {
	n.mu.Lock()
	n.xorPutCalls++
	n.mu.Unlock()
	return nil, errors.New("transport: remote error: unknown op")
}

// kindedSystem is stripedSystem over nodes of one kind: "current"
// in-memory nodes, "bare" ones without the optional ops, or "refusing"
// ones that refuse the in-place rebuild.
func kindedSystem(t *testing.T, kind string, n int) (*Broker, []*InMemoryNode, [][]byte) {
	t.Helper()
	mems := make([]*InMemoryNode, 4)
	nodes := make([]NodeStore, len(mems))
	for i := range mems {
		mems[i] = NewInMemoryNode()
		switch kind {
		case "current":
			nodes[i] = mems[i]
		case "bare":
			nodes[i] = bareNode{mems[i]}
		case "refusing":
			nodes[i] = refusingNode{mems[i]}
		default:
			t.Fatalf("unknown node kind %q", kind)
		}
	}
	b, err := NewRoutedBroker("alice", testParams, 16, newStripeRouter("alice", 64, nodes))
	if err != nil {
		t.Fatal(err)
	}
	return b, mems, buildBrokerSystem(t, b, n, 17)
}

// TestRepairParityOnNode is Table III's single-parity repair, one lost
// parity handed to Repair as its only target: a parity whose dp-tuple
// companion shares its node is rebuilt there — steps 4–5 run on the node
// — while a parity whose companion sits on another node, or any parity
// on nodes without the op or refusing it, is fetched, XORed and uploaded
// by the broker. Every way restores the original bytes on the parity's
// own node, also when the first tuple's companion is gone and the second
// tuple serves.
func TestRepairParityOnNode(t *testing.T) {
	lat, err := lattice.New(testParams)
	if err != nil {
		t.Fatal(err)
	}
	colocated, err := lat.OutEdge(lattice.Horizontal, 10) // companion p(8,10): stripe 0 as well
	if err != nil {
		t.Fatal(err)
	}
	straddling, err := lat.OutEdge(lattice.Horizontal, 65) // companion p(63,65): stripe 0, on another node
	if err != nil {
		t.Fatal(err)
	}
	repairOne := func(t *testing.T, b *Broker, e lattice.Edge) {
		t.Helper()
		stats, err := b.Repair(bg, entangle.Options{Targets: []store.Ref{store.ParityRef(e)}})
		if err != nil {
			t.Fatalf("Repair(%v): %v", e, err)
		}
		if stats.ParityRepaired != 1 || stats.DataRepaired != 0 || len(stats.UnrepairedParities) != 0 {
			t.Fatalf("Repair(%v) = %+v, want the one parity rebuilt", e, stats)
		}
	}
	for _, kind := range []string{"current", "bare", "refusing"} {
		for _, e := range []lattice.Edge{colocated, straddling} {
			b, _, _ := kindedSystem(t, kind, 200)
			opts, err := lat.ParityOptions(e)
			if err != nil {
				t.Fatal(err)
			}
			onNode := kind == "current" && nodeOf(t, b, opts[0].Parity) == nodeOf(t, b, e)
			if onNode != (kind == "current" && e == colocated) {
				t.Fatalf("%v: the placement this test relies on changed", e)
			}
			home, key := nodeOf(t, b, e), b.parityKey(e)
			want, _ := home.blocks.Get(key)
			home.blocks.Del(key)
			xor0, pair0 := repairCounters()
			repairOne(t, b, e)
			if got, _ := home.blocks.Get(key); !bytes.Equal(got, want) {
				t.Fatalf("%s %v: the rebuilt parity differs from the original", kind, e)
			}
			xor1, pair1 := repairCounters()
			if onNode && (xor1-xor0 != 1 || pair1 != pair0) || !onNode && (xor1 != xor0 || pair1-pair0 != 1) {
				t.Errorf("%s %v: counted %d node / %d broker rebuilds, want %d / %d",
					kind, e, xor1-xor0, pair1-pair0, btoi(onNode), btoi(!onNode))
			}
		}
	}

	// A parity whose first companion is gone is rebuilt from the second
	// dp-tuple, and the companion, not a target, stays missing.
	b, _, _ := kindedSystem(t, "current", 200)
	opts, err := lat.ParityOptions(colocated)
	if err != nil {
		t.Fatal(err)
	}
	home, key := nodeOf(t, b, colocated), b.parityKey(colocated)
	want, _ := home.blocks.Get(key)
	home.blocks.Del(key)
	companion, companionKey := nodeOf(t, b, opts[0].Parity), b.parityKey(opts[0].Parity)
	companion.blocks.Del(companionKey)
	repairOne(t, b, colocated)
	if got, _ := home.blocks.Get(key); !bytes.Equal(got, want) {
		t.Fatal("the parity rebuilt from the second dp-tuple differs from the original")
	}
	if _, ok := companion.blocks.Get(companionKey); ok {
		t.Error("a targeted repair wrote the first tuple's companion, which was not a target")
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestRepairFallsBackToBroker: the same loss — a sixth of the parities
// and a third of the user's blocks — repaired over current nodes, over
// nodes without the in-place rebuild and over nodes that refuse it ends
// with the same bytes everywhere: whatever no node rebuilds, the broker
// does.
func TestRepairFallsBackToBroker(t *testing.T) {
	const n = 400
	for _, kind := range []string{"current", "bare", "refusing"} {
		b, mems, originals := kindedSystem(t, kind, n)
		rng := rand.New(rand.NewSource(23))
		dropped := make(map[lattice.Edge][]byte)
		for i := 1; i <= n; i++ {
			if rng.Float64() < 0.33 {
				b.DropLocal(i)
			}
			for _, class := range b.rep.Lattice().Classes() {
				e, err := b.rep.Lattice().OutEdge(class, i)
				if err != nil {
					t.Fatal(err)
				}
				if rng.Float64() < 0.16 {
					home, key := nodeOf(t, b, e), b.parityKey(e)
					dropped[e], _ = home.blocks.Get(key)
					home.blocks.Del(key)
				}
			}
		}
		resetAll(mems)
		xor0, pair0 := repairCounters()
		stats, err := b.Repair(bg, entangle.Options{})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if left := len(stats.UnrepairedData) + len(stats.UnrepairedParities); left != 0 || stats.ParityRepaired != len(dropped) {
			t.Fatalf("%s: repaired %d of %d parities, %d blocks left", kind, stats.ParityRepaired, len(dropped), left)
		}
		checkRestored(t, b, dropped)
		for i := 1; i <= n; i++ {
			if got, err := b.Read(bg, i); err != nil || !bytes.Equal(got, originals[i]) {
				t.Fatalf("%s: Read(%d) after repair: wrong content or error %v", kind, i, err)
			}
		}
		xor1, pair1 := repairCounters()
		onNode, byBroker := xor1-xor0, pair1-pair0
		if onNode+byBroker != int64(len(dropped)) || (kind == "current") != (onNode > 0) {
			t.Errorf("%s: counted %d node and %d broker rebuilds of %d parities", kind, onNode, byBroker, len(dropped))
		}
		if f, _ := countFrames(mems); kind == "refusing" && (f.xorPut == 0 || f.xorPut > len(mems)) {
			t.Errorf("nodes were asked %d times to rebuild in place, want at least once and at most once each", f.xorPut)
		}
	}
}
