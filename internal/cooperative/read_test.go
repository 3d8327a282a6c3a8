package cooperative

// Tests of Read's two ways of decoding a pp-tuple: a node-side XOR when
// one node holds the tuple whole, the pair fetch otherwise.
// TestClusterShapedTraffic pins the frames each way costs, virtual
// in-edges at the lattice head included.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"aecodes/internal/entangle"
	"aecodes/internal/store"
	"aecodes/internal/transport"
)

var _ xorNode = (*transport.PoolClient)(nil)

// plainNode hides XorMany: the broker sees only NodeStore, as it does
// through a decorator that forwards nothing else.
type plainNode struct{ NodeStore }

// refusingXorNode answers XorMany with err and counts the calls; the rest
// of NodeStore is its InMemoryNode's.
type refusingXorNode struct {
	*InMemoryNode
	err   error
	calls int
}

func (n *refusingXorNode) XorMany(ctx context.Context, keys []string) ([][]byte, error) {
	n.calls++
	return nil, n.err
}

// TestReadSkipsWrongSizeParity: a parity of the wrong length on a node is
// missing — Read decodes from another tuple and Repair converges — on
// both read paths: the pair fetch (three nodes that cannot XOR) and the
// node-side XOR (one node, which holds every tuple whole).
func TestReadSkipsWrongSizeParity(t *testing.T) {
	const pos = 20
	for _, tc := range []struct {
		name  string
		nodes int
		plain bool
	}{{"pair fetch", 3, true}, {"node xor", 1, false}} {
		t.Run(tc.name, func(t *testing.T) {
			_, mems := newNetwork(tc.nodes)
			nodes := make([]NodeStore, len(mems))
			for i, m := range mems {
				nodes[i] = m
				if tc.plain {
					nodes[i] = plainNode{m}
				}
			}
			b, err := NewBroker("alice", testParams, 64, nodes)
			if err != nil {
				t.Fatal(err)
			}
			originals := buildBrokerSystem(t, b, 40, 17)
			tuples, err := b.rep.Lattice().Tuples(pos)
			if err != nil {
				t.Fatal(err)
			}
			out := tuples[0].Out
			key := b.parityKey(out)
			if err := mems[flatIndex(t, b, key, out)].Put(bg, key, []byte("short")); err != nil {
				t.Fatal(err)
			}

			b.DropLocal(pos)
			xor0, _ := readCounters()
			if got, err := b.Read(bg, pos); err != nil || !bytes.Equal(got, originals[pos]) {
				t.Fatalf("Read(%d) with a 5-byte parity in its first tuple: wrong content or error %v", pos, err)
			}
			if xor1, _ := readCounters(); (xor1 > xor0) == tc.plain {
				t.Fatalf("Read counted %d node XORs through nodes that can XOR: %v", xor1-xor0, !tc.plain)
			}
			b.DropLocal(pos)
			if _, err := b.Repair(bg, entangle.Options{}); err != nil {
				t.Fatalf("Repair with a 5-byte parity on a node: %v", err)
			}
			if got, err := b.Read(bg, pos); err != nil || !bytes.Equal(got, originals[pos]) {
				t.Fatalf("Read(%d) after Repair: wrong content or error %v", pos, err)
			}
		})
	}
}

// TestReadXorFailures: a node that refuses XorMany has the tuple fetched
// as a pair instead, and the block decodes. A node that cannot be reached
// leaves each tuple missing, as a failed GetMany would: Read asks no node
// for the pair, tries every tuple once, and falls back to a repair —
// which succeeds here because only the XOR is broken.
func TestReadXorFailures(t *testing.T) {
	const pos = 25
	for _, tc := range []struct {
		name               string
		err                error
		wantXor, wantPairs int
		wantRepair         bool
	}{
		{"refused", errors.New("transport: remote error: unknown op"), 1, 1, false},
		{"unreachable", fmt.Errorf("transport: connection fault: %w", store.ErrUnavailable), testParams.Alpha, 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			node := &refusingXorNode{InMemoryNode: NewInMemoryNode(), err: tc.err}
			b := newBroker(t, []NodeStore{node})
			originals := buildBrokerSystem(t, b, 30, 11)
			tuples, err := b.rep.Lattice().Tuples(pos)
			if err != nil {
				t.Fatal(err)
			}
			for _, tu := range tuples {
				if tu.In.IsVirtual() || tu.Out.IsVirtual() {
					t.Fatalf("position %d has a virtual member in %v: pick another", pos, tu)
				}
			}
			b.DropLocal(pos)
			node.ResetCounters()
			xor0, pair0 := readCounters()
			got, err := b.Read(bg, pos)
			if err != nil || !bytes.Equal(got, originals[pos]) {
				t.Fatalf("Read(%d): wrong content or error %v", pos, err)
			}
			xor1, pair1 := readCounters()
			if node.calls != tc.wantXor || xor1 != xor0 || pair1-pair0 != int64(tc.wantPairs) {
				t.Errorf("Read sent %d XorMany and counted %d node XORs, %d pair fetches; want %d, 0, %d",
					node.calls, xor1-xor0, pair1-pair0, tc.wantXor, tc.wantPairs)
			}
			if repaired := node.BatchStatCalls() > 0; repaired != tc.wantRepair {
				t.Errorf("Read ran a repair: %v, want %v", repaired, tc.wantRepair)
			}
		})
	}
}
