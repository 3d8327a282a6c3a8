package cooperative

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"aecodes/internal/store"
	"aecodes/internal/transport"
)

// doubleKeys is the key space a script draws from: few enough that ops
// meet each other's keys, and the empty key among them.
var doubleKeys = []string{"", "a", "b", "c", "carol/p:h:1:3", "carol/p:h:3:5"}

// FuzzNodeDouble sends one seeded op script to an InMemoryNode and to a
// transport.PoolClient serving a store.Mem over TCP, and fails unless
// both give the same answers and end holding the same bytes: the double
// stands in for a node only while it answers as the server does.
func FuzzNodeDouble(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed, uint8(8*seed))
	}
	mem := store.NewMem()
	srv, err := transport.NewServer(mem)
	if err != nil {
		f.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { srv.Close() })
	client, err := transport.DialPool(addr, 1)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { client.Close() })

	f.Fuzz(func(t *testing.T, seed int64, ops uint8) {
		mem.Clear()
		double := NewInMemoryNode()
		rng := rand.New(rand.NewSource(seed))
		for op := 0; op < int(ops); op++ {
			step := doubleStep(rng)
			want, wantErr := step.run(client)
			got, gotErr := step.run(double)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("op %d %s: the server answered error %v, the double %v", op, step, wantErr, gotErr)
			}
			if want != got {
				t.Fatalf("op %d %s: the server answered %s, the double %s", op, step, want, got)
			}
		}
		var keys []string
		mem.Each(func(key string, _ int64) bool {
			keys = append(keys, key)
			return true
		})
		if len(keys) != double.Len() {
			t.Fatalf("the server holds %d blocks, the double %d", len(keys), double.Len())
		}
		for _, key := range keys {
			a, _ := mem.Get(key)
			b, ok := double.blocks.Get(key)
			if !ok || !bytes.Equal(a, b) {
				t.Fatalf("key %q: the server holds %x, the double %x (held %v)", key, a, b, ok)
			}
		}
	})
}

// scriptStep is one op of a script, with its arguments.
type scriptStep struct {
	op    string
	keys  []string
	items []store.KV
	xors  []store.XorKV
}

func (s scriptStep) String() string {
	return fmt.Sprintf("%s(keys %q, %d items, %d xor items)", s.op, s.keys, len(s.items), len(s.xors))
}

// doubleStep draws one op: up to six items, blocks of up to eight bytes
// (empty ones included), so lengths match and mismatch.
func doubleStep(rng *rand.Rand) scriptStep {
	key := func() string { return doubleKeys[rng.Intn(len(doubleKeys))] }
	block := func() []byte {
		b := make([]byte, rng.Intn(3)*4)
		rng.Read(b)
		return b
	}
	n := rng.Intn(7)
	s := scriptStep{op: []string{"PutMany", "GetMany", "StatMany", "XorMany", "XorPutMany"}[rng.Intn(5)]}
	for range n {
		switch s.op {
		case "PutMany":
			s.items = append(s.items, store.KV{Key: key(), Data: block()})
		case "XorPutMany":
			s.xors = append(s.xors, store.XorKV{Dst: key(), Src: key(), Data: block()})
		default:
			s.keys = append(s.keys, key())
		}
	}
	return s
}

// run sends the step to node and renders its answer.
func (s scriptStep) run(node NodeStore) (string, error) {
	ctx := context.Background()
	switch s.op {
	case "PutMany":
		return "", node.PutMany(ctx, s.items)
	case "GetMany":
		blocks, err := node.GetMany(ctx, s.keys)
		return renderBlocks(blocks), err
	case "StatMany":
		held, err := node.StatMany(ctx, s.keys)
		return fmt.Sprint(held), err
	case "XorMany":
		blocks, err := node.(xorNode).XorMany(ctx, s.keys)
		return renderBlocks(blocks), err
	default:
		// The double must not write the caller's data, as the client
		// sends it and keeps it whole.
		data := make([][]byte, len(s.xors))
		for k, it := range s.xors {
			data[k] = slices.Clone(it.Data)
		}
		applied, err := node.(xorPutNode).XorPutMany(ctx, s.xors)
		for k, it := range s.xors {
			if !bytes.Equal(it.Data, data[k]) {
				return "", fmt.Errorf("XorPutMany wrote item %d's data", k)
			}
		}
		return fmt.Sprint(applied), err
	}
}

// renderBlocks spells a batch answer: nil (missing) apart from empty.
func renderBlocks(blocks [][]byte) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%d:", len(blocks))
	for _, blk := range blocks {
		if blk == nil {
			b.WriteString(" nil")
			continue
		}
		fmt.Fprintf(&b, " %x.", blk)
	}
	return b.String()
}
