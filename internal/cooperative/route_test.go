package cooperative

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"aecodes/internal/entangle"
	"aecodes/internal/lattice"
	"aecodes/internal/store"
)

// groupingRouter is a stripeRouter that reports its groups, as
// cluster.Router does — a volume's stripe index — and counts the Route
// calls each volume gets.
type groupingRouter struct {
	*stripeRouter

	mu     sync.Mutex
	routed map[string]int // volume → Route calls
}

func newGroupingRouter(user string, stripe int, nodes []NodeStore) *groupingRouter {
	return &groupingRouter{stripeRouter: newStripeRouter(user, stripe, nodes), routed: make(map[string]int)}
}

var _ GroupRouter = (*groupingRouter)(nil)

func (r *groupingRouter) Group(e lattice.Edge) int {
	return (max(e.Left, 1) - 1) / r.stripe
}

func (r *groupingRouter) Route(ctx context.Context, key string, e lattice.Edge) (NodeStore, string, error) {
	node, vol, err := r.stripeRouter.Route(ctx, key, e)
	r.mu.Lock()
	r.routed[vol]++
	r.mu.Unlock()
	return node, vol, err
}

func (r *groupingRouter) resetRouted() {
	r.mu.Lock()
	r.routed = make(map[string]int)
	r.mu.Unlock()
}

// sinkNode takes uploads without keeping them, so an allocation count
// over a Backup sees the broker's allocations and nothing of the node's.
type sinkNode struct{ *InMemoryNode }

func (sinkNode) PutMany(context.Context, []store.KV) error { return nil }

// TestRoutesPerGroup pins the broker's control path, counted in
// cooperative/route.calls, on one seeded 1024-block lattice over four
// in-memory nodes in 16 volumes of 64 blocks. Under a router that
// reports groups a Backup routes once, a Missing sweep once per volume,
// and a parity-only Repair each volume at most once. Under the same
// router without the capability, and under the flat router, every key is
// routed as it was before groups existed: α per Backup, one per parity
// per sweep, and four per parity rebuilt on its node (InPlace when the
// round is planned, again when it is sent). The grouping and non-grouping
// runs send every node the same frames.
func TestRoutesPerGroup(t *testing.T) {
	const (
		n         = 1024
		stripe    = 64
		blockSize = 16
		volumes   = n / stripe
		alpha     = 3
	)
	type result struct {
		missing, repair int64 // route calls
		dropped         int
		frames          []frames // per node, for Backup, Missing and Repair in turn
	}
	run := func(kind string) result {
		nodes, mems := newNetwork(4)
		var b *Broker
		var gr *groupingRouter
		var err error
		switch kind {
		case "flat":
			b, err = NewBroker("alice", testParams, blockSize, nodes)
		case "striped":
			b, err = NewRoutedBroker("alice", testParams, blockSize, newStripeRouter("alice", stripe, nodes))
		case "grouped":
			gr = newGroupingRouter("alice", stripe, nodes)
			b, err = NewRoutedBroker("alice", testParams, blockSize, gr)
		}
		if err != nil {
			t.Fatal(err)
		}
		var res result
		phase := func() {
			_, per := countFrames(mems)
			res.frames = append(res.frames, per...)
			resetAll(mems)
		}

		perBackup := int64(alpha)
		if gr != nil {
			perBackup = 1
		}
		rng := rand.New(rand.NewSource(41))
		data := make([]byte, blockSize)
		for i := 1; i <= n; i++ {
			rng.Read(data)
			before := obsRouteCalls.Value()
			if _, err := b.Backup(bg, data); err != nil {
				t.Fatal(err)
			}
			if got := obsRouteCalls.Value() - before; got != perBackup {
				t.Fatalf("%s: Backup(%d) made %d Route calls, want %d", kind, i, got, perBackup)
			}
		}
		phase()

		before := obsRouteCalls.Value()
		if _, err := b.Missing(bg); err != nil {
			t.Fatal(err)
		}
		res.missing = obsRouteCalls.Value() - before
		phase()

		drop := rand.New(rand.NewSource(43))
		dropped := dropColocated(t, b, false, func(lattice.Edge) bool { return drop.Float64() < 0.15 })
		res.dropped = len(dropped)
		resetAll(mems)
		if gr != nil {
			gr.resetRouted()
		}
		before = obsRouteCalls.Value()
		stats, err := b.Repair(bg, entangle.Options{})
		if err != nil {
			t.Fatal(err)
		}
		res.repair = obsRouteCalls.Value() - before
		if stats.Rounds != 1 || stats.ParityRepaired != len(dropped) || len(dropped) == 0 {
			t.Fatalf("%s: repaired %d of %d parities in %d rounds, want all in 1", kind, stats.ParityRepaired, len(dropped), stats.Rounds)
		}
		if gr != nil {
			for vol, calls := range gr.routed {
				if calls != 1 {
					t.Errorf("grouped: Repair routed volume %s %d times, want once", vol, calls)
				}
			}
			if len(gr.routed) != volumes {
				t.Errorf("grouped: Repair routed %d volumes, want all %d (its Missing sweep names them all)", len(gr.routed), volumes)
			}
		}
		phase()
		checkRestored(t, b, dropped)
		return res
	}

	flat, striped, grouped := run("flat"), run("striped"), run("grouped")
	for kind, res := range map[string]result{"flat": flat, "striped": striped} {
		if res.missing != n*alpha {
			t.Errorf("%s: Missing made %d Route calls, want one per parity, %d", kind, res.missing, n*alpha)
		}
		if want := int64(n*alpha + 4*res.dropped); res.repair != want {
			t.Errorf("%s: Repair of %d parities made %d Route calls, want %d", kind, res.dropped, res.repair, want)
		}
	}
	if grouped.missing != volumes || grouped.repair != volumes {
		t.Errorf("grouped: Missing made %d Route calls and Repair %d, want one per volume, %d", grouped.missing, grouped.repair, volumes)
	}
	if grouped.dropped != striped.dropped || !reflect.DeepEqual(grouped.frames, striped.frames) {
		t.Errorf("routing by group changed the frames:\n grouped %+v\n striped %+v", grouped.frames, striped.frames)
	}
}

// groupedSystem backs up n blocks through a broker over nodes behind a
// grouping router in 64-block volumes.
func groupedSystem(tb testing.TB, n, blockSize int, alpha int, nodes []NodeStore) *Broker {
	tb.Helper()
	b, err := NewRoutedBroker("alice", lattice.Params{Alpha: alpha, S: 2, P: 5}, blockSize, newGroupingRouter("alice", 64, nodes))
	if err != nil {
		tb.Fatal(err)
	}
	buildBrokerSystem(tb, b, n, 5)
	return b
}

func sinkNodes(count int) []NodeStore {
	nodes := make([]NodeStore, count)
	for i := range nodes {
		nodes[i] = sinkNode{NewInMemoryNode()}
	}
	return nodes
}

// TestMissingAllocatesPerVolume: under a grouping router a Missing sweep
// allocates per node and per volume, not per key — the keys are one
// string, each node's share is sized once, and each volume is routed
// once (the test router's own allocations included). 3072 and 12288 keys
// both stay under four allocations per node and volume.
func TestMissingAllocatesPerVolume(t *testing.T) {
	const nodes = 4
	for _, n := range []int{1024, 4096} {
		mems, _ := newNetwork(nodes)
		b := groupedSystem(t, n, 16, 3, mems)
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := b.Missing(bg); err != nil {
				t.Fatal(err)
			}
		})
		if budget := 4*(nodes+n/64) + 16; allocs > float64(budget) {
			t.Errorf("Missing over %d keys on %d nodes and %d volumes allocated %.0f times, want ≤ %d", 3*n, nodes, n/64, allocs, budget)
		}
	}
}

// TestBackupAllocatesPerBlock: under a grouping router a Backup makes the
// same few allocations whatever α — one key string, one item list, one
// route, no grouping map — beside the user's copy of the block.
func TestBackupAllocatesPerBlock(t *testing.T) {
	per := make(map[int]float64)
	for _, alpha := range []int{2, 3} {
		b := groupedSystem(t, 0, 64, alpha, sinkNodes(4))
		data := make([]byte, 64)
		per[alpha] = testing.AllocsPerRun(500, func() {
			if _, err := b.Backup(bg, data); err != nil {
				t.Fatal(err)
			}
		})
	}
	if per[2] != per[3] || per[3] > 8 {
		t.Errorf("Backup allocated %.0f times at α = 2 and %.0f at α = 3, want the same and ≤ 8", per[2], per[3])
	}
}

// BenchmarkBrokerMissing is one Missing sweep of a 4096-block lattice
// over four in-memory nodes in 64-block volumes, the broker's side of a
// repair run's enumeration.
func BenchmarkBrokerMissing(b *testing.B) {
	nodes, _ := newNetwork(4)
	br := groupedSystem(b, 4096, 16, 3, nodes)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := br.Missing(bg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBrokerBackup is one 4 KiB Backup under a grouping router over
// nodes that drop what they are sent: entangling, naming, routing and
// framing, without the network. The user's copies are dropped every 4096
// blocks so the benchmark's memory stays bounded.
func BenchmarkBrokerBackup(b *testing.B) {
	br := groupedSystem(b, 0, 4096, 3, sinkNodes(4))
	data := make([]byte, 4096)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		if i++; i%4096 == 0 {
			br.DropLocal()
		}
		if _, err := br.Backup(bg, data); err != nil {
			b.Fatal(err)
		}
	}
}
