package cooperative

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"aecodes/internal/entangle"
	"aecodes/internal/lattice"
	"aecodes/internal/obs"
	"aecodes/internal/store"
)

// stripeRouter is a cluster-shaped Router: stripes of `stripe` lattice
// positions are the routing groups (volumes, named like cluster.VolumeID)
// and map round-robin onto the nodes — so several groups share a node,
// which the flat router (group ≡ node) never shows. A volume whose node
// is marked dead is re-placed onto the spare by Invalidate, the way the
// cluster manager answers a stale hint.
type stripeRouter struct {
	user   string
	stripe int
	nodes  []NodeStore

	mu          sync.Mutex
	dead        map[NodeStore]bool
	spare       NodeStore
	moved       map[string]NodeStore // volume → replacement node
	invalidated map[string]int       // volume → Invalidate calls
}

func newStripeRouter(user string, stripe int, nodes []NodeStore) *stripeRouter {
	return &stripeRouter{
		user: user, stripe: stripe, nodes: nodes,
		dead:        make(map[NodeStore]bool),
		moved:       make(map[string]NodeStore),
		invalidated: make(map[string]int),
	}
}

func (r *stripeRouter) volume(e lattice.Edge) (string, int) {
	pos := max(e.Left, 1)
	s := (pos - 1) / r.stripe
	return fmt.Sprintf("%s/%d", r.user, s), s
}

func (r *stripeRouter) Route(ctx context.Context, key string, e lattice.Edge) (NodeStore, string, error) {
	vol, s := r.volume(e)
	r.mu.Lock()
	defer r.mu.Unlock()
	if n, ok := r.moved[vol]; ok {
		return n, vol, nil
	}
	return r.nodes[s%len(r.nodes)], vol, nil
}

func (r *stripeRouter) Invalidate(ctx context.Context, group string) (bool, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.invalidated[group]++
	if _, ok := r.moved[group]; ok {
		return false, nil
	}
	var s int
	if _, err := fmt.Sscanf(group, r.user+"/%d", &s); err != nil {
		return false, err
	}
	if r.spare == nil || !r.dead[r.nodes[s%len(r.nodes)]] {
		return false, nil
	}
	r.moved[group] = r.spare
	return true, nil
}

// stripedSystem backs up n random blocks through a broker over four
// in-memory nodes behind a stripeRouter.
func stripedSystem(t *testing.T, user string, stripe, n, blockSize int, seed int64) (*Broker, *stripeRouter, []*InMemoryNode, [][]byte) {
	t.Helper()
	mems := make([]*InMemoryNode, 4)
	nodes := make([]NodeStore, len(mems))
	for i := range mems {
		mems[i] = NewInMemoryNode()
		nodes[i] = mems[i]
	}
	router := newStripeRouter(user, stripe, nodes)
	b, err := NewRoutedBroker(user, lattice.Params{Alpha: 3, S: 2, P: 5}, blockSize, router)
	if err != nil {
		t.Fatal(err)
	}
	return b, router, mems, buildBrokerSystem(t, b, n, seed)
}

// frames sums the requests the nodes served since the last reset.
type frames struct{ get, getMany, put, putMany, stat, xor, xorPut int }

func countFrames(mems []*InMemoryNode) (total frames, perNode []frames) {
	for _, m := range mems {
		f := frames{m.GetCalls(), m.BatchCalls(), m.PutCalls(), m.BatchPutCalls(), m.BatchStatCalls(), m.XorCalls(), m.XorPutCalls()}
		perNode = append(perNode, f)
		total.get += f.get
		total.getMany += f.getMany
		total.put += f.put
		total.putMany += f.putMany
		total.stat += f.stat
		total.xor += f.xor
		total.xorPut += f.xorPut
	}
	return total, perNode
}

// readCounters returns the broker's read-path counters: tuples answered
// by a node-side XOR, and tuples fetched as two blocks.
func readCounters() (nodeXor, pairFetch int64) {
	c := obs.Default.Snapshot().Counters
	return c["cooperative/read.node_xor"], c["cooperative/read.pair_fetch"]
}

// repairCounters returns the broker's repair counters: parities rebuilt
// on a node, and parities the broker XORed and uploaded.
func repairCounters() (nodeXor, pairFetch int64) {
	c := obs.Default.Snapshot().Counters
	return c["cooperative/repair.node_xor"], c["cooperative/repair.pair_fetch"]
}

// nodeOf returns the in-memory node behind the node the broker routes
// parity e to.
func nodeOf(t *testing.T, b *Broker, e lattice.Edge) *InMemoryNode {
	t.Helper()
	node, _, err := b.router.Route(bg, b.parityKey(e), e)
	if err != nil {
		t.Fatal(err)
	}
	switch n := node.(type) {
	case *InMemoryNode:
		return n
	case bareNode:
		return n.NodeStore.(*InMemoryNode)
	case refusingNode:
		return n.InMemoryNode
	}
	t.Fatalf("no in-memory node behind a %T", node)
	return nil
}

// dropColocated deletes each parity pick accepts whose first dp-tuple
// companion is a real parity on the same node that stays, and returns
// the deleted parities with their content. Every deleted parity can then
// be rebuilt on its node in one round. pick sees positions in ascending
// order, so a companion — the in-edge of the parity's left end — is
// decided before the parity it serves.
func dropColocated(t *testing.T, b *Broker, pick func(lattice.Edge) bool) map[lattice.Edge][]byte {
	t.Helper()
	lat := b.rep.Lattice()
	dropped := make(map[lattice.Edge][]byte)
	for i := 1; i <= b.Count(); i++ {
		for _, class := range lat.Classes() {
			e, err := lat.OutEdge(class, i)
			if err != nil {
				t.Fatal(err)
			}
			opts, err := lat.ParityOptions(e)
			if err != nil {
				t.Fatal(err)
			}
			c := opts[0].Parity
			if c.IsVirtual() || dropped[c] != nil || !pick(e) {
				continue
			}
			node := nodeOf(t, b, e)
			if nodeOf(t, b, c) != node {
				continue
			}
			key := b.parityKey(e)
			dropped[e], _ = node.blocks.Get(key)
			node.blocks.Del(key)
		}
	}
	return dropped
}

// checkRestored fails unless every dropped parity is back with its old
// content.
func checkRestored(t *testing.T, b *Broker, dropped map[lattice.Edge][]byte) {
	t.Helper()
	for e, want := range dropped {
		got, err := nodeOf(t, b, e).Get(bg, b.parityKey(e))
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("parity %v not restored byte for byte (err %v)", e, err)
		}
	}
}

func resetAll(mems []*InMemoryNode) {
	for _, m := range mems {
		m.ResetCounters()
	}
}

// heldKeys returns the keys node m holds, sorted.
func heldKeys(m *InMemoryNode) []string {
	var keys []string
	m.blocks.Each(func(key string, _ int64) bool {
		keys = append(keys, key)
		return true
	})
	sort.Strings(keys)
	return keys
}

// held returns the blocks node m holds, by key.
func held(m *InMemoryNode) map[string][]byte {
	out := make(map[string][]byte)
	for _, key := range heldKeys(m) {
		out[key], _ = m.blocks.Get(key)
	}
	return out
}

// tupleFrames returns the frames one try of tuple tu costs: one XorMany
// when one node holds both of its parities, otherwise one GetMany per
// distinct node holding a real parity.
func tupleFrames(t *testing.T, b *Broker, tu lattice.Tuple) frames {
	t.Helper()
	seen := map[NodeStore]bool{}
	remote := 0
	for _, e := range []lattice.Edge{tu.In, tu.Out} {
		if e.IsVirtual() {
			continue
		}
		remote++
		node, _, err := b.router.Route(bg, b.parityKey(e), e)
		if err != nil {
			t.Fatal(err)
		}
		seen[node] = true
	}
	if remote == 2 && len(seen) == 1 {
		return frames{xor: 1}
	}
	return frames{getMany: len(seen)}
}

// TestClusterShapedTraffic pins the exchange counts of every operation
// under a router whose groups are volumes, 16 of them on 4 nodes over a
// 1024-block lattice: batching is per node, not per volume.
func TestClusterShapedTraffic(t *testing.T) {
	const (
		n         = 1024
		stripe    = 64
		blockSize = 16
	)
	b, _, mems, _ := stripedSystem(t, "alice", stripe, 0, blockSize, 0)

	// Backup: the α parities of a position share a volume, so one frame.
	rng := rand.New(rand.NewSource(41))
	originals := make([][]byte, n+1)
	for i := 1; i <= n; i++ {
		originals[i] = make([]byte, blockSize)
		rng.Read(originals[i])
		resetAll(mems)
		if _, err := b.Backup(bg, originals[i]); err != nil {
			t.Fatal(err)
		}
		if f, _ := countFrames(mems); f.putMany != 1 || f.put != 0 {
			t.Fatalf("Backup(%d) sent %d PutMany frames and %d Puts, want 1 and 0", i, f.putMany, f.put)
		}
	}
	lat := b.rep.Lattice()

	// Clean read: one XorMany frame when one node holds the first tuple
	// whole, one GetMany frame on each of two nodes when the tuple
	// straddles them (or one, beside a virtual member); never a Get. The
	// read counters agree with the frames.
	b.DropLocal()
	sameNode, straddling, virtual := 0, 0, 0
	for i := 1; i <= n; i++ {
		tuples, err := lat.Tuples(i)
		if err != nil {
			t.Fatal(err)
		}
		want := tupleFrames(t, b, tuples[0])
		sameNode += want.xor
		if want.getMany == 2 {
			straddling++
		}
		if tuples[0].In.IsVirtual() {
			virtual++
		}
		resetAll(mems)
		xor0, pair0 := readCounters()
		got, err := b.Read(bg, i)
		if err != nil || !bytes.Equal(got, originals[i]) {
			t.Fatalf("Read(%d): wrong content or error %v", i, err)
		}
		f, per := countFrames(mems)
		if f.xor != want.xor || f.getMany != want.getMany || f.get != 0 || f.stat != 0 {
			t.Fatalf("clean Read(%d) cost %d XorMany, %d GetMany frames, %d Gets, %d StatMany; want %d, %d, 0, 0",
				i, f.xor, f.getMany, f.get, f.stat, want.xor, want.getMany)
		}
		for k, p := range per {
			if p.getMany+p.xor > 1 {
				t.Fatalf("clean Read(%d) sent node %d %d frames, want ≤ 1", i, k, p.getMany+p.xor)
			}
		}
		xor1, pair1 := readCounters()
		if xor1-xor0 != int64(want.xor) || pair1-pair0 != int64(1-want.xor) {
			t.Fatalf("clean Read(%d) counted %d node XORs and %d pair fetches, want %d and %d",
				i, xor1-xor0, pair1-pair0, want.xor, 1-want.xor)
		}
	}
	if share := float64(sameNode) / n; share < 0.95 {
		t.Errorf("only %.0f%% of clean reads were one node-side XOR; stripes of %d should give ≈ 97%%", 100*share, stripe)
	}
	if straddling == 0 || virtual == 0 {
		t.Errorf("%d clean reads' first tuples straddled two nodes and %d had a virtual in-edge: a pair-fetch leg went unchecked", straddling, virtual)
	}

	// Parity-only repair whose every tuple one node holds: the run is one
	// StatMany frame per node, then one round of at most one XorPutMany
	// frame per node — no GetMany, no PutMany, nothing single-block — and
	// every parity is rebuilt on its node.
	drop := rand.New(rand.NewSource(43))
	dropped := dropColocated(t, b, func(lattice.Edge) bool { return drop.Float64() < 0.15 })
	resetAll(mems)
	xor0, pair0 := repairCounters()
	stats, err := b.Repair(bg, entangle.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds != 1 || stats.ParityRepaired != len(dropped) || len(dropped) < 100 {
		t.Fatalf("co-located repair: %d of %d parities in %d rounds, want all of ≥ 100 in 1", stats.ParityRepaired, len(dropped), stats.Rounds)
	}
	total, per := countFrames(mems)
	if total.getMany != 0 || total.putMany != 0 || total.get != 0 || total.put != 0 || total.xor != 0 {
		t.Errorf("co-located repair sent %+v, want XorPutMany and StatMany frames only", total)
	}
	for k, p := range per {
		if p.stat != 1 || p.xorPut > 1 {
			t.Errorf("node %d served %d StatMany and %d XorPutMany frames for one round, want 1 and ≤ 1", k, p.stat, p.xorPut)
		}
	}
	if xor1, pair1 := repairCounters(); xor1-xor0 != int64(len(dropped)) || pair1 != pair0 {
		t.Errorf("co-located repair counted %d node rebuilds and %d broker rebuilds, want %d and 0", xor1-xor0, pair1-pair0, len(dropped))
	}
	checkRestored(t, b, dropped)

	// Degraded read: every tuple tried costs one exchange, and a read with
	// a complete tuple left never falls back to a repair.
	for _, i := range []int{5, 64, 65, 500, 1000} {
		tuples, err := lat.Tuples(i)
		if err != nil {
			t.Fatal(err)
		}
		in := tuples[0].In
		node, _, _ := b.router.Route(bg, b.parityKey(in), in)
		node.(*InMemoryNode).blocks.Del(b.parityKey(in))
		first, second := tupleFrames(t, b, tuples[0]), tupleFrames(t, b, tuples[1])
		want := frames{xor: first.xor + second.xor, getMany: first.getMany + second.getMany}
		b.DropLocal(i)
		resetAll(mems)
		xor0, pair0 := readCounters()
		got, err := b.Read(bg, i)
		if err != nil || !bytes.Equal(got, originals[i]) {
			t.Fatalf("degraded Read(%d): wrong content or error %v", i, err)
		}
		if f, _ := countFrames(mems); f.xor != want.xor || f.getMany != want.getMany || f.get != 0 || f.stat != 0 {
			t.Errorf("degraded Read(%d) over two tuples cost %d XorMany, %d GetMany frames, %d Gets, %d StatMany; want %d, %d, 0, 0",
				i, f.xor, f.getMany, f.get, f.stat, want.xor, want.getMany)
		}
		if xor1, pair1 := readCounters(); xor1-xor0 != int64(want.xor) || pair1-pair0 != int64(2-want.xor) {
			t.Errorf("degraded Read(%d) counted %d node XORs and %d pair fetches, want %d and %d",
				i, xor1-xor0, pair1-pair0, want.xor, 2-want.xor)
		}
	}

	// Repair: delete 15% of the parities and a third of the user's blocks.
	// The run is one StatMany frame per node (768 keys each), then per
	// round and node at most one GetMany frame (the data repairs' tuples
	// and the companions of the parities the broker rebuilds), one
	// XorPutMany frame (the parities whose tuple the node holds) and one
	// PutMany frame (the rest) — there are four volumes on every node.
	// Every parity is rebuilt once, most on their node.
	for i := 1; i <= n; i++ {
		if rng.Float64() < 0.33 {
			b.DropLocal(i)
		}
	}
	for _, m := range mems {
		for _, k := range heldKeys(m) {
			if rng.Float64() < 0.15 {
				m.blocks.Del(k)
			}
		}
	}
	resetAll(mems)
	xor0, pair0 = repairCounters()
	stats, err = b.Repair(bg, entangle.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if left := len(stats.UnrepairedData) + len(stats.UnrepairedParities); left != 0 || stats.Rounds == 0 {
		t.Fatalf("repair left %d blocks after %d rounds", left, stats.Rounds)
	}
	_, per = countFrames(mems)
	for k, p := range per {
		if p.get != 0 || p.put != 0 {
			t.Errorf("node %d served %d Gets and %d Puts during repair, want 0", k, p.get, p.put)
		}
		if p.stat != 1 || p.getMany > stats.Rounds || p.xorPut > stats.Rounds || p.putMany > stats.Rounds {
			t.Errorf("node %d served %d StatMany, %d GetMany, %d XorPutMany, %d PutMany frames over %d rounds; want 1 and ≤ %d of each other",
				k, p.stat, p.getMany, p.xorPut, p.putMany, stats.Rounds, stats.Rounds)
		}
	}
	xor1, pair1 := repairCounters()
	onNode, byBroker := xor1-xor0, pair1-pair0
	if onNode+byBroker != int64(stats.ParityRepaired) || 10*onNode < 9*int64(stats.ParityRepaired) || byBroker == 0 {
		t.Errorf("repair counted %d node rebuilds and %d broker rebuilds for %d parities, want them to sum up, ≥ 90%% on nodes and some by the broker",
			onNode, byBroker, stats.ParityRepaired)
	}
	for i := 1; i <= n; i++ {
		if got, err := b.Read(bg, i); err != nil || !bytes.Equal(got, originals[i]) {
			t.Fatalf("after repair Read(%d): wrong content or error %v", i, err)
		}
	}
}

// tapNode logs the size of every batched frame its node serves into one
// sequence shared by the fleet, and roundTap marks in it where each of
// the engine's rounds starts: at the round's one fetch. The engine
// finishes a round's fetch before it commits, so the log of a repair run
// reads: StatMany frames, then per round its mark, its GetMany frames and
// then its XorPutMany and PutMany frames, which go out together.
type tapNode struct {
	*InMemoryNode
	log *frameLog
}

type frameLog struct {
	mu     sync.Mutex
	events []frameEvent
}

type frameEvent struct {
	node *tapNode // nil for a round mark
	op   byte     // 's'tat, 'g'et, 'p'ut, 'x'orput, 'r'ound
	keys int
}

func (l *frameLog) add(n *tapNode, op byte, keys int) {
	l.mu.Lock()
	l.events = append(l.events, frameEvent{n, op, keys})
	l.mu.Unlock()
}

func (n *tapNode) StatMany(ctx context.Context, keys []string) ([]bool, error) {
	n.log.add(n, 's', len(keys))
	return n.InMemoryNode.StatMany(ctx, keys)
}

func (n *tapNode) GetMany(ctx context.Context, keys []string) ([][]byte, error) {
	n.log.add(n, 'g', len(keys))
	return n.InMemoryNode.GetMany(ctx, keys)
}

func (n *tapNode) PutMany(ctx context.Context, items []store.KV) error {
	n.log.add(n, 'p', len(items))
	return n.InMemoryNode.PutMany(ctx, items)
}

func (n *tapNode) XorPutMany(ctx context.Context, items []store.XorKV) ([]bool, error) {
	n.log.add(n, 'x', len(items))
	return n.InMemoryNode.XorPutMany(ctx, items)
}

// roundTap is the broker's netStore with the engine's fetches marked.
type roundTap struct {
	*netStore
	log *frameLog
}

func (r roundTap) GetMany(ctx context.Context, refs []store.Ref) ([][]byte, error) {
	r.log.add(nil, 'r', len(refs))
	return r.netStore.GetMany(ctx, refs)
}

// TestRepairEnumeratesOncePerRun pins the planned round on the wire: a
// node is asked which keys it holds once per Repair — ⌈keys / batchChunk⌉
// StatMany exchanges whatever the round count — and a round reads every
// key before it writes, at most two per block it repairs: the keys of its
// GetMany frames, and one companion per parity rebuilt on its node.
func TestRepairEnumeratesOncePerRun(t *testing.T) {
	const (
		n         = 1500 // 4500 parities on 4 nodes: more than one batchChunk each
		stripe    = 64
		blockSize = 16
	)
	log := &frameLog{}
	taps := make([]*tapNode, 4)
	nodes := make([]NodeStore, len(taps))
	for i := range taps {
		taps[i] = &tapNode{InMemoryNode: NewInMemoryNode(), log: log}
		nodes[i] = taps[i]
	}
	b, err := NewRoutedBroker("erin", lattice.Params{Alpha: 3, S: 2, P: 5}, blockSize, newStripeRouter("erin", stripe, nodes))
	if err != nil {
		t.Fatal(err)
	}
	originals := buildBrokerSystem(t, b, n, 23)

	keysOn := make(map[NodeStore]int)
	lat := b.rep.Lattice()
	for i := 1; i <= n; i++ {
		for _, class := range lat.Classes() {
			e, err := lat.OutEdge(class, i)
			if err != nil {
				t.Fatal(err)
			}
			node, _, err := b.router.Route(bg, b.parityKey(e), e)
			if err != nil {
				t.Fatal(err)
			}
			keysOn[node]++
		}
	}

	rng := rand.New(rand.NewSource(29))
	for i := 1; i <= n; i++ {
		if rng.Float64() < 0.33 {
			b.DropLocal(i)
		}
	}
	for _, tap := range taps {
		for _, k := range heldKeys(tap.InMemoryNode) {
			if rng.Float64() < 0.2 {
				tap.blocks.Del(k)
			}
		}
	}
	log.events = nil
	stats, err := b.rep.Repair(bg, roundTap{b.netStore(), log}, entangle.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if left := len(stats.UnrepairedData) + len(stats.UnrepairedParities); left != 0 || stats.Rounds < 3 {
		t.Fatalf("repair left %d blocks after %d rounds, want a clean run of several rounds", left, stats.Rounds)
	}

	statFrames := make(map[NodeStore]int)
	var reads []int // keys the nodes read, per round
	pushed := 0
	var last byte
	for _, ev := range log.events {
		switch ev.op {
		case 's':
			statFrames[ev.node]++
			if last != 0 && last != 's' {
				t.Fatalf("StatMany after the first round started: the engine enumerated twice")
			}
		case 'r':
			reads = append(reads, 0)
		case 'g':
			if last != 'r' && last != 'g' {
				t.Fatalf("a GetMany frame after round %d began to write", len(reads))
			}
			reads[len(reads)-1] += ev.keys
		case 'x':
			if len(reads) == 0 {
				t.Fatal("an XorPutMany frame before the first round")
			}
			reads[len(reads)-1] += ev.keys // one companion read per item
			pushed += ev.keys
		}
		last = ev.op
	}
	for _, tap := range taps {
		if want := (keysOn[tap] + batchChunk - 1) / batchChunk; statFrames[tap] != want || want < 2 {
			t.Errorf("node holding %d keys served %d StatMany frames over %d rounds, want ⌈keys/%d⌉ = %d (and ≥ 2 for the test to bite)",
				keysOn[tap], statFrames[tap], stats.Rounds, batchChunk, want)
		}
	}
	if len(reads) != stats.Rounds || pushed == 0 {
		t.Fatalf("log shows %d rounds for %d and %d parities rebuilt on their node, want some", len(reads), stats.Rounds, pushed)
	}
	for k, keys := range reads {
		if repaired := stats.PerRound[k].DataRepaired + stats.PerRound[k].ParityRepaired; keys > 2*repaired {
			t.Errorf("round %d read %d keys to repair %d blocks, want ≤ 2 per block", k+1, keys, repaired)
		}
	}
	for i := 1; i <= n; i++ {
		if got, err := b.Read(bg, i); err != nil || !bytes.Equal(got, originals[i]) {
			t.Fatalf("after repair Read(%d): wrong content or error %v", i, err)
		}
	}
}

// sequentialView answers GetMany and Missing the way the pre-fan-out
// code did: one node at a time, one key at a time, through the
// single-block dialect.
func sequentialView(t *testing.T, b *Broker, refs []store.Ref) ([][]byte, store.Missing) {
	t.Helper()
	st := b.netStore()
	blocks := make([][]byte, len(refs))
	for i, r := range refs {
		if data, err := st.GetParity(bg, r.Edge); err == nil {
			blocks[i] = data
		}
	}
	var m store.Missing
	lat := b.rep.Lattice()
	for i := 1; i <= b.Count(); i++ {
		if _, err := st.GetData(bg, i); err != nil {
			m.Data = append(m.Data, i)
		}
	}
	for _, class := range lat.Classes() {
		for i := 1; i <= b.Count(); i++ {
			e, err := lat.OutEdge(class, i)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := st.GetParity(bg, e); err != nil {
				m.Parities = append(m.Parities, e)
			}
		}
	}
	return blocks, m
}

// TestFanOutWithNodeDown: with one of four nodes down, the concurrent
// GetMany and Missing return exactly what a sequential walk of the same
// state returns — that node's parities nil and missing, everything else
// served, Missing.Parities in the same order.
func TestFanOutWithNodeDown(t *testing.T) {
	b, _, mems, _ := stripedSystem(t, "bob", 8, 200, 24, 9)
	b.DropLocal(7, 90)
	var refs []store.Ref
	lat := b.rep.Lattice()
	for i := 1; i <= b.Count(); i++ {
		for _, class := range lat.Classes() {
			e, err := lat.OutEdge(class, i)
			if err != nil {
				t.Fatal(err)
			}
			refs = append(refs, store.ParityRef(e))
		}
	}
	mems[2].SetDown(true)
	wantBlocks, wantMissing := sequentialView(t, b, refs)

	st := b.netStore()
	blocks, err := st.GetMany(bg, refs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range refs {
		node, _, _ := b.router.Route(bg, b.parityKey(r.Edge), r.Edge)
		if down := node == NodeStore(mems[2]); down != (blocks[i] == nil) {
			t.Fatalf("%v: served=%v but its node down=%v", r, blocks[i] != nil, down)
		}
		if !bytes.Equal(blocks[i], wantBlocks[i]) {
			t.Fatalf("%v differs from the sequential fetch", r)
		}
	}
	missing, err := st.Missing(bg)
	if err != nil {
		t.Fatal(err)
	}
	if len(missing.Parities) != mems[2].Len() {
		t.Errorf("Missing lists %d parities, the down node holds %d", len(missing.Parities), mems[2].Len())
	}
	if !reflect.DeepEqual(missing, wantMissing) {
		t.Errorf("Missing differs from the sequential walk:\n got %v\nwant %v", missing, wantMissing)
	}
}

// TestUploadRetriesPerVolume: when a node fails its upload, each volume
// batched into that node's frame takes the Invalidate → re-route → retry
// path exactly once and lands on the replacement node; volumes on healthy
// nodes are never invalidated.
func TestUploadRetriesPerVolume(t *testing.T) {
	const stripe = 8
	b, router, mems, originals := stripedSystem(t, "carol", stripe, 96, 24, 13)
	dead, spare := mems[1], NewInMemoryNode()
	dead.SetDown(true)
	router.dead[NodeStore(dead)] = true
	router.spare = spare

	stats, err := b.Repair(bg, entangle.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.ParityRepaired != dead.Len() || len(stats.UnrepairedParities) != 0 {
		t.Fatalf("repaired %d parities (%d left), want the dead node's %d", stats.ParityRepaired, len(stats.UnrepairedParities), dead.Len())
	}
	// 96 positions in stripes of 8 over 4 nodes: volumes 1, 5 and 9 lived
	// on node 1.
	want := map[string]int{"carol/1": 1, "carol/5": 1, "carol/9": 1}
	if !reflect.DeepEqual(router.invalidated, want) {
		t.Errorf("Invalidate calls = %v, want %v", router.invalidated, want)
	}
	if spare.PutCalls() != 0 {
		t.Errorf("replacement node served %d single Puts, want batched uploads only", spare.PutCalls())
	}
	if !reflect.DeepEqual(held(spare), held(dead)) {
		t.Errorf("replacement node holds %d blocks that differ from the dead node's %d", spare.Len(), dead.Len())
	}
	b.DropLocal()
	for i := 1; i < len(originals); i++ {
		if got, err := b.Read(bg, i); err != nil || !bytes.Equal(got, originals[i]) {
			t.Fatalf("Read(%d) through the re-placed volumes: wrong content or error %v", i, err)
		}
	}
}

// cancellingNode ends the caller's context from inside a batched request
// and still answers it, the way a deadline expires while a frame is in
// flight.
type cancellingNode struct {
	*InMemoryNode
	cancel context.CancelFunc
}

func (n *cancellingNode) GetMany(ctx context.Context, keys []string) ([][]byte, error) {
	n.cancel()
	return n.InMemoryNode.GetMany(ctx, keys)
}

func (n *cancellingNode) XorMany(ctx context.Context, keys []string) ([][]byte, error) {
	n.cancel()
	return n.InMemoryNode.XorMany(ctx, keys)
}

func (n *cancellingNode) StatMany(ctx context.Context, keys []string) ([]bool, error) {
	n.cancel()
	return n.InMemoryNode.StatMany(ctx, keys)
}

// TestCancellationIsNotMissing: a context that ends mid-fetch surfaces as
// its error from GetMany, Missing and Read — not as an all-missing result
// that Read answers with a whole-lattice repair. The one node holds every
// tuple whole, so Read's exchange is the node-side XOR.
func TestCancellationIsNotMissing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	node := &cancellingNode{InMemoryNode: NewInMemoryNode(), cancel: func() {}}
	b, err := NewBroker("dave", lattice.Params{Alpha: 3, S: 2, P: 5}, 16, []NodeStore{node})
	if err != nil {
		t.Fatal(err)
	}
	buildBrokerSystem(t, b, 30, 3)
	b.DropLocal(10)
	node.ResetCounters()
	node.cancel = cancel

	if _, err := b.Read(ctx, 10); !errors.Is(err, context.Canceled) {
		t.Errorf("Read under a cancelled context = %v, want context.Canceled", err)
	}
	if node.XorCalls() != 1 || node.BatchCalls() != 0 {
		t.Errorf("cancelled Read sent %d XorMany and %d GetMany frames, want 1 and 0", node.XorCalls(), node.BatchCalls())
	}
	if node.BatchStatCalls() != 0 || node.BatchPutCalls() != 0 {
		t.Errorf("cancelled Read went on to repair the lattice: %d StatMany, %d PutMany", node.BatchStatCalls(), node.BatchPutCalls())
	}

	for name, call := range map[string]func(context.Context) error{
		"GetMany": func(ctx context.Context) error {
			tuples, _ := b.rep.Lattice().Tuples(10)
			_, err := b.netStore().GetMany(ctx, []store.Ref{store.ParityRef(tuples[0].Out)})
			return err
		},
		"Missing": func(ctx context.Context) error {
			_, err := b.netStore().Missing(ctx)
			return err
		},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		node.cancel = cancel
		if err := call(ctx); !errors.Is(err, context.Canceled) {
			t.Errorf("%s cancelled mid-fetch = %v, want context.Canceled", name, err)
		}
		cancel()
	}
}
