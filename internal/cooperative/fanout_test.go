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
type frames struct{ get, getMany, put, putMany, stat int }

func countFrames(mems []*InMemoryNode) (total frames, perNode []frames) {
	for _, m := range mems {
		f := frames{m.GetCalls(), m.BatchCalls(), m.PutCalls(), m.BatchPutCalls(), m.BatchStatCalls()}
		perNode = append(perNode, f)
		total.get += f.get
		total.getMany += f.getMany
		total.put += f.put
		total.putMany += f.putMany
		total.stat += f.stat
	}
	return total, perNode
}

func resetAll(mems []*InMemoryNode) {
	for _, m := range mems {
		m.ResetCounters()
	}
}

// tupleNodes returns how many distinct nodes hold the real parities of t
// — the GetMany frames one try of that tuple costs.
func tupleNodes(t *testing.T, b *Broker, tu lattice.Tuple) int {
	t.Helper()
	seen := map[NodeStore]bool{}
	for _, e := range []lattice.Edge{tu.In, tu.Out} {
		if e.IsVirtual() {
			continue
		}
		node, _, err := b.router.Route(bg, b.parityKey(e), e)
		if err != nil {
			t.Fatal(err)
		}
		seen[node] = true
	}
	return len(seen)
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

	// Clean read: one GetMany frame when the first tuple shares a node,
	// one frame on each of two nodes when it does not; never a Get.
	b.DropLocal()
	sameNode := 0
	for i := 1; i <= n; i++ {
		tuples, err := lat.Tuples(i)
		if err != nil {
			t.Fatal(err)
		}
		want := tupleNodes(t, b, tuples[0])
		if want == 1 {
			sameNode++
		}
		resetAll(mems)
		got, err := b.Read(bg, i)
		if err != nil || !bytes.Equal(got, originals[i]) {
			t.Fatalf("Read(%d): wrong content or error %v", i, err)
		}
		f, per := countFrames(mems)
		if f.getMany != want || f.get != 0 || f.stat != 0 {
			t.Fatalf("clean Read(%d) cost %d GetMany frames, %d Gets, %d StatMany; want %d, 0, 0", i, f.getMany, f.get, f.stat, want)
		}
		for k, p := range per {
			if p.getMany > 1 {
				t.Fatalf("clean Read(%d) sent node %d %d frames, want ≤ 1", i, k, p.getMany)
			}
		}
	}
	if share := float64(sameNode) / n; share < 0.95 {
		t.Errorf("only %.0f%% of clean reads were one frame; stripes of %d should give ≈ 97%%", 100*share, stripe)
	}

	// Degraded read: every tuple tried costs one exchange, and a read with
	// a complete tuple left never falls back to a repair.
	for _, i := range []int{5, 64, 65, 500, 1000} {
		tuples, err := lat.Tuples(i)
		if err != nil {
			t.Fatal(err)
		}
		in := tuples[0].In
		node, _, _ := b.router.Route(bg, b.parityKey(in), in)
		mem := node.(*InMemoryNode)
		mem.mu.Lock()
		delete(mem.blocks, b.parityKey(in))
		mem.mu.Unlock()
		want := tupleNodes(t, b, tuples[0]) + tupleNodes(t, b, tuples[1])
		b.DropLocal(i)
		resetAll(mems)
		got, err := b.Read(bg, i)
		if err != nil || !bytes.Equal(got, originals[i]) {
			t.Fatalf("degraded Read(%d): wrong content or error %v", i, err)
		}
		if f, _ := countFrames(mems); f.getMany != want || f.get != 0 || f.stat != 0 {
			t.Errorf("degraded Read(%d) over two tuples cost %d GetMany frames, %d Gets, %d StatMany; want %d, 0, 0", i, f.getMany, f.get, f.stat, want)
		}
	}

	// Repair: delete 15% of the parities and a third of the user's blocks.
	// The run is one StatMany frame per node (768 keys each), then at most
	// one GetMany and one PutMany frame per node per round — there are
	// four volumes on every node.
	for i := 1; i <= n; i++ {
		if rng.Float64() < 0.33 {
			b.DropLocal(i)
		}
	}
	for _, m := range mems {
		m.mu.Lock()
		keys := make([]string, 0, len(m.blocks))
		for k := range m.blocks {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if rng.Float64() < 0.15 {
				delete(m.blocks, k)
			}
		}
		m.mu.Unlock()
	}
	resetAll(mems)
	stats, err := b.Repair(bg, entangle.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if left := len(stats.UnrepairedData) + len(stats.UnrepairedParities); left != 0 || stats.Rounds == 0 {
		t.Fatalf("repair left %d blocks after %d rounds", left, stats.Rounds)
	}
	_, per := countFrames(mems)
	for k, p := range per {
		if p.get != 0 || p.put != 0 {
			t.Errorf("node %d served %d Gets and %d Puts during repair, want 0", k, p.get, p.put)
		}
		if p.stat != 1 || p.getMany > stats.Rounds || p.putMany > stats.Rounds {
			t.Errorf("node %d served %d StatMany, %d GetMany, %d PutMany frames over %d rounds; want 1, ≤ %d, ≤ %d",
				k, p.stat, p.getMany, p.putMany, stats.Rounds, stats.Rounds, stats.Rounds)
		}
	}
	for i := 1; i <= n; i++ {
		if got, err := b.Read(bg, i); err != nil || !bytes.Equal(got, originals[i]) {
			t.Fatalf("after repair Read(%d): wrong content or error %v", i, err)
		}
	}
}

// tapNode logs the size of every batched frame its node serves into one
// sequence shared by the fleet. The engine finishes a round's fetch before
// it commits, so the log of a repair run reads: StatMany frames, then per
// round its GetMany frames followed by its PutMany frames.
type tapNode struct {
	*InMemoryNode
	log *frameLog
}

type frameLog struct {
	mu     sync.Mutex
	events []frameEvent
}

type frameEvent struct {
	node *tapNode
	op   byte // 's'tat, 'g'et, 'p'ut
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

// TestRepairEnumeratesOncePerRun pins the planned round on the wire: a
// node is asked which keys it holds once per Repair — ⌈keys / batchChunk⌉
// StatMany exchanges whatever the round count — and a round's GetMany
// frames together carry at most two keys per block the round repairs.
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
		keys := make([]string, 0, len(tap.blocks))
		for k := range tap.blocks {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if rng.Float64() < 0.2 {
				delete(tap.blocks, k)
			}
		}
	}
	log.events = nil
	stats, err := b.Repair(bg, entangle.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if left := len(stats.UnrepairedData) + len(stats.UnrepairedParities); left != 0 || stats.Rounds < 3 {
		t.Fatalf("repair left %d blocks after %d rounds, want a clean run of several rounds", left, stats.Rounds)
	}

	statFrames := make(map[NodeStore]int)
	var fetched []int // keys fetched, per round
	var last byte
	for _, ev := range log.events {
		switch ev.op {
		case 's':
			statFrames[ev.node]++
			if last != 0 && last != 's' {
				t.Fatalf("StatMany after the first round started: the engine enumerated twice")
			}
		case 'g':
			if last != 'g' {
				fetched = append(fetched, 0)
			}
			fetched[len(fetched)-1] += ev.keys
		}
		last = ev.op
	}
	for _, tap := range taps {
		if want := (keysOn[tap] + batchChunk - 1) / batchChunk; statFrames[tap] != want || want < 2 {
			t.Errorf("node holding %d keys served %d StatMany frames over %d rounds, want ⌈keys/%d⌉ = %d (and ≥ 2 for the test to bite)",
				keysOn[tap], statFrames[tap], stats.Rounds, batchChunk, want)
		}
	}
	if len(fetched) != stats.Rounds {
		t.Fatalf("log shows %d fetch phases for %d rounds", len(fetched), stats.Rounds)
	}
	for k, keys := range fetched {
		if repaired := stats.PerRound[k].DataRepaired + stats.PerRound[k].ParityRepaired; keys > 2*repaired {
			t.Errorf("round %d fetched %d keys to repair %d blocks, want ≤ 2 per block", k+1, keys, repaired)
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
	if !reflect.DeepEqual(spare.blocks, dead.blocks) {
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

func (n *cancellingNode) StatMany(ctx context.Context, keys []string) ([]bool, error) {
	n.cancel()
	return n.InMemoryNode.StatMany(ctx, keys)
}

// TestCancellationIsNotMissing: a context that ends mid-fetch surfaces as
// its error from GetMany, Missing and Read — not as an all-missing result
// that Read answers with a whole-lattice repair.
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
