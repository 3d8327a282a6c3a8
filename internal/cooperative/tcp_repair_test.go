package cooperative_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aecodes/internal/cluster"
	"aecodes/internal/cooperative"
	"aecodes/internal/entangle"
	"aecodes/internal/lattice"
	"aecodes/internal/obs"
	"aecodes/internal/segstore"
	"aecodes/internal/store"
	"aecodes/internal/tenant"
	"aecodes/internal/transport"
)

// killableProxy forwards TCP connections to a backend and can sever them
// on demand — the test's handle on "a transient network blip at exactly
// the wrong moment".
type killableProxy struct {
	ln      net.Listener
	backend string

	mu    sync.Mutex
	pairs []net.Conn // client-side conns, oldest first
}

func startProxy(t *testing.T, backend string) *killableProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &killableProxy{ln: ln, backend: backend}
	go p.acceptLoop()
	t.Cleanup(func() { ln.Close() })
	return p
}

func (p *killableProxy) Addr() string { return p.ln.Addr().String() }

func (p *killableProxy) acceptLoop() {
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return
		}
		up, err := net.Dial("tcp", p.backend)
		if err != nil {
			client.Close()
			continue
		}
		p.mu.Lock()
		p.pairs = append(p.pairs, client)
		p.mu.Unlock()
		go func() { io.Copy(up, client); up.Close() }()
		go func() { io.Copy(client, up); client.Close() }()
	}
}

// KillOldest severs the oldest proxied connection still on record.
func (p *killableProxy) KillOldest() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.pairs) == 0 {
		return
	}
	p.pairs[0].Close()
	p.pairs = p.pairs[1:]
}

// poisonOnGetMany is a NodeStore decorator that severs a proxied
// connection immediately before forwarding its killOn'th GetMany — for
// round-based repair over this node, that is mid-prefetch.
type poisonOnGetMany struct {
	cooperative.NodeStore
	kill   func()
	killOn int

	mu    sync.Mutex
	calls int
}

func (d *poisonOnGetMany) GetMany(ctx context.Context, keys []string) ([][]byte, error) {
	d.mu.Lock()
	d.calls++
	if d.calls == d.killOn {
		d.kill()
	}
	d.mu.Unlock()
	return d.NodeStore.GetMany(ctx, keys)
}

// TestRepairSurvivesMidPrefetchConnPoison is the end-to-end degraded-mode
// test over real sockets: a pool connection to one storage node is
// poisoned in the middle of a repair round's prefetch, the round
// completes on the surviving connection (the pool evicts the corpse and
// retries the in-flight batch), the background redial restores full pool
// capacity, and every data block decodes intact afterwards.
func TestRepairSurvivesMidPrefetchConnPoison(t *testing.T) {
	const (
		nodesCount = 3
		n          = 40
		blockSize  = 64
	)
	var nodes []cooperative.NodeStore
	var pools []*transport.PoolClient
	var proxy *killableProxy
	for i := 0; i < nodesCount; i++ {
		srv, err := transport.NewServer(transport.NewMemStore())
		if err != nil {
			t.Fatal(err)
		}
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		dialAddr := addr
		if i == 0 {
			proxy = startProxy(t, addr)
			dialAddr = proxy.Addr()
		}
		pool, err := transport.DialPoolOptions(dialAddr, 2, transport.PoolOptions{
			RedialBackoff: 2 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { pool.Close() })
		pools = append(pools, pool)
		if i == 0 {
			// The node whose connection dies mid-prefetch: the second
			// GetMany a repair round sends it is the engine's round
			// prefetch (the first is the Missing enumeration).
			nodes = append(nodes, &poisonOnGetMany{NodeStore: pool, kill: proxy.KillOldest, killOn: 2})
		} else {
			nodes = append(nodes, pool)
		}
	}

	b, err := cooperative.NewBroker("tcpuser", lattice.Params{Alpha: 3, S: 2, P: 5}, blockSize, nodes)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(12))
	originals := make([][]byte, n+1)
	for i := 1; i <= n; i++ {
		data := make([]byte, blockSize)
		rng.Read(data)
		originals[i] = data
		if _, err := b.Backup(ctx, data); err != nil {
			t.Fatalf("Backup(%d): %v", i, err)
		}
	}
	// Lose a third of the user's data so the repair round has real work.
	for i := 1; i <= n; i++ {
		if rng.Float64() < 0.33 {
			b.DropLocal(i)
		}
	}

	stats, err := b.Repair(ctx, entangle.Options{})
	if err != nil {
		t.Fatalf("repair with mid-prefetch poison: %v", err)
	}
	if len(stats.UnrepairedData) != 0 {
		t.Fatalf("repair left %d data blocks missing despite surviving conns", len(stats.UnrepairedData))
	}
	for i := 1; i <= n; i++ {
		got, err := b.Read(ctx, i)
		if err != nil {
			t.Fatalf("Read(%d) after poisoned-round repair: %v", i, err)
		}
		if !bytes.Equal(got, originals[i]) {
			t.Fatalf("block %d corrupted", i)
		}
	}

	// The poisoned connection must have been evicted and redialed: the
	// pool returns to full capacity, not permanent degradation.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && pools[0].Live() < 2 {
		time.Sleep(2 * time.Millisecond)
	}
	if live := pools[0].Live(); live != 2 {
		t.Fatalf("pool to poisoned node has %d live conns, want 2 (redial failed)", live)
	}
	// And the healed pool serves traffic: one more full round trip.
	if err := pools[0].Put(ctx, "healed", []byte("ok")); err != nil {
		t.Fatalf("Put through healed pool: %v", err)
	}
}

// segstoreFleet starts a cluster manager and four storage nodes, each
// serving its own segstore over TCP, announces the nodes to the manager
// and returns the manager's address. With old, every node is fronted by
// startOldNode's proxy: a node built before the node-side ops.
func segstoreFleet(t *testing.T, old bool) string {
	t.Helper()
	ctx := context.Background()
	mgr, err := cluster.NewManager(cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mgrSrv, err := transport.NewServer(mgr.Store())
	if err != nil {
		t.Fatal(err)
	}
	mgrSrv.SetClusterHandler(mgr)
	mgrAddr, err := mgrSrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgrSrv.Close() })
	hb, err := transport.DialPool(mgrAddr, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { hb.Close() })
	for i := 0; i < 4; i++ {
		seg, err := segstore.Open(t.TempDir(), segstore.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { seg.Close() })
		srv, err := transport.NewServer(seg)
		if err != nil {
			t.Fatal(err)
		}
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		if old {
			addr = startOldNode(t, addr)
		}
		if err := hb.NodeStat(ctx, transport.NodeStat{ID: fmt.Sprintf("node-%d", i), Addr: addr}); err != nil {
			t.Fatal(err)
		}
	}
	return mgrAddr
}

// TestRepairOnNodesOverTCP is a parity-only loss on a four-node fleet of
// segstore-backed nodes behind a cluster manager, repaired over real
// sockets. Current nodes rebuild at least 90 % of the parities in place
// (cooperative/repair.node_xor); nodes built before OpXorPutMany refuse
// it, and the broker rebuilds every parity itself. Either way every
// rebuilt parity equals the deleted one byte for byte.
func TestRepairOnNodesOverTCP(t *testing.T) {
	const (
		n         = 512 // eight 64-block volumes
		blockSize = 1024
		user      = "tcprepair"
	)
	params := lattice.Params{Alpha: 3, S: 2, P: 5}
	lat, err := lattice.New(params)
	if err != nil {
		t.Fatal(err)
	}
	for _, old := range []bool{false, true} {
		name := "current nodes"
		if old {
			name = "nodes without OpXorPutMany"
		}
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			router, err := cluster.NewRouter(segstoreFleet(t, old), cluster.RouterOptions{User: user})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { router.Close() })
			b, err := cooperative.NewRoutedBroker(user, params, blockSize, router)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(47))
			for i := 1; i <= n; i++ {
				data := make([]byte, blockSize)
				rng.Read(data)
				if _, err := b.Backup(ctx, data); err != nil {
					t.Fatal(err)
				}
			}

			// Delete a sixth of the parities, remembering each one's bytes.
			type parity struct {
				node cooperative.NodeStore
				key  string
				data []byte
			}
			var deleted []parity
			for i := 1; i <= n; i++ {
				for _, class := range lat.Classes() {
					if rng.Float64() >= 0.16 {
						continue
					}
					e, err := lat.OutEdge(class, i)
					if err != nil {
						t.Fatal(err)
					}
					key := user + "/" + store.ParityKey(e)
					node, _, err := router.Route(ctx, key, e)
					if err != nil {
						t.Fatal(err)
					}
					data, err := node.Get(ctx, key)
					if err != nil {
						t.Fatal(err)
					}
					if err := node.(*transport.PoolClient).Del(ctx, key); err != nil {
						t.Fatal(err)
					}
					deleted = append(deleted, parity{node, key, data})
				}
			}

			before := obs.Default.Snapshot().Counters
			stats, err := b.Repair(ctx, entangle.Options{})
			if err != nil {
				t.Fatal(err)
			}
			after := obs.Default.Snapshot().Counters
			if left := len(stats.UnrepairedData) + len(stats.UnrepairedParities); left != 0 || stats.ParityRepaired != len(deleted) {
				t.Fatalf("repaired %d of %d parities, %d blocks left", stats.ParityRepaired, len(deleted), left)
			}
			for _, p := range deleted {
				got, err := p.node.Get(ctx, p.key)
				if err != nil || !bytes.Equal(got, p.data) {
					t.Fatalf("%s not restored byte for byte (err %v)", p.key, err)
				}
			}
			onNode := after["cooperative/repair.node_xor"] - before["cooperative/repair.node_xor"]
			byBroker := after["cooperative/repair.pair_fetch"] - before["cooperative/repair.pair_fetch"]
			if onNode+byBroker != int64(stats.ParityRepaired) {
				t.Errorf("counted %d node and %d broker rebuilds of %d parities", onNode, byBroker, stats.ParityRepaired)
			}
			if old && onNode != 0 {
				t.Errorf("nodes without the op rebuilt %d parities", onNode)
			}
			if !old && 10*onNode < 9*int64(stats.ParityRepaired) {
				t.Errorf("nodes rebuilt %d of %d parities in place, want ≥ 90 %%", onNode, stats.ParityRepaired)
			}
		})
	}
}

// TestRepairQuotaOverTCP: a tenant with no room left for the parities a
// repair rebuilds gets the node's quota refusal back from Repair as
// store.ErrQuotaExceeded, and nothing is written.
func TestRepairQuotaOverTCP(t *testing.T) {
	const (
		n         = 40
		blockSize = 256
	)
	params := lattice.Params{Alpha: 3, S: 2, P: 5}
	reg, err := tenant.NewRegistry(transport.NewMemStore(), tenant.Config{
		Tenants: map[string]tenant.Quota{"alice": {MaxBytes: n * 3 * blockSize}},
	})
	if err != nil {
		t.Fatal(err)
	}
	alice, err := reg.Open("alice")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := transport.NewServer(alice)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	pool, err := transport.DialPool(addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pool.Close() })
	ctx := context.Background()
	b, err := cooperative.NewBroker("alice", params, blockSize, []cooperative.NodeStore{pool})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		if _, err := b.Backup(ctx, make([]byte, blockSize)); err != nil {
			t.Fatal(err)
		}
	}
	// Free one parity's bytes and spend them on something else.
	lat, err := lattice.New(params)
	if err != nil {
		t.Fatal(err)
	}
	e, err := lat.OutEdge(lattice.Horizontal, 20)
	if err != nil {
		t.Fatal(err)
	}
	key := "alice/" + store.ParityKey(e)
	if err := pool.Del(ctx, key); err != nil {
		t.Fatal(err)
	}
	if err := pool.Put(ctx, "squatter", make([]byte, blockSize)); err != nil {
		t.Fatal(err)
	}
	usage := alice.Usage()
	if _, err := b.Repair(ctx, entangle.Options{}); !errors.Is(err, store.ErrQuotaExceeded) {
		t.Fatalf("Repair over quota = %v, want store.ErrQuotaExceeded", err)
	}
	if _, err := pool.Get(ctx, key); !errors.Is(err, store.ErrNotFound) || alice.Usage() != usage {
		t.Errorf("a refused repair wrote: Get = %v, usage %+v → %+v", err, usage, alice.Usage())
	}
}

// managerClock is a hand-advanced time source for a cluster manager: a
// node dies when the clock passes its TTL while the others keep beating.
type managerClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *managerClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *managerClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// frameWatch is shared by a fleet's tapped node handles: once the broker
// has invalidated a volume it counts, per node address and op, the frames
// still sent; afterPush runs once each XorPutMany frame has returned.
type frameWatch struct {
	invalidated atomic.Bool
	afterPush   func(addr string)

	mu    sync.Mutex
	after map[string]map[string]int // addr → op → frames since the first Invalidate
}

func (w *frameWatch) count(addr, op string) {
	if !w.invalidated.Load() {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.after[addr] == nil {
		w.after[addr] = make(map[string]int)
	}
	w.after[addr][op]++
}

// tappedNode is a pool client whose every frame the watch sees.
type tappedNode struct {
	*transport.PoolClient
	addr  string
	watch *frameWatch
}

func (n *tappedNode) Get(ctx context.Context, key string) ([]byte, error) {
	n.watch.count(n.addr, "Get")
	return n.PoolClient.Get(ctx, key)
}

func (n *tappedNode) Put(ctx context.Context, key string, data []byte) error {
	n.watch.count(n.addr, "Put")
	return n.PoolClient.Put(ctx, key, data)
}

func (n *tappedNode) GetMany(ctx context.Context, keys []string) ([][]byte, error) {
	n.watch.count(n.addr, "GetMany")
	return n.PoolClient.GetMany(ctx, keys)
}

func (n *tappedNode) PutMany(ctx context.Context, items []store.KV) error {
	n.watch.count(n.addr, "PutMany")
	return n.PoolClient.PutMany(ctx, items)
}

func (n *tappedNode) StatMany(ctx context.Context, keys []string) ([]bool, error) {
	n.watch.count(n.addr, "StatMany")
	return n.PoolClient.StatMany(ctx, keys)
}

func (n *tappedNode) XorMany(ctx context.Context, keys []string) ([][]byte, error) {
	n.watch.count(n.addr, "XorMany")
	return n.PoolClient.XorMany(ctx, keys)
}

func (n *tappedNode) XorPutMany(ctx context.Context, items []store.XorKV) ([]bool, error) {
	n.watch.count(n.addr, "XorPutMany")
	applied, err := n.PoolClient.XorPutMany(ctx, items)
	n.watch.afterPush(n.addr)
	return applied, err
}

// watchedRouter is the cluster router, group capability included, with
// the broker's Invalidate calls reported to the watch.
type watchedRouter struct {
	*cluster.Router
	watch *frameWatch
}

func (r watchedRouter) Invalidate(ctx context.Context, group string) (bool, error) {
	moved, err := r.Router.Invalidate(ctx, group)
	r.watch.invalidated.Store(true)
	return moved, err
}

// TestRepairFollowsReplacementMidRun: the node serving a volume dies
// between two rounds of one Repair over TCP, and the manager re-places
// the volume once the broker reports it. The broker's per-call route
// table must not keep sending to the dead address: after the Invalidate
// at most one more frame per op may go there, and the run converges —
// re-seeded once the stalled rounds show the loss — with every parity,
// the dead volume's rebuilt on its new node, equal to the original.
func TestRepairFollowsReplacementMidRun(t *testing.T) {
	const (
		n         = 256 // four 64-block volumes
		blockSize = 256
		user      = "mover"
		ttl       = 10 * time.Second
	)
	ctx := context.Background()
	params := lattice.Params{Alpha: 3, S: 2, P: 5}
	lat, err := lattice.New(params)
	if err != nil {
		t.Fatal(err)
	}
	clk := &managerClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
	mgr, err := cluster.NewManager(cluster.Options{TTL: ttl, Clock: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	mgrSrv, err := transport.NewServer(mgr.Store())
	if err != nil {
		t.Fatal(err)
	}
	mgrSrv.SetClusterHandler(mgr)
	mgrAddr, err := mgrSrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgrSrv.Close() })
	servers := make(map[string]*transport.Server) // node address → server
	ids := make(map[string]string)                // node address → node ID
	for i := 0; i < 5; i++ {
		srv, err := transport.NewServer(transport.NewMemStore())
		if err != nil {
			t.Fatal(err)
		}
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		servers[addr], ids[addr] = srv, fmt.Sprintf("node-%d", i)
	}
	beat := func(except string) {
		for addr, id := range ids {
			if addr == except {
				continue
			}
			if err := mgr.NodeStat(transport.NodeStat{ID: id, Addr: addr}); err != nil {
				t.Errorf("heartbeat %s: %v", id, err)
			}
		}
	}
	beat("")

	watch := &frameWatch{after: make(map[string]map[string]int), afterPush: func(string) {}}
	router, err := cluster.NewRouter(mgrAddr, cluster.RouterOptions{User: user, Dial: func(addr string) (cooperative.NodeStore, error) {
		pool, err := transport.DialPoolOptions(addr, 2, transport.PoolOptions{RedialBackoff: time.Millisecond})
		if err != nil {
			return nil, err
		}
		return &tappedNode{PoolClient: pool, addr: addr, watch: watch}, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { router.Close() })
	b, err := cooperative.NewRoutedBroker(user, params, blockSize, watchedRouter{router, watch})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(53))
	for i := 1; i <= n; i++ {
		data := make([]byte, blockSize)
		rng.Read(data)
		if _, err := b.Backup(ctx, data); err != nil {
			t.Fatal(err)
		}
	}
	parityNode := func(e lattice.Edge) (*tappedNode, string) {
		t.Helper()
		key := user + "/" + store.ParityKey(e)
		node, _, err := router.Route(ctx, key, e)
		if err != nil {
			t.Fatal(err)
		}
		return node.(*tappedNode), key
	}
	originals := make(map[lattice.Edge][]byte)
	for i := 1; i <= n; i++ {
		for _, class := range lat.Classes() {
			e, err := lat.OutEdge(class, i)
			if err != nil {
				t.Fatal(err)
			}
			node, key := parityNode(e)
			if originals[e], err = node.Get(ctx, key); err != nil {
				t.Fatal(err)
			}
		}
	}

	// The victim serves volume 1 (positions 65–128). Three consecutive
	// parities of one of its horizontal strands go: round 1 rebuilds the
	// outer two on the node, in one XorPutMany frame, and the middle one
	// waits for a companion.
	victimVol := cluster.VolumeID(user, cluster.DefaultVolumeBlocks, 65)
	victim := mgr.TableSnapshot().Routes[victimVol]
	e, err := lat.OutEdge(lattice.Horizontal, 84)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 3; k++ {
		node, key := parityNode(e)
		if node.addr != victim {
			t.Fatalf("%s routes to %s, not the victim %s", key, node.addr, victim)
		}
		if err := node.Del(ctx, key); err != nil {
			t.Fatal(err)
		}
		if e, err = lat.OutEdge(lattice.Horizontal, e.Right); err != nil {
			t.Fatal(err)
		}
	}
	// Once that frame is answered the node dies, and the manager sees it
	// dead: its clock passes the TTL while every other node beats.
	var killed atomic.Bool
	watch.afterPush = func(addr string) {
		if addr == victim && killed.CompareAndSwap(false, true) {
			servers[victim].Close()
			clk.Advance(ttl + time.Second)
			beat(victim)
		}
	}

	stats, err := b.Repair(ctx, entangle.Options{Patience: 3, RetryDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if !killed.Load() || !watch.invalidated.Load() {
		t.Fatalf("killed %v, invalidated %v: the run never lost the node or never reported it", killed.Load(), watch.invalidated.Load())
	}
	if left := len(stats.UnrepairedData) + len(stats.UnrepairedParities); left != 0 {
		t.Fatalf("repair left %d blocks after %d rounds", left, stats.Rounds)
	}
	if addr := mgr.TableSnapshot().Routes[victimVol]; addr == victim {
		t.Fatalf("volume %s still placed on the dead node", victimVol)
	}
	for e, want := range originals {
		node, key := parityNode(e)
		if got, err := node.Get(ctx, key); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s not restored byte for byte on %s (err %v)", key, node.addr, err)
		}
	}
	watch.mu.Lock()
	defer watch.mu.Unlock()
	for op, frames := range watch.after[victim] {
		if frames > 1 {
			t.Errorf("%d %s frames went to the dead node after the broker invalidated its volume, want ≤ 1", frames, op)
		}
	}
}
