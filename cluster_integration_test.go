package aecodes_test

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"aecodes/internal/cluster"
	"aecodes/internal/cooperative"
	"aecodes/internal/entangle"
	"aecodes/internal/lattice"
	"aecodes/internal/store"
	"aecodes/internal/transport"
)

// clusterClock is a hand-advanced time source: node death in this test
// is a clock advance plus surviving heartbeats, never a sleep, so the
// test is deterministic under -race.
type clusterClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *clusterClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *clusterClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// clusterNode is one fleet member: a real TCP storage node plus its
// backing store and server handle (for killing it).
type clusterNode struct {
	id    string
	addr  string
	srv   *transport.Server
	store *store.Mem
}

// TestClusterEndToEnd is the fleet-scale integration test: one cluster
// manager and four storage nodes over real TCP. A broker with no node
// list at all — only the manager's address — backs up across multiple
// volumes on multiple nodes; then one node dies, the manager marks it
// dead, and cooperative repair re-routes through the refreshed table
// and regenerates the dead node's volumes on survivors.
func TestClusterEndToEnd(t *testing.T) {
	const (
		fleetSize    = 4
		n            = 40
		blockSize    = 64
		volumeBlocks = 4
		ttl          = 10 * time.Second
	)
	ctx := context.Background()
	clk := &clusterClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}

	// The manager, serving routes and heartbeats over real TCP.
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

	// Four storage nodes, each a real listener.
	fleet := make([]*clusterNode, fleetSize)
	for i := range fleet {
		mem := store.NewMem()
		srv, err := transport.NewServer(mem)
		if err != nil {
			t.Fatal(err)
		}
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		fleet[i] = &clusterNode{id: fmt.Sprintf("node-%d", i), addr: addr, srv: srv, store: mem}
	}

	// Heartbeats travel the wire like aestored's loop sends them; the
	// test drives the ticks so liveness follows the fake clock exactly.
	hb, err := transport.DialPool(mgrAddr, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { hb.Close() })
	beatAll := func(except int) {
		t.Helper()
		for i, node := range fleet {
			if i == except {
				continue
			}
			err := hb.NodeStat(ctx, transport.NodeStat{
				ID: node.id, Addr: node.addr,
				Used: int64(node.store.Len() * blockSize),
				Tenants: []transport.TenantUsage{
					{Tenant: "acme", Bytes: int64(100 + i), Blocks: int64(i + 1)},
				},
			})
			if err != nil {
				t.Fatalf("heartbeat %s: %v", node.id, err)
			}
		}
	}
	beatAll(-1)

	// OpUsage aggregates the fleet's per-tenant accounting.
	usage, err := hb.Usage(ctx, "acme")
	if err != nil {
		t.Fatal(err)
	}
	if len(usage) != 1 || usage[0].Bytes != 100+101+102+103 || usage[0].Blocks != 1+2+3+4 {
		t.Fatalf("fleet usage for acme = %+v", usage)
	}

	// The broker knows only the manager: every route comes from the
	// volume table, no flat node list anywhere.
	router, err := cluster.NewRouter(mgrAddr, cluster.RouterOptions{
		User: "alice", VolumeBlocks: volumeBlocks, Conns: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { router.Close() })
	b, err := cooperative.NewRoutedBroker("alice", lattice.Params{Alpha: 3, S: 2, P: 5}, blockSize, router)
	if err != nil {
		t.Fatal(err)
	}

	originals := make([][]byte, n+1)
	for i := 1; i <= n; i++ {
		data := make([]byte, blockSize)
		for j := range data {
			data[j] = byte(i * (j + 1))
		}
		originals[i] = data
		if _, err := b.Backup(ctx, data); err != nil {
			t.Fatalf("Backup(%d): %v", i, err)
		}
	}

	// The backup must have sharded across volumes and nodes.
	table := mgr.TableSnapshot()
	if len(table.Routes) < 2 {
		t.Fatalf("backup created %d volumes, want ≥ 2", len(table.Routes))
	}
	nodesUsed := make(map[string]bool)
	for _, addr := range table.Routes {
		nodesUsed[addr] = true
	}
	if len(nodesUsed) < 3 {
		t.Fatalf("volumes landed on %d nodes, want ≥ 3: %v", len(nodesUsed), table.Routes)
	}
	totalParities := 0
	for _, node := range fleet {
		totalParities += node.store.Len()
	}
	if want := n * 3; totalParities != want {
		t.Fatalf("fleet holds %d parities, want %d", totalParities, want)
	}

	// Reads work across the sharded fleet before any failure.
	b.DropLocal(3)
	got, err := b.Read(ctx, 3)
	if err != nil || !bytes.Equal(got, originals[3]) {
		t.Fatalf("pre-failure Read(3): %v", err)
	}

	// Kill a node that owns at least one volume.
	victim := -1
	for i, node := range fleet {
		if victimOwns(table, node.addr) {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Fatal("no node owns a volume?")
	}
	lost := fleet[victim].store.Len()
	if lost == 0 {
		t.Fatalf("victim %s owns volumes but holds no parities", fleet[victim].id)
	}
	fleet[victim].srv.Close()

	// Its heartbeats stop; everyone else keeps beating past its TTL.
	clk.Advance(ttl + time.Second)
	beatAll(victim)
	var dead *cluster.NodeInfo
	for _, info := range mgr.Nodes() {
		if info.ID == fleet[victim].id {
			v := info
			dead = &v
		} else if !info.Alive {
			t.Fatalf("survivor %s marked dead", info.ID)
		}
	}
	if dead == nil || dead.Alive {
		t.Fatalf("manager did not mark %s dead: %+v", fleet[victim].id, dead)
	}

	// Repair: enumeration finds the dead node's parities missing, the
	// commit's route failure triggers the stale-hint exchange, the
	// manager re-places those volumes on survivors, and the regenerated
	// parities land there — all through the refreshed epoch.
	epochBefore := router.Epoch()
	stats, err := b.Repair(ctx, entangle.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.ParityRepaired < lost {
		t.Errorf("repair regenerated %d parities, want ≥ the %d lost", stats.ParityRepaired, lost)
	}
	if router.Epoch() <= epochBefore {
		t.Errorf("router epoch %d did not advance past %d across re-placement", router.Epoch(), epochBefore)
	}
	after := mgr.TableSnapshot()
	for vol, addr := range after.Routes {
		if addr == fleet[victim].addr {
			t.Errorf("volume %s still routed to dead node after repair", vol)
		}
	}
	if after.Epoch <= table.Epoch {
		t.Errorf("table epoch %d did not advance past %d", after.Epoch, table.Epoch)
	}

	// Every block is still recoverable through the healed fleet, and each
	// read is one pp-tuple exchange: the servers' own request counters
	// (one registry for every server of this process, read over OpMetrics
	// like a dashboard would) see one XorMany frame per read whose tuple
	// one node holds, one GetMany frame on each of two nodes when the
	// tuple straddles them — which stripes of 4 make common — and no
	// single-block Get at all.
	admin, err := transport.DialPool(fleet[(victim+1)%fleetSize].addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { admin.Close() })
	before, err := admin.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	b.DropLocal()
	for i := 1; i <= n; i++ {
		got, err := b.Read(ctx, i)
		if err != nil {
			t.Fatalf("post-failure Read(%d): %v", i, err)
		}
		if !bytes.Equal(got, originals[i]) {
			t.Fatalf("block %d corrupted across node failure", i)
		}
	}
	afterReads, err := admin.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if gets := afterReads.Counters["transport/get.count"] - before.Counters["transport/get.count"]; gets != 0 {
		t.Errorf("%d reads cost %d single-block Get requests, want 0", n, gets)
	}
	delta := func(name string) int64 { return afterReads.Counters[name] - before.Counters[name] }
	xors, getManys := delta("transport/xormany.count"), delta("transport/getmany.count")
	if frames := xors + getManys; frames < n || frames > 2*n {
		t.Errorf("%d reads cost %d XorMany and %d GetMany frames, want one per read (two when its tuple straddles nodes)", n, xors, getManys)
	}
	if xors == 0 {
		t.Errorf("no read was a node-side XOR: %d GetMany frames", getManys)
	}
}

func victimOwns(table cluster.Table, addr string) bool {
	for _, a := range table.Routes {
		if a == addr {
			return true
		}
	}
	return false
}
