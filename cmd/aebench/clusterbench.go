// The cluster experiment puts the control plane's three hot paths under
// the bench guard: placement decisions (the manager assigning volumes to
// nodes), routing-table lookups (the broker-side cache hit every parity
// transfer pays), and heartbeat frame round-trips over real loopback
// TCP. All three are latency-style metrics recorded as ns/op — the
// guard compares them in the lower-is-better direction.
package main

import (
	"context"
	"fmt"
	"time"

	"aecodes/internal/benchfmt"
	"aecodes/internal/cluster"
	"aecodes/internal/cooperative"
	"aecodes/internal/lattice"
	"aecodes/internal/transport"
)

// clusterConfig sizes the cluster experiment.
type clusterConfig struct {
	fleet      int // registered nodes
	placements int // fresh volumes placed
	lookups    int // cached routing-table lookups
	heartbeats int // OpNodeStat round-trips over loopback TCP
}

func clusterBench(cfg clusterConfig) error {
	mgr, err := cluster.NewManager(cluster.Options{TTL: time.Hour})
	if err != nil {
		return err
	}
	srv, err := transport.NewServer(mgr.Store())
	if err != nil {
		return err
	}
	srv.SetClusterHandler(mgr)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	client, err := transport.DialPool(addr, 1)
	if err != nil {
		return err
	}
	defer client.Close()
	ctx := context.Background()

	fmt.Printf("Cluster control plane — %d nodes, %d placements, %d lookups, %d heartbeats\n",
		cfg.fleet, cfg.placements, cfg.lookups, cfg.heartbeats)

	// Register the fleet and measure the heartbeat frame round-trip: the
	// full OpNodeStat path (encode, loopback TCP, decode, membership
	// upsert) as every node pays it a few times per TTL.
	stat := transport.NodeStat{
		Capacity: 1 << 40,
		Tenants: []transport.TenantUsage{
			{Tenant: "acme", Bytes: 1 << 30, Blocks: 4096},
			{Tenant: "zeta", Bytes: 1 << 20, Blocks: 64},
		},
	}
	start := time.Now()
	for i := 0; i < cfg.heartbeats; i++ {
		node := i % cfg.fleet
		stat.ID = fmt.Sprintf("node-%03d", node)
		stat.Addr = fmt.Sprintf("10.0.0.%d:7070", node)
		stat.Used = int64(i)
		if err := client.NodeStat(ctx, stat); err != nil {
			return err
		}
	}
	hb := time.Since(start)

	// Placement decisions: fresh volumes through the manager's weighted
	// rendezvous pick over the whole fleet.
	start = time.Now()
	for i := 0; i < cfg.placements; i++ {
		if _, err := mgr.Route(fmt.Sprintf("bench/%d", i)); err != nil {
			return err
		}
	}
	place := time.Since(start)

	// Routing-table lookups: the broker-side cache hit. One in-memory
	// node stands in for the fleet so the path measured is exactly
	// volume-ID derivation + cached-table resolution.
	dummy := cooperative.NewInMemoryNode()
	router, err := cluster.NewRouter(addr, cluster.RouterOptions{
		User: "bench", VolumeBlocks: 64, Conns: 1,
		Dial: func(string) (cooperative.NodeStore, error) { return dummy, nil },
	})
	if err != nil {
		return err
	}
	defer router.Close()
	if _, _, err := router.Route(ctx, "warm", lattice.Edge{Left: 1, Right: 2}); err != nil {
		return err
	}
	start = time.Now()
	for i := 0; i < cfg.lookups; i++ {
		e := lattice.Edge{Left: i%64 + 1, Right: i%64 + 2}
		if _, _, err := router.Route(ctx, "hot", e); err != nil {
			return err
		}
	}
	lookup := time.Since(start)

	hbNs := float64(hb.Nanoseconds()) / float64(cfg.heartbeats)
	placeNs := float64(place.Nanoseconds()) / float64(cfg.placements)
	lookupNs := float64(lookup.Nanoseconds()) / float64(cfg.lookups)
	fmt.Printf("  heartbeat:    %9.0f ns/round-trip (%.0f frames/s)\n", hbNs, 1e9/hbNs)
	fmt.Printf("  placement:    %9.0f ns/decision (%.0f decisions/s)\n", placeNs, 1e9/placeNs)
	fmt.Printf("  route-lookup: %9.0f ns/op (%.0f lookups/s)\n", lookupNs, 1e9/lookupNs)
	record(benchfmt.Result{Experiment: "cluster", Name: "heartbeat", NsPerOp: hbNs})
	record(benchfmt.Result{Experiment: "cluster", Name: "placement", NsPerOp: placeNs})
	record(benchfmt.Result{Experiment: "cluster", Name: "route-lookup", NsPerOp: lookupNs})
	return nil
}
