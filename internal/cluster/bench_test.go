package cluster

import (
	"fmt"
	"testing"
	"time"

	"aecodes/internal/cooperative"
	"aecodes/internal/lattice"
	"aecodes/internal/transport"
)

// The control plane's three hot paths: heartbeat frames over loopback
// TCP, placement decisions, and the broker-side routing-table lookup
// every parity transfer pays.

const benchFleet = 16

// benchManager serves a manager over loopback TCP and registers a fleet
// of benchFleet nodes through heartbeat frames; it returns the manager,
// its address, a client, and the heartbeat each node sent.
func benchManager(b *testing.B) (*Manager, string, *transport.PoolClient, []transport.NodeStat) {
	m, err := NewManager(Options{TTL: time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	srv, err := transport.NewServer(m.Store())
	if err != nil {
		b.Fatal(err)
	}
	srv.SetClusterHandler(m)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	client, err := transport.DialPool(addr, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { client.Close() })
	stats := make([]transport.NodeStat, benchFleet)
	for i := range stats {
		stats[i] = transport.NodeStat{
			ID:       fmt.Sprintf("node-%03d", i),
			Addr:     fmt.Sprintf("10.0.0.%d:7070", i),
			Capacity: 1 << 40,
			Tenants: []transport.TenantUsage{
				{Tenant: "acme", Bytes: 1 << 30, Blocks: 4096},
				{Tenant: "zeta", Bytes: 1 << 20, Blocks: 64},
			},
		}
		if err := client.NodeStat(bgCtx, stats[i]); err != nil {
			b.Fatal(err)
		}
	}
	return m, addr, client, stats
}

// BenchmarkHeartbeat is the full OpNodeStat path (encode, loopback TCP,
// decode, membership upsert) as every node pays it a few times per TTL.
func BenchmarkHeartbeat(b *testing.B) {
	_, _, client, stats := benchManager(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stat := stats[i%benchFleet]
		stat.Used = int64(i)
		if err := client.NodeStat(bgCtx, stat); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlacement places a fresh volume per op through the manager's
// weighted rendezvous pick over the whole fleet.
func BenchmarkPlacement(b *testing.B) {
	m, _, _, _ := benchManager(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Route(fmt.Sprintf("bench/%d", i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRouteLookup is the broker-side cache hit. One in-memory node
// stands in for the fleet, so the path measured is exactly volume-ID
// derivation and cached-table resolution.
func BenchmarkRouteLookup(b *testing.B) {
	_, addr, _, _ := benchManager(b)
	node := cooperative.NewInMemoryNode()
	router, err := NewRouter(addr, RouterOptions{
		User: "bench", VolumeBlocks: 64, Conns: 1,
		Dial: func(string) (cooperative.NodeStore, error) { return node, nil },
	})
	if err != nil {
		b.Fatal(err)
	}
	defer router.Close()
	if _, _, err := router.Route(bgCtx, "warm", lattice.Edge{Left: 1, Right: 2}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := lattice.Edge{Left: i%64 + 1, Right: i%64 + 2}
		if _, _, err := router.Route(bgCtx, "hot", e); err != nil {
			b.Fatal(err)
		}
	}
}
