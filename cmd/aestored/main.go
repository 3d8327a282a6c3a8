// Command aestored runs a storage node for the cooperative backup network
// of §IV.A: a TCP server that stores and serves blocks (parities from
// remote users, mostly) under string keys.
//
// Usage:
//
//	aestored -addr 127.0.0.1:7070
//	aestored -addr 127.0.0.1:7070 -data /var/lib/aestored
//	aestored -addr 127.0.0.1:7070 -data /var/lib/aestored -compactratio 0.5
//	aestored -addr 127.0.0.1:7070 -tenants tenants.json -evicthw 1073741824
//	aestored -addr 127.0.0.1:7070 -idletimeout 2m
//
// The node announces its bound address on stdout and serves until
// interrupted.
//
// With -data set, blocks are persisted to an append-only segment store
// in that directory: a killed node reopens its log on restart, verifies
// every record's CRC32-C, truncates a torn tail left by a crash
// mid-write, and serves its surviving blocks — so a restart is a cheap
// rejoin for the repair engine instead of a full re-entanglement.
// Acknowledged writes always survive a kill of the process; without
// -sync a power loss may take what was written since the last sealed
// segment reached the disk (at most two segments, see -segsize), with
// -sync every write is acknowledged only once it is on disk (power-loss
// durability at a throughput cost). A failed fsync stops the store for
// writes — it is never retried — and the node keeps serving reads until
// it is restarted. -compactdead runs a log compaction on startup when
// at least that many bytes are reclaimable, and -compactratio keeps
// compacting while serving: whenever dead bytes reach that share of the
// log, the store reclaims them in place. Without -data the node is
// memory-only and a restart loses everything it held.
//
// Multi-tenancy is enabled by any of -tenants, -quota or -evicthw. The
// node then serves each handshaked tenant from its own namespace, with
// byte/block quotas enforced at write time (over-quota writes are
// refused with a typed quota status) and per-tenant usage rebuilt from
// the log on restart. -tenants names a JSON config file (see
// internal/tenant.LoadConfig for the format: per-tenant quotas and
// reservations, a default quota, a strict flag, the eviction high-water
// mark); -quota overrides the default per-tenant byte quota and -evicthw
// the eviction high-water mark. When the node's live bytes exceed the
// high-water mark, whole cold tenant lattices are shed (LRU, never a
// tenant at or below its reservation) — entanglement repair can
// regenerate an evicted lattice later. Clients that never handshake are
// served as the anonymous tenant from the raw keyspace, so old clients
// keep working unchanged.
//
// With -scrubrate and/or -healrate set (bytes per second; both require
// -data), the node runs background maintenance under a shared token
// bucket: a continuous CRC scrub walks the log in key order dropping
// corrupt records, and a healing task repairs the store's lattice
// most-fragile blocks first through minimal repair tuples. Maintenance
// pauses whenever foreground requests are in flight and resumes when
// the node goes idle, so it never competes with clients for the log.
//
// With -metricsaddr set, the node serves its metrics registry over
// HTTP on that address: "/" and "/metrics" render sorted plain-text
// lines (one metric per line, histograms as count/mean/p50/p90/p99/
// p999), "/metrics.json" the versioned JSON snapshot — the same
// document the OpMetrics transport frame carries, so curl and
// PoolClient.Metrics always agree. The announcement line is "aestored
// metrics on <addr>".
//
// With -idletimeout set, connections idle longer than that are dropped
// so abandoned broker connections cannot pin sockets forever. It
// defaults to off: transport.PoolClient redials a reaped connection on
// its own, but a peer speaking the wire protocol over a bare socket has
// to reconnect itself.
//
// With -cluster set to a cluster manager's address, the node joins the
// fleet: it announces itself to the manager with periodic OpNodeStat
// heartbeats carrying capacity (-capacity), used bytes, segment-store
// pressure and per-tenant usage, so the manager places volumes on it
// and brokers route to it through the manager's table. -node names the
// node's stable identity and -advertise the address peers dial (both
// default to the bound listen address); -hbinterval tunes the announce
// period. A cluster node also answers OpUsage queries from its own
// tenant registry.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"net"

	"aecodes/internal/cluster"
	"aecodes/internal/entangle"
	"aecodes/internal/maintain"
	"aecodes/internal/obs"
	"aecodes/internal/segstore"
	"aecodes/internal/store"
	"aecodes/internal/tenant"
	"aecodes/internal/transport"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:0", "listen address")
	idle := flag.Duration("idletimeout", 0, "drop connections idle this long (0 disables; pool clients redial, bare sockets must reconnect)")
	data := flag.String("data", "", "durable data directory (append-only segment store); empty = memory-only")
	sync := flag.Bool("sync", false, "acknowledge a write only after it is on disk: every append is fsynced, and so are a segment sealed by it and the directory (requires -data)")
	segSize := flag.Int64("segsize", 0, "segment rotation threshold in bytes; a full segment is sealed (fsynced) beside the appends that follow, so without -sync a power loss can take at most two segments' worth of writes (0 = 64 MiB default; requires -data)")
	compactDead := flag.Int64("compactdead", 0, "compact the log on startup when at least this many bytes are dead (0 disables; requires -data)")
	compactRatio := flag.Float64("compactratio", 0, "auto-compact while serving when dead bytes reach this share of the log, e.g. 0.5 (0 disables; requires -data)")
	tenantsFile := flag.String("tenants", "", "tenant config file (JSON; enables multi-tenancy)")
	quota := flag.Int64("quota", 0, "default per-tenant byte quota (0 = unlimited; enables multi-tenancy)")
	evictHW := flag.Int64("evicthw", 0, "eviction high-water mark in live bytes: shed cold tenant lattices above it (0 disables; enables multi-tenancy)")
	scrubRate := flag.Int64("scrubrate", 0, "background CRC scrub rate in bytes/s (0 disables; requires -data)")
	healRate := flag.Int64("healrate", 0, "background lattice healing rate in bytes/s (0 disables; requires -data)")
	clusterAddr := flag.String("cluster", "", "cluster manager address: join the fleet and heartbeat to it (empty = standalone)")
	nodeID := flag.String("node", "", "stable node identity announced in heartbeats (default: the bound listen address; requires -cluster)")
	advertise := flag.String("advertise", "", "address peers dial to reach this node (default: the bound listen address; requires -cluster)")
	capacity := flag.Int64("capacity", 0, "advertised byte capacity for cluster placement (0 = unlimited; requires -cluster)")
	hbInterval := flag.Duration("hbinterval", 0, "heartbeat interval (0 = a third of the manager's liveness TTL; requires -cluster)")
	metricsAddr := flag.String("metricsaddr", "", "serve metrics over HTTP on this address: / and /metrics plain text, /metrics.json JSON (empty disables)")
	flag.Parse()

	if *clusterAddr == "" && (*nodeID != "" || *advertise != "" || *capacity != 0 || *hbInterval != 0) {
		fmt.Fprintln(os.Stderr, "aestored: -node, -advertise, -capacity and -hbinterval need -cluster")
		os.Exit(1)
	}

	if *data == "" && (*sync || *segSize != 0 || *compactDead != 0 || *compactRatio != 0) {
		fmt.Fprintln(os.Stderr, "aestored: -sync, -segsize, -compactdead and -compactratio need -data")
		os.Exit(1)
	}
	if *data == "" && (*scrubRate != 0 || *healRate != 0) {
		fmt.Fprintln(os.Stderr, "aestored: -scrubrate and -healrate need -data")
		os.Exit(1)
	}

	var backing tenant.Backing = transport.NewMemStore()
	var seg *segstore.Store
	if *data != "" {
		var err error
		seg, err = segstore.Open(*data, segstore.Options{Sync: *sync, SegmentSize: *segSize, CompactRatio: *compactRatio})
		if err != nil {
			fmt.Fprintln(os.Stderr, "aestored:", err)
			os.Exit(1)
		}
		st := seg.Stats()
		fmt.Printf("aestored: recovered %d blocks from %d segments in %s", st.Blocks, st.Segments, *data)
		if st.TruncatedBytes > 0 {
			fmt.Printf(" (truncated a %d-byte torn tail)", st.TruncatedBytes)
		}
		fmt.Println()
		if *compactDead > 0 && st.DeadBytes >= *compactDead {
			if err := seg.Compact(); err != nil {
				fmt.Fprintln(os.Stderr, "aestored: compaction:", err)
				os.Exit(1)
			}
			fmt.Printf("aestored: compacted %d dead bytes\n", st.DeadBytes-seg.Stats().DeadBytes)
		}
		backing = seg
	}

	var served store.Keyed = backing
	multiTenant := *tenantsFile != "" || *quota > 0 || *evictHW > 0
	var reg *tenant.Registry
	if multiTenant {
		cfg := tenant.Config{}
		if *tenantsFile != "" {
			var err error
			cfg, err = tenant.LoadConfig(*tenantsFile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "aestored:", err)
				os.Exit(1)
			}
		}
		if *quota > 0 {
			cfg.Default.MaxBytes = *quota
		}
		if *evictHW > 0 {
			cfg.HighWater = *evictHW
		}
		var err error
		reg, err = tenant.NewRegistry(backing, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "aestored:", err)
			os.Exit(1)
		}
		anon, err := reg.Open(tenant.Anonymous)
		if err != nil {
			fmt.Fprintln(os.Stderr, "aestored:", err)
			os.Exit(1)
		}
		// The anonymous view becomes the default store, so pre-handshake
		// clients are quota-accounted too; handshaked connections swap to
		// their tenant's view through the resolver.
		served = anon
		fmt.Printf("aestored: multi-tenant (%d configured tenants, %d live bytes accounted)\n",
			len(cfg.Tenants), reg.TotalBytes())
	}

	srv, err := transport.NewServer(served)
	if err != nil {
		fmt.Fprintln(os.Stderr, "aestored:", err)
		os.Exit(1)
	}
	if reg != nil {
		srv.SetTenantResolver(func(id string) (store.Keyed, error) {
			return reg.Open(id)
		})
	}
	srv.SetIdleTimeout(*idle)
	if *clusterAddr != "" {
		// A fleet node answers per-tenant usage queries itself (and
		// refuses heartbeats — those flow node → manager only).
		srv.SetClusterHandler(cluster.NodeUsage{Reg: reg})
	}
	bound, err := srv.Listen(*addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "aestored:", err)
		os.Exit(1)
	}
	fmt.Println("aestored listening on", bound)

	obsCtx, obsStop := context.WithCancel(context.Background())
	defer obsStop()
	if *metricsAddr != "" {
		mln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "aestored: metrics listener:", err)
			os.Exit(1)
		}
		go obs.Serve(obsCtx, mln, obs.Default)
		fmt.Println("aestored metrics on", mln.Addr())
	}

	hbCtx, hbStop := context.WithCancel(context.Background())
	defer hbStop()
	if *clusterAddr != "" {
		cfg := cluster.HeartbeatConfig{
			ID:       *nodeID,
			Addr:     *advertise,
			Capacity: *capacity,
			Seg:      seg,
			Reg:      reg,
			Interval: *hbInterval,
		}
		if cfg.ID == "" {
			cfg.ID = bound
		}
		if cfg.Addr == "" {
			cfg.Addr = bound
		}
		mgr, err := transport.DialPoolOptions(*clusterAddr, 1, transport.PoolOptions{
			ResponseTimeout: 5 * time.Second,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "aestored: cluster manager:", err)
			os.Exit(1)
		}
		defer mgr.Close()
		go cluster.Heartbeat(hbCtx, mgr, cfg)
		fmt.Printf("aestored: joined cluster %s as %s (advertising %s)\n", *clusterAddr, cfg.ID, cfg.Addr)
	}

	// Background maintenance: a rate-limited scrub walks the log
	// verifying CRCs (corrupt records are dropped, which surfaces them as
	// missing), and a healing task repairs the store's lattice most-fragile
	// blocks first — both under one token bucket, paused whenever foreground
	// requests are in flight.
	maintCtx, maintStop := context.WithCancel(context.Background())
	defer maintStop()
	var maintDone chan struct{}
	if *scrubRate > 0 || *healRate > 0 {
		bucket := maintain.NewBucket(float64(*scrubRate+*healRate), 0)
		var tasks []maintain.Task
		if *scrubRate > 0 {
			tasks = append(tasks, &maintain.ScrubTask{Store: seg, Limit: bucket})
		}
		if *healRate > 0 {
			tasks = append(tasks, &maintain.HealTask{
				Open: func(ctx context.Context) (maintain.HealTarget, error) {
					lat, err := segstore.OpenLattice(seg)
					if err != nil {
						return nil, err // wraps store.ErrNotFound until a shape is archived
					}
					rep, err := entangle.NewRepairer(lat.Shape().Params)
					if err != nil {
						return nil, err
					}
					return maintain.NewStoreTarget(rep, lat, lat.Shape().Blocks), nil
				},
				Opts: entangle.Options{RateLimit: bucket},
			})
		}
		sched := maintain.NewScheduler(maintain.Options{
			Limit:    bucket,
			Pressure: func() bool { return srv.Inflight() > 0 },
			OnEvent: func(format string, args ...any) {
				fmt.Printf("aestored: "+format+"\n", args...)
			},
		}, tasks...)
		maintDone = make(chan struct{})
		go func() {
			defer close(maintDone)
			sched.Run(maintCtx)
		}()
		fmt.Printf("aestored: background maintenance on (scrub %d B/s, heal %d B/s)\n", *scrubRate, *healRate)
	}

	// Close is idempotent, so the deferred safety net and the signal path
	// may race freely: a SIGTERM arriving during shutdown still exits 0.
	defer srv.Close()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("aestored: shutting down")
	go func() {
		// A second signal force-quits instead of waiting for connection
		// drain.
		<-sig
		fmt.Fprintln(os.Stderr, "aestored: forced shutdown")
		os.Exit(1)
	}()
	if err := srv.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "aestored:", err)
		os.Exit(1)
	}
	// Stop maintenance before closing the store: a scrub or heal step must
	// not race seg.Close.
	maintStop()
	if maintDone != nil {
		<-maintDone
	}
	if seg != nil {
		// Sync and release the log only after the listener has drained, so
		// no in-flight request writes to a closed store.
		if err := seg.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "aestored:", err)
			os.Exit(1)
		}
	}
	fmt.Println("aestored: bye")
}
