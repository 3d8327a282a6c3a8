package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"sync"
	"time"

	"aecodes/internal/blockstore"
	"aecodes/internal/cluster"
	"aecodes/internal/cooperative"
	"aecodes/internal/entangle"
	"aecodes/internal/lattice"
	"aecodes/internal/obs"
	"aecodes/internal/transport"
)

// poolConns is the pooled-connection count per storage node, the
// router's default, named here because the durability check waits for a
// restarted node's pool to be whole again.
const poolConns = 2

// fleetClient is one closed-loop load generator: one user, one tenant,
// one broker over its own cluster router.
type fleetClient struct {
	id           int
	user, tenant string
	in           *input
	n            int // blocks to back up

	router *cluster.Router
	broker *cooperative.Broker
	tr     *tracer // nil on an untraced lifecycle
	lat    *lattice.Lattice
}

// newFleetClient dials the manager and builds the broker. On a traced
// lifecycle the router and every node handle are wrapped; on an untraced
// one nothing of the benchmark's sits between the broker and the fleet.
func newFleetClient(ctx context.Context, mgrAddr string, id int, user string, in *input, n int, tr *tracer) (*fleetClient, error) {
	c := &fleetClient{id: id, user: user, tenant: "t-" + user, in: in, n: n, tr: tr}
	var err error
	if c.lat, err = lattice.New(codeParams); err != nil {
		return nil, err
	}
	opts := cluster.RouterOptions{User: user, Conns: poolConns}
	if tr != nil {
		opts.Dial = func(addr string) (cooperative.NodeStore, error) {
			pc, err := transport.DialPoolOptions(addr, poolConns, transport.PoolOptions{Tenant: c.tenant})
			if err != nil {
				return nil, err
			}
			return &tracedNode{inner: pc, t: tr}, nil
		}
	}
	if c.router, err = cluster.NewRouter(mgrAddr, opts); err != nil {
		return nil, err
	}
	var router cooperative.Router = c.router
	if tr != nil {
		router = &tracedRouter{inner: c.router, t: tr}
	}
	if c.broker, err = cooperative.NewRoutedBroker(user, codeParams, in.size, router); err != nil {
		c.router.Close()
		return nil, err
	}
	if err := c.broker.SetCredential(ctx, c.tenant); err != nil {
		c.router.Close()
		return nil, err
	}
	return c, nil
}

func (c *fleetClient) close() { c.router.Close() }

func (c *fleetClient) key(e lattice.Edge) string { return c.user + "/" + blockstore.ParityKey(e) }

// node resolves the handle the broker itself would use for parity e.
func (c *fleetClient) node(ctx context.Context, e lattice.Edge) (nodeAdmin, error) {
	ns, _, err := c.router.Route(ctx, c.key(e), e)
	if err != nil {
		return nil, err
	}
	na, ok := ns.(nodeAdmin)
	if !ok {
		return nil, fmt.Errorf("node handle %T lacks the admin calls", ns)
	}
	return na, nil
}

// parities lists the real parities of positions 1..n.
func (c *fleetClient) parities() ([]lattice.Edge, error) {
	edges := make([]lattice.Edge, 0, c.n*codeParams.Alpha)
	for i := 1; i <= c.n; i++ {
		for _, class := range c.lat.Classes() {
			e, err := c.lat.OutEdge(class, i)
			if err != nil {
				return nil, err
			}
			edges = append(edges, e)
		}
	}
	return edges, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// ingest backs up every block, timing each Backup call.
func (c *fleetClient) ingest(ctx context.Context) ([]float64, error) {
	lats := make([]float64, 0, c.n)
	for i := 0; i < c.n; i++ {
		end := c.tr.op(spanBackup)
		t := time.Now()
		pos, err := c.broker.Backup(ctx, c.in.block(i))
		d := time.Since(t)
		end()
		if err != nil {
			return nil, fmt.Errorf("client %d: Backup %d: %w", c.id, i+1, err)
		}
		if pos != i+1 {
			return nil, fmt.Errorf("client %d: Backup returned position %d, want %d", c.id, pos, i+1)
		}
		lats = append(lats, ms(d))
	}
	return lats, nil
}

// read reads the listed blocks (0-based) in order, timing each Read call,
// and keeps what came back for checking once the clock has stopped.
func (c *fleetClient) read(ctx context.Context, order []int) (lats []float64, got [][]byte, err error) {
	lats = make([]float64, 0, len(order))
	got = make([][]byte, 0, len(order))
	for _, i := range order {
		end := c.tr.op(spanRead)
		t := time.Now()
		data, err := c.broker.Read(ctx, i+1)
		d := time.Since(t)
		end()
		if err != nil {
			return nil, nil, fmt.Errorf("client %d: Read %d: %w", c.id, i+1, err)
		}
		lats = append(lats, ms(d))
		got = append(got, data)
	}
	return lats, got, nil
}

// verify checks what read returned against the generator.
func (c *fleetClient) verify(r *cycleResult, phase string, order []int, got [][]byte) {
	for k, i := range order {
		r.check(c.in.matches(i, got[k]), "%s: client %d block %d differs from what was backed up", phase, c.id, i+1)
	}
}

// eachClient runs fn on every client at once and returns the wall-clock
// time until the last one finished.
func eachClient(clients []*fleetClient, fn func(c *fleetClient) error) (time.Duration, error) {
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	start := time.Now()
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(c)
		}()
	}
	wg.Wait()
	return time.Since(start), errors.Join(errs...)
}

// fleetSnap is the metrics registry of every daemon at one instant.
type fleetSnap struct {
	nodes   []obs.Snapshot
	manager obs.Snapshot
}

func (f *fleet) snapshot(ctx context.Context) (fleetSnap, error) {
	var s fleetSnap
	var err error
	for i, pc := range f.admin {
		snap, merr := pc.Metrics(ctx)
		if merr != nil {
			return s, fmt.Errorf("metrics of node %d: %w", i, merr)
		}
		s.nodes = append(s.nodes, snap)
	}
	if s.manager, err = f.mgrAdmin.Metrics(ctx); err != nil {
		return s, fmt.Errorf("metrics of manager: %w", err)
	}
	return s, nil
}

// nodesDelta sums after − before over the storage nodes.
func nodesDelta(before, after fleetSnap) snapDelta {
	d := newSnapDelta()
	for i := range after.nodes {
		d.merge(diffSnap(before.nodes[i], after.nodes[i]))
	}
	return d
}

// gaugeSum adds one gauge over the storage nodes.
func (s fleetSnap) gaugeSum(key string) float64 {
	var sum float64
	for _, n := range s.nodes {
		sum += float64(n.Gauges[key])
	}
	return sum
}

// runFleetCycle is one lifecycle against a fresh fleet: set-up, ingest,
// durability check, restore, damage, degraded reads, repair, teardown.
func (e *env) runFleetCycle(ctx context.Context, w workload, cycle int, traced bool, dir string) (*cycleResult, error) {
	r := newCycleResult(traced)
	cpuBefore := selfUsage()
	clientObsBefore := obs.Default.Snapshot()
	epoch := time.Now()

	// Set-up: spawn, first heartbeats, warm-up on a throwaway tenant.
	setupStart := time.Now()
	dataDir := ""
	if w.durable {
		dataDir = filepath.Join(dir, "data")
	}
	f, err := startFleet(ctx, e.reap, e.bins, dataDir)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			f.stop()
		}
	}()
	warm, err := newFleetClient(ctx, f.manager.addr, -1, "warm", e.inputs[0], min(w.warm, w.blocks), nil)
	if err != nil {
		return nil, err
	}
	_, err = warm.ingest(ctx)
	warm.close()
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	clients := make([]*fleetClient, e.clients)
	for i := range clients {
		var tr *tracer
		if traced {
			tr = newTracer(i, epoch)
		}
		c, err := newFleetClient(ctx, f.manager.addr, i, fmt.Sprintf("u%d", i), e.inputs[i], w.blocks, tr)
		if err != nil {
			return nil, err
		}
		defer c.close()
		clients[i] = c
	}
	r.vals["setup_s"] = time.Since(setupStart).Seconds()
	userBytes := float64(w.userBytes(e.clients))

	var storedBefore int64
	if w.durable {
		if storedBefore, err = f.dataBytes(); err != nil {
			return nil, err
		}
	}
	// window runs fn as one timed phase: the clients' tracers carry its
	// name, and on a traced lifecycle the nodes' metrics are read before
	// and after. No window spans the node restart of the durability
	// check, whose counters start from zero again.
	deltas := map[string]snapDelta{}
	var managerBefore obs.Snapshot
	window := func(phase string, fn func() error) error {
		var before, after fleetSnap
		var err error
		if traced {
			if before, err = f.snapshot(ctx); err != nil {
				return err
			}
			if phase == phaseIngest {
				managerBefore = before.manager
			}
		}
		for _, c := range clients {
			c.tr.setPhase(phase)
		}
		err = fn()
		for _, c := range clients {
			c.tr.setPhase("")
		}
		if err != nil {
			return err
		}
		if traced {
			if after, err = f.snapshot(ctx); err != nil {
				return err
			}
			deltas[phase] = nodesDelta(before, after)
		}
		return nil
	}
	var mu sync.Mutex
	addSamples := func(phase string, lats []float64) {
		mu.Lock()
		r.samples[phase] = append(r.samples[phase], lats...)
		r.attempted += len(lats)
		mu.Unlock()
	}

	// Ingest.
	err = window(phaseIngest, func() error {
		var err error
		r.wall[phaseIngest], err = eachClient(clients, func(c *fleetClient) error {
			lats, err := c.ingest(ctx)
			addSamples(phaseIngest, lats)
			return err
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	r.vals["ingest_mb_s"] = userBytes / 1e6 / r.wall[phaseIngest].Seconds()

	// Bytes stored per user byte: what the nodes' logs grew by, or, for
	// memory-only nodes, what the tenant registries account.
	if w.durable {
		stored, err := f.dataBytes()
		if err != nil {
			return nil, err
		}
		r.vals["stored_bytes_per_user_byte"] = float64(stored-storedBefore) / userBytes
	}
	usage, err := f.snapshot(ctx)
	if err != nil {
		return nil, err
	}
	var tenantBytes float64
	for _, c := range clients {
		tenantBytes += usage.gaugeSum("tenant/usage.bytes." + c.tenant)
	}
	if !w.durable {
		r.vals["stored_bytes_per_user_byte"] = tenantBytes / userBytes
	}

	// Durability: SIGKILL one node, restart it on its log, and ask it for
	// every key it acknowledged.
	var recoverTime time.Duration
	if w.durable {
		victim := newRand(e.seed, cycle, 1).IntN(fleetNodes)
		if recoverTime, err = e.checkDurability(ctx, r, f, clients, victim); err != nil {
			return nil, err
		}
	}

	// Restore: the user's copy is gone; read everything back in seeded
	// random order. What came back is checked once the clock has stopped.
	orders := make([][]int, len(clients))
	restored := make([][][]byte, len(clients))
	err = window(phaseRestore, func() error {
		var err error
		r.wall[phaseRestore], err = eachClient(clients, func(c *fleetClient) error {
			c.broker.DropLocal()
			orders[c.id] = newRand(e.seed, cycle, 2, c.id).Perm(c.n)
			lats, got, err := c.read(ctx, orders[c.id])
			addSamples(phaseRestore, lats)
			restored[c.id] = got
			return err
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	for _, c := range clients {
		c.verify(r, phaseRestore, orders[c.id], restored[c.id])
	}
	restored = nil
	r.vals["restore_mb_s"] = userBytes / 1e6 / r.wall[phaseRestore].Seconds()

	// Damage: delete a seeded 15 % of each client's parities on the nodes
	// that hold them, as the tenant, remembering what each one held.
	lost := make([]lostBlocks, len(clients))
	_, err = eachClient(clients, func(c *fleetClient) error {
		var err error
		lost[c.id], err = c.damage(ctx, newRand(e.seed, cycle, 3, c.id))
		return err
	})
	if err != nil {
		return nil, err
	}

	// Degraded: client 0 loses its copy again and reads every block
	// through the damaged lattice.
	a := clients[0]
	order := newRand(e.seed, cycle, 4).Perm(a.n)
	var got [][]byte
	err = window(phaseDegraded, func() error {
		start := time.Now()
		a.broker.DropLocal()
		lats, data, err := a.read(ctx, order)
		r.wall[phaseDegraded] = time.Since(start)
		addSamples(phaseDegraded, lats)
		got = data
		return err
	})
	if err != nil {
		return nil, err
	}
	a.verify(r, phaseDegraded, order, got)

	// Repair to convergence: the clients that still hold their data
	// first (parity repair only), then client 0 (data and parities).
	var rebuilt, rounds int
	var bytesRead int64
	err = window(phaseRepair, func() error {
		for k := range clients {
			c := clients[(k+1)%len(clients)]
			end := c.tr.op(spanRepair)
			t := time.Now()
			stats, err := c.broker.Repair(ctx, entangle.Options{})
			r.wall[phaseRepair] += time.Since(t)
			end()
			if err != nil {
				return fmt.Errorf("client %d: Repair: %w", c.id, err)
			}
			done := stats.DataRepaired + stats.ParityRepaired
			left := len(stats.UnrepairedData) + len(stats.UnrepairedParities)
			r.attempted += done + left
			if left > 0 {
				r.fail(left, "repair: client %d left %d blocks unrepaired", c.id, left)
			}
			rebuilt += done
			rounds += stats.Rounds
			bytesRead += stats.BytesRead
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.vals["repair_blocks_s"] = float64(rebuilt) / r.wall[phaseRepair].Seconds()
	r.vals["repair_read_blocks_per_block"] = ratio(float64(bytesRead)/float64(w.blockSize), float64(rebuilt))

	// After repair: the lattice is whole, every deleted parity is back
	// with its old content, and every data block reads back right.
	for _, c := range clients {
		h, err := c.broker.Health(ctx)
		if err != nil {
			return nil, fmt.Errorf("client %d: Health: %w", c.id, err)
		}
		r.check(h.Healthy(), "after repair: client %d still misses %d data and %d parity blocks", c.id, h.MissingData(), h.MissingParities())
		if err := c.checkRepaired(ctx, r, lost[c.id]); err != nil {
			return nil, err
		}
		all := make([]int, c.n)
		for i := range all {
			all[i] = i
		}
		_, got, err := c.read(ctx, all)
		if err != nil {
			return nil, err
		}
		c.verify(r, "after repair", all, got)
	}
	final, err := f.snapshot(ctx)
	if err != nil {
		return nil, err
	}
	var diskBytes int64
	if w.durable {
		if diskBytes, err = f.dataBytes(); err != nil {
			return nil, err
		}
	}

	// Teardown, then the accounts that need every child to have exited.
	for _, c := range clients {
		c.close()
		r.spans = append(r.spans, c.tr.take()...)
	}
	mgrCost, nodesCost := f.stop()
	stopped = true
	self := selfUsage()
	clientCPU := self.cpuS - cpuBefore.cpuS
	gib := userBytes / (1 << 30)
	r.vals["cpu_s_per_user_gib"] = (clientCPU + mgrCost.cpuS + nodesCost.cpuS) / gib
	r.vals["peak_rss_mib"] = self.maxRSSMiB + mgrCost.maxRSSMiB + nodesCost.maxRSSMiB
	r.vals["failed_ops_share"] = ratio(float64(r.failed), float64(r.attempted))
	r.vals["proc.client_cpu_s_per_user_gib"] = clientCPU / gib
	r.vals["proc.nodes_cpu_s_per_user_gib"] = nodesCost.cpuS / gib
	r.vals["proc.manager_cpu_s"] = mgrCost.cpuS
	r.vals["proc.client_peak_rss_mib"] = self.maxRSSMiB
	r.vals["proc.nodes_peak_rss_mib"] = nodesCost.maxRSSMiB

	if traced {
		lt := fleetLayerInputs{
			w: w, clients: e.clients, deltas: deltas, tenantBytes: tenantBytes,
			manager:   diffSnap(managerBefore, final.manager),
			clientObs: diffSnap(clientObsBefore, obs.Default.Snapshot()),
			final:     final, diskBytes: diskBytes, recoverTime: recoverTime,
			repairRounds: rounds,
		}
		lt.fill(r)
	}
	return r, nil
}

// checkDurability kills and restarts node victim, waits until every
// client's pool to it is whole again, and checks that the node still
// holds every parity it acknowledged during ingest. It returns the
// node's recovery time.
func (e *env) checkDurability(ctx context.Context, r *cycleResult, f *fleet, clients []*fleetClient, victim int) (time.Duration, error) {
	raw, err := f.mgrAdmin.Get(ctx, cluster.KeyTable)
	if err != nil {
		return 0, fmt.Errorf("fetching routing table: %w", err)
	}
	var table cluster.Table
	if err := json.Unmarshal(raw, &table); err != nil {
		return 0, fmt.Errorf("decoding routing table: %w", err)
	}
	addr := f.nodes[victim].addr
	recoverTime, err := f.crashNode(victim)
	if err != nil {
		return 0, err
	}
	// The admin connection to the old process is dead; dial the new one.
	f.admin[victim].Close()
	if f.admin[victim], err = transport.DialPool(addr, 1); err != nil {
		return 0, err
	}
	for _, c := range clients {
		edges, err := c.parities()
		if err != nil {
			return 0, err
		}
		var keys []string
		var node nodeAdmin
		for _, edge := range edges {
			if table.Routes[cluster.VolumeID(c.user, cluster.DefaultVolumeBlocks, edge.Left)] != addr {
				continue
			}
			if node == nil {
				if node, err = c.node(ctx, edge); err != nil {
					return 0, err
				}
			}
			keys = append(keys, c.key(edge))
		}
		if node == nil {
			continue // none of this client's volumes live on the victim
		}
		if err := awaitPool(ctx, node, keys[0]); err != nil {
			return 0, fmt.Errorf("client %d: %w", c.id, err)
		}
		for start := 0; start < len(keys); start += 1024 {
			chunk := keys[start:min(start+1024, len(keys))]
			held, err := node.StatMany(ctx, chunk)
			if err != nil {
				return 0, fmt.Errorf("client %d: StatMany after restart: %w", c.id, err)
			}
			for k, ok := range held {
				r.check(ok, "durability: node %d lost acknowledged block %s", victim, chunk[k])
			}
		}
	}
	return recoverTime, nil
}

// awaitPool drives requests at a restarted node until the pool has
// redialed every connection, so the next phase starts on a whole pool.
func awaitPool(ctx context.Context, node nodeAdmin, key string) error {
	deadline := time.Now().Add(15 * time.Second)
	for {
		_, err := node.StatMany(ctx, []string{key})
		if err == nil && node.Live() == poolConns {
			return nil
		}
		if time.Now().After(deadline) {
			if err == nil {
				err = errors.New("requests succeed but a connection is still redialing")
			}
			return fmt.Errorf("pool to restarted node not whole after 15s (%d of %d connections live): %w", node.Live(), poolConns, err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// lostBlocks is what the damage phase deleted: the digest each parity had.
type lostBlocks map[lattice.Edge][sha256.Size]byte

// fetchParities reads the parities on edges from the nodes that hold
// them, one GetMany of at most 16 MiB per node and chunk, and hands each
// block (nil when the node does not hold it) to visit.
func (c *fleetClient) fetchParities(ctx context.Context, edges []lattice.Edge, visit func(node nodeAdmin, e lattice.Edge, block []byte) error) error {
	byNode := map[nodeAdmin][]lattice.Edge{}
	for _, e := range edges {
		node, err := c.node(ctx, e)
		if err != nil {
			return err
		}
		byNode[node] = append(byNode[node], e)
	}
	step := max(1, min(1024, (16<<20)/c.in.size))
	for node, held := range byNode {
		for start := 0; start < len(held); start += step {
			chunk := held[start:min(start+step, len(held))]
			keys := make([]string, len(chunk))
			for k, e := range chunk {
				keys[k] = c.key(e)
			}
			blocks, err := node.GetMany(ctx, keys)
			if err != nil {
				return fmt.Errorf("client %d: fetching %d parities: %w", c.id, len(keys), err)
			}
			for k, b := range blocks {
				if err := visit(node, chunk[k], b); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// damage deletes this client's share of parities, as its tenant, on the
// nodes the router names, and returns what each deleted block held.
func (c *fleetClient) damage(ctx context.Context, rng *rand.Rand) (lostBlocks, error) {
	d, err := pickDamage(c.lat, c.n, false, rng)
	if err != nil {
		return nil, err
	}
	lost := make(lostBlocks, len(d.parities))
	err = c.fetchParities(ctx, d.parities, func(node nodeAdmin, e lattice.Edge, b []byte) error {
		if b == nil {
			return fmt.Errorf("client %d: parity %v missing before damage", c.id, e)
		}
		lost[e] = sha256.Sum256(b)
		if err := node.Del(ctx, c.key(e)); err != nil {
			return fmt.Errorf("client %d: deleting %v: %w", c.id, e, err)
		}
		return nil
	})
	return lost, err
}

// checkRepaired fetches every block the damage phase deleted and checks
// that repair put the same bytes back.
func (c *fleetClient) checkRepaired(ctx context.Context, r *cycleResult, lost lostBlocks) error {
	edges := make([]lattice.Edge, 0, len(lost))
	for e := range lost {
		edges = append(edges, e)
	}
	return c.fetchParities(ctx, edges, func(_ nodeAdmin, e lattice.Edge, b []byte) error {
		r.check(b != nil && sha256.Sum256(b) == lost[e], "after repair: client %d parity %v differs from what was deleted", c.id, e)
		return nil
	})
}
