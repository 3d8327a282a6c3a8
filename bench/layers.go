package main

import (
	"context"
	"runtime"
	"time"

	"aecodes/internal/entangle"
	"aecodes/internal/pipeline"
	"aecodes/internal/xorblock"
)

// Server and in-process metric keys the layer metrics read. The
// histograms count one sample per call: one PutMany frame, one segstore
// batch.
const (
	kPutManyLat  = "transport/putmany.latency"
	kGetLat      = "transport/get.latency"
	kAppendLat   = "segstore/append.latency"
	kAppendBytes = "segstore/append.bytes"
	kSyncLat     = "segstore/sync.latency"
	kReadLat     = "segstore/read.latency"
	kCompactLat  = "segstore/compact.latency"
	kCompactRuns = "segstore/compact.runs"
)

// serverOps are the transport ops a broker's traffic reaches a node
// through; their server-side latency sums are the node's share of a
// client round trip.
var serverOps = []string{"putmany", "put", "getmany", "get", "statmany"}

func meanUs(totalNs int64, count int) float64 { return ratio(float64(totalNs), float64(count)) / 1e3 }

// fleetLayerInputs is everything a traced fleet lifecycle gathered that
// the per-layer metrics are computed from.
type fleetLayerInputs struct {
	w           workload
	clients     int
	deltas      map[string]snapDelta // storage nodes, per timed phase
	manager     snapDelta            // ingest start → end of repair
	clientObs   snapDelta            // the benchmark process's own registry
	final       fleetSnap
	tenantBytes float64
	diskBytes   int64
	recoverTime time.Duration

	repairRounds int
}

// fill computes the per-layer metrics of a fleet lifecycle and its
// per-phase time budget.
func (in fleetLayerInputs) fill(r *cycleResult) {
	userBytes := float64(in.w.userBytes(in.clients))
	pt := map[string]phaseTrace{}
	for _, p := range timedPhases {
		pt[p] = foldPhase(r.spans, p)
	}
	ing, res, deg, rep := pt[phaseIngest], pt[phaseRestore], pt[phaseDegraded], pt[phaseRepair]
	v := r.vals

	v["cooperative.backup_self_us"] = meanUs(ing.self[spanBackup], ing.count[spanBackup])
	v["cooperative.read_self_us"] = meanUs(res.self[spanRead], res.count[spanRead])
	v["cooperative.frames_per_backup"] = ratio(float64(ing.count[spanPutMany]), float64(ing.count[spanBackup]))
	v["cooperative.fetches_per_read"] = ratio(float64(res.count[spanGet]), float64(res.count[spanRead]))
	v["cooperative.degraded_fetches_per_read"] = ratio(float64(deg.count[spanGet]), float64(deg.count[spanRead]))
	// A Read that had to enumerate the lattice fell back to whole-lattice
	// repair.
	v["cooperative.read_fallback_repairs"] = float64(res.opsWith[spanStatMany] + deg.opsWith[spanStatMany])

	v["cluster.route_ns_per_call"] = ratio(float64(ing.total[spanRoute]), float64(ing.count[spanRoute]))
	v["cluster.route_calls_per_block"] = ratio(float64(ing.count[spanRoute]), float64(ing.count[spanBackup]))
	// The benchmark's own table fetch for the durability check is the one
	// manager read that is not a broker's.
	own := 0.0
	if in.w.durable {
		own = 1
	}
	v["cluster.manager_roundtrips"] = in.manager.counters["transport/get.count"] - own
	v["cluster.placements"] = in.manager.counters["cluster/placements"]

	v["transport.putmany_rtt_us_p50"] = quantile(ing.durs[spanPutMany], 0.50) / 1e3
	v["transport.putmany_rtt_us_p99"] = quantile(ing.durs[spanPutMany], 0.99) / 1e3
	v["transport.get_rtt_us_p50"] = quantile(res.durs[spanGet], 0.50) / 1e3
	v["transport.get_rtt_us_p99"] = quantile(res.durs[spanGet], 0.99) / 1e3
	v["transport.getmany_rtt_us_p50"] = quantile(rep.durs[spanGetMany], 0.50) / 1e3
	v["transport.statmany_rtt_us_p50"] = quantile(rep.durs[spanStatMany], 0.50) / 1e3
	putSrv := in.deltas[phaseIngest].hists[kPutManyLat]
	getSrv := in.deltas[phaseRestore].hists[kGetLat]
	v["transport.putmany_server_us_mean"] = putSrv.meanUs()
	v["transport.get_server_us_mean"] = getSrv.meanUs()
	v["transport.putmany_wire_us_mean"] = meanUs(ing.total[spanPutMany], ing.count[spanPutMany]) - putSrv.meanUs()
	v["transport.get_wire_us_mean"] = meanUs(res.total[spanGet], res.count[spanGet]) - getSrv.meanUs()
	all := newSnapDelta()
	for _, d := range in.deltas {
		all.merge(d)
	}
	hit := all.counters["transport/framepool.hit"]
	miss := all.counters["transport/framepool.miss"] + all.counters["transport/framepool.unpooled"]
	v["transport.framepool_hit_share"] = ratio(hit, hit+miss)
	v["transport.retries"] = in.clientObs.counters["transport/pool.retries"]
	v["transport.redials"] = in.clientObs.counters["transport/pool.redials"]
	v["transport.timeouts"] = in.clientObs.counters["transport/pool.timeouts"]

	appendLat := in.deltas[phaseIngest].hists[kAppendLat]
	v["tenant.putmany_overhead_us_mean"] = putSrv.meanUs() - appendLat.meanUs()
	v["tenant.quota_refused"] = all.counters["tenant/quota.refused"]
	v["tenant.usage_bytes_per_user_byte"] = in.tenantBytes / userBytes

	seg := segstoreInputs{
		ingest: in.deltas[phaseIngest], restore: in.deltas[phaseRestore], all: all,
		userBytes: userBytes, recoverTime: in.recoverTime, diskBytes: in.diskBytes,
		liveBytes: in.final.gaugeSum("segstore/live_bytes"), deadBytes: in.final.gaugeSum("segstore/dead_bytes"),
	}
	seg.fill(v)

	v["entangle.repair_rounds"] = float64(in.repairRounds)
	v["entangle.repair_self_s"] = float64(rep.self[spanRepair]) / 1e9
	v["entangle.repair_store_s"] = float64(rep.total[spanRepair]-rep.self[spanRepair]) / 1e9

	// The budget: client time per phase split over the layers it passed
	// through. Ops run back to back on each client, so what the ops do
	// not cover is the benchmark's own loop and, at the end of a phase,
	// the faster client waiting for the slower.
	for _, p := range timedPhases {
		t := pt[p]
		clients := in.clients
		if p == phaseDegraded || p == phaseRepair {
			clients = 1 // one client at a time
		}
		var selfNs, rttNs int64
		for _, ns := range t.self {
			selfNs += ns
		}
		routeNs := t.total[spanRoute]
		d := in.deltas[p]
		var serverNs float64
		for _, op := range serverOps {
			rttNs += t.total["transport."+op]
			serverNs += d.hists["transport/"+op+".latency"].sumNs
		}
		storeNs := d.hists[kAppendLat].sumNs + d.hists[kReadLat].sumNs
		total := float64(clients) * r.wall[p].Seconds()
		rows := []budgetRow{
			{p, "cooperative+entangle (op self)", float64(selfNs) / 1e9},
			{p, "cluster (route)", float64(routeNs) / 1e9},
			{p, "transport (wire, framing, queueing)", (float64(rttNs) - serverNs) / 1e9},
			{p, "tenant (server minus store)", (serverNs - storeNs) / 1e9},
			{p, "segstore (append, sync, read)", storeNs / 1e9},
		}
		attributed := 0.0
		for _, row := range rows {
			attributed += row.seconds
		}
		rows = append(rows, budgetRow{p, "unattributed", total - attributed})
		r.budget = append(r.budget, rows...)
		if p != phaseDegraded {
			v["budget."+p+"_unattributed_share"] = ratio(total-attributed, total)
		}
	}
}

// segstoreInputs is what the segstore metrics are computed from: metric
// deltas of the processes that hold the stores, and what the directory
// and the shape gauges said at the end.
type segstoreInputs struct {
	ingest, restore, all snapDelta
	userBytes            float64
	liveBytes, deadBytes float64
	diskBytes            int64
	recoverTime          time.Duration
}

func (in segstoreInputs) fill(v map[string]float64) {
	v["segstore.append_us_mean"] = in.ingest.hists[kAppendLat].meanUs()
	v["segstore.sync_us_mean"] = in.ingest.hists[kSyncLat].meanUs()
	v["segstore.syncs_per_user_mib"] = ratio(in.ingest.hists[kSyncLat].count, in.userBytes/(1<<20))
	v["segstore.append_bytes_per_user_byte"] = in.ingest.counters[kAppendBytes] / in.userBytes
	v["segstore.read_us_mean"] = in.restore.hists[kReadLat].meanUs()
	v["segstore.compact_runs"] = in.all.counters[kCompactRuns]
	v["segstore.compact_s"] = in.all.hists[kCompactLat].sumNs / 1e9
	v["segstore.dead_bytes_share"] = ratio(in.deadBytes, in.liveBytes+in.deadBytes)
	v["segstore.disk_bytes_per_live_byte"] = ratio(float64(in.diskBytes), in.liveBytes)
	v["segstore.recover_s"] = in.recoverTime.Seconds()
}

// archiveLayerInputs is everything a traced archive lifecycle gathered
// that the per-layer metrics are computed from.
type archiveLayerInputs struct {
	w                    workload
	blocks               int                  // data blocks the writer emitted
	deltas               map[string]snapDelta // this process's registry, per timed phase
	userBytes            float64
	liveBytes, deadBytes float64
	diskBytes            int64
	recoverTime          time.Duration
	repairRounds         int
}

// fill computes the per-layer metrics of an archive lifecycle and its
// per-phase time budget.
func (in archiveLayerInputs) fill(r *cycleResult) {
	pt := map[string]phaseTrace{}
	for _, p := range timedPhases {
		pt[p] = foldPhase(r.spans, p)
	}
	ing, res, deg, rep := pt[phaseIngest], pt[phaseRestore], pt[phaseDegraded], pt[phaseRepair]
	v := r.vals
	blocks := float64(in.blocks)

	// The pipeline's workers spend the store-call time waiting; the
	// rest of workers × wall is theirs to XOR in.
	v["pipeline.store_wait_share"] = ratio(float64(ing.total[spanStorePut])/1e9, float64(pipelineWorkers())*r.wall[phaseIngest].Seconds())
	v["archive.put_calls_per_block"] = float64(ing.count[spanStorePut]) / blocks
	v["archive.get_calls_per_block"] = float64(res.count[spanStoreGet]) / blocks
	// A clean read costs one GetMany per window; what a degraded read
	// adds to that is its parity fetches.
	v["archive.degraded_parity_fetches_per_block"] = float64(deg.count[spanStoreGet]-res.count[spanStoreGet]) / blocks

	all := newSnapDelta()
	for _, d := range in.deltas {
		all.merge(d)
	}
	seg := segstoreInputs{
		ingest: in.deltas[phaseIngest], restore: in.deltas[phaseRestore], all: all,
		userBytes: in.userBytes, recoverTime: in.recoverTime, diskBytes: in.diskBytes,
		liveBytes: in.liveBytes, deadBytes: in.deadBytes,
	}
	seg.fill(v)

	v["entangle.repair_rounds"] = float64(in.repairRounds)
	v["entangle.repair_self_s"] = float64(rep.self[spanArepair]) / 1e9
	v["entangle.repair_store_s"] = float64(rep.total[spanArepair]-rep.self[spanArepair]) / 1e9

	// The budget: the single stream's time per phase. Inside an op, the
	// part during which some store call was running is the store's; the
	// rest is framing, CRC, entangling and the pipeline's hand-offs.
	for _, p := range timedPhases {
		t := pt[p]
		var selfNs int64
		for _, ns := range t.self {
			selfNs += ns
		}
		total := r.wall[p].Seconds()
		rows := []budgetRow{
			{p, "archive+pipeline+entangle+xorblock (op self)", float64(selfNs) / 1e9},
			{p, "segstore (store calls covering ops)", float64(t.opTime()-selfNs) / 1e9},
			{p, "unattributed", total - float64(t.opTime())/1e9},
		}
		r.budget = append(r.budget, rows...)
		if p != phaseDegraded {
			v["budget."+p+"_unattributed_share"] = ratio(total-float64(t.opTime())/1e9, total)
		}
	}
}

// kernelMetrics drives the three in-process layers under the archive
// path at the workload's block size, each for about a tenth of a second:
// the XOR kernel, the sequential encoder, and the encode pipeline into a
// sink that discards.
func kernelMetrics(ctx context.Context, blockSize int, v map[string]float64) error {
	const budget = 100 * time.Millisecond
	pool := xorblock.NewPool(blockSize)
	a, b, c, dst := pool.Get(), pool.Get(), pool.Get(), pool.Get()
	fillBlock(a, 1, 0, 0)
	fillBlock(b, 1, 0, 1)
	fillBlock(c, 1, 0, 2)

	start, n := time.Now(), 0
	for time.Since(start) < budget {
		for k := 0; k < 16; k++ {
			if err := xorblock.XorManyInto(dst, a, b, c); err != nil {
				return err
			}
		}
		n += 16
	}
	v["xorblock.xor3_ns_per_block"] = float64(time.Since(start).Nanoseconds()) / float64(n)

	enc, err := entangle.NewEncoder(codeParams, blockSize)
	if err != nil {
		return err
	}
	bufs := make([][]byte, codeParams.Alpha)
	for k := range bufs {
		bufs[k] = pool.Get()
	}
	start, n = time.Now(), 0
	for time.Since(start) < budget {
		if _, err := enc.EntangleInto(a, bufs); err != nil {
			return err
		}
		n++
	}
	perBlock := time.Since(start) / time.Duration(n)
	v["entangle.encode_ns_per_block"] = float64(perBlock.Nanoseconds())

	penc, err := entangle.NewEncoder(codeParams, blockSize)
	if err != nil {
		return err
	}
	blocks := max(int(2*budget/max(perBlock, 1)), 8)
	start = time.Now()
	fill := func(seq int, buf []byte) { copy(buf, a) }
	if _, err := pipeline.EncodePooled(ctx, penc, blocks, fill, pipeline.NullSink{}, pool, pipeline.Options{}); err != nil {
		return err
	}
	v["pipeline.encode_mb_s"] = float64(blocks) * float64(blockSize) / 1e6 / time.Since(start).Seconds()
	return nil
}

// pipelineWorkers is the encode pipeline's default worker count.
func pipelineWorkers() int { return min(runtime.GOMAXPROCS(0), codeParams.StrandCount()) }
