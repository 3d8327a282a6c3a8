package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"aecodes/internal/obs"
)

// The five phases every workload runs, in order. Damage is untimed; the
// other four are what the end-to-end metrics are about.
const (
	phaseIngest   = "ingest"
	phaseRestore  = "restore"
	phaseDegraded = "degraded"
	phaseRepair   = "repair"
)

var timedPhases = []string{phaseIngest, phaseRestore, phaseDegraded, phaseRepair}

// env is what every lifecycle of a run shares.
type env struct {
	reap    *reaper
	bins    binaries
	tmp     string // scratch root for data directories, removed at exit
	seed    uint64
	clients int
	inputs  []*input // one per client, generated once from the seed
	readBuf []byte   // archive workloads: where every read-back lands
}

// clientCount sizes the load generator to the machine: one closed-loop
// client goroutine per core, at least two so that two tenants share every
// node, at most four so the fleet's own processes keep a core.
func clientCount() int { return min(max(runtime.NumCPU(), 2), 4) }

// cycleResult is what one lifecycle measured.
type cycleResult struct {
	traced bool
	// vals holds one value per metric this lifecycle can speak for: the
	// end-to-end ones, the latency quantiles of its own op samples, and
	// on a traced lifecycle the per-layer ones.
	vals map[string]float64
	// samples holds the client-side latency of every timed op, in ms, by
	// phase.
	samples map[string][]float64
	// wall is each timed phase's wall-clock time (repair: the sum over
	// the clients' Repair calls, which run one after the other).
	wall map[string]time.Duration

	attempted, failed int
	failures          []string // first few, for the report

	// speed is the machine's speed index over this lifecycle: the mean
	// of a probe before it and one after.
	speed float64

	spans  []span
	budget []budgetRow
}

func newCycleResult(traced bool) *cycleResult {
	return &cycleResult{
		traced:  traced,
		vals:    map[string]float64{},
		samples: map[string][]float64{},
		wall:    map[string]time.Duration{},
	}
}

// check counts one correctness check; a failed one is kept for the report.
func (r *cycleResult) check(ok bool, format string, args ...any) {
	r.attempted++
	if ok {
		return
	}
	r.fail(1, format, args...)
}

// fail counts n failed checks that were already counted as attempted.
func (r *cycleResult) fail(n int, format string, args ...any) {
	r.failed += n
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// budgetRow is one line of a phase's time budget: seconds of client time
// attributed to a layer. The rows of a phase sum to clients × wall.
type budgetRow struct {
	phase, layer string
	seconds      float64
}

// runCycle runs one lifecycle of w. A traced lifecycle installs the
// decorators and fills the per-layer values.
func (e *env) runCycle(ctx context.Context, w workload, cycle int, traced bool) (*cycleResult, error) {
	dir, err := os.MkdirTemp(e.tmp, fmt.Sprintf("%s-%d-", w.name, cycle))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	// Every lifecycle starts from nothing, the collector's debt and the
	// peak-memory watermark included.
	runtime.GC()
	resetPeakRSS()
	run := e.runArchiveCycle
	if w.fleet {
		run = e.runFleetCycle
	}
	before, err := machineSpeed()
	if err != nil {
		return nil, err
	}
	r, err := run(ctx, w, cycle, traced, dir)
	if err != nil {
		return nil, err
	}
	after, err := machineSpeed()
	if err != nil {
		return nil, err
	}
	r.speed = (before + after) / 2
	r.vals["machine.speed_index"] = r.speed
	r.latencyMetrics()
	return r, nil
}

// latencyMetrics turns the lifecycle's op samples into its quantile
// values. The run folds each over its lifecycles like every other value:
// one lifecycle with a stall in it then moves a reported tail no more
// than it moves a reported throughput.
func (r *cycleResult) latencyMetrics() {
	for _, p := range []string{phaseIngest, phaseRestore, phaseDegraded} {
		r.vals[p+"_p50_ms"] = quantile(r.samples[p], 0.50)
		r.vals[p+"_p99_ms"] = quantile(r.samples[p], 0.99)
	}
}

// histDelta is after − before of one server histogram's exact sum and
// count; the buckets resolve only to a factor of two, so they are not
// used.
type histDelta struct {
	count float64
	sumNs float64
}

func (h histDelta) meanUs() float64 { return ratio(h.sumNs, h.count) / 1e3 }

func (h *histDelta) add(o histDelta) {
	h.count += o.count
	h.sumNs += o.sumNs
}

// snapDelta is after − before of two metric snapshots of one process.
type snapDelta struct {
	counters map[string]float64
	hists    map[string]histDelta
}

func newSnapDelta() snapDelta {
	return snapDelta{counters: map[string]float64{}, hists: map[string]histDelta{}}
}

func diffSnap(before, after obs.Snapshot) snapDelta {
	d := newSnapDelta()
	for k, v := range after.Counters {
		d.counters[k] = float64(v - before.Counters[k])
	}
	for k, h := range after.Hists {
		b := before.Hists[k]
		d.hists[k] = histDelta{count: float64(h.Count) - float64(b.Count), sumNs: float64(h.Sum - b.Sum)}
	}
	return d
}

// merge adds another process's delta into d.
func (d snapDelta) merge(o snapDelta) {
	for k, v := range o.counters {
		d.counters[k] += v
	}
	for k, h := range o.hists {
		cur := d.hists[k]
		cur.add(h)
		d.hists[k] = cur
	}
}
