// Command aebench regenerates the paper's evaluation tables and figures
// from the simulation framework at any scale.
//
// Usage:
//
//	aebench -exp all                         # everything, paper defaults
//	aebench -exp fig11 -blocks 1000000       # one experiment at 1M blocks
//	aebench -exp table6 -blocks 200000 -seed 7
//	aebench -exp encode,transport,segstore -json > BENCH.json   # perf record
//
// Experiments: table4, fig8, fig9, fig10, fig11, fig12, fig13, table6,
// placement, mirror, raid, ablation, encode, xor, transport, segstore,
// cluster, repair, obs, all. -exp accepts a comma-separated list. -cpu repeats the
// selected experiments at several GOMAXPROCS values in one run (and one
// JSON document), e.g. -cpu 1,2.
//
// With -json the human-readable tables are suppressed and a single JSON
// document is written to stdout: one entry per measurement (ns/op and
// MB/s where meaningful, wall time per experiment), so successive runs
// can be archived as BENCH_*.json and diffed to track the perf
// trajectory.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"aecodes/internal/benchfmt"
	"aecodes/internal/entangle"
	"aecodes/internal/entmirror"
	"aecodes/internal/failure"
	"aecodes/internal/lattice"
	"aecodes/internal/mep"
	"aecodes/internal/pipeline"
	"aecodes/internal/raidae"
	"aecodes/internal/sim"
	"aecodes/internal/store"
	"aecodes/internal/writeperf"
	"aecodes/internal/xorblock"
)

// recorder accumulates the run's measurements; emitted as one
// benchfmt.Document when -json is set, ignored otherwise. The schema
// lives in internal/benchfmt, shared with cmd/benchguard.
var recorder []benchfmt.Result

// record stamps each measurement with the GOMAXPROCS it ran at — with
// -cpu one document carries the same experiments at several parallelism
// levels, and benchguard keys its comparisons on the pair.
func record(r benchfmt.Result) {
	if r.GoMaxProcs == 0 {
		r.GoMaxProcs = runtime.GOMAXPROCS(0)
	}
	recorder = append(recorder, r)
}

func main() {
	var (
		exp       = flag.String("exp", "all", "experiments, comma separated: table4|fig8|fig9|fig10|fig11|fig12|fig13|table6|placement|mirror|raid|ablation|encode|xor|transport|segstore|cluster|repair|obs|all")
		blocks    = flag.Int("blocks", 1_000_000, "number of data blocks (paper: 1,000,000)")
		locations = flag.Int("locations", 100, "number of storage locations (paper: 100)")
		seed      = flag.Int64("seed", 1, "random seed")
		trials    = flag.Int("trials", 6000, "Monte-Carlo trials for the mirror experiment")
		blockSize = flag.Int("blocksize", 1<<20, "block size in bytes for the encode experiment")
		encBlocks = flag.Int("encblocks", 256, "blocks per measurement in the encode experiment")
		jsonOut   = flag.Bool("json", false, "emit one JSON document of measurements instead of tables")
		cpuList   = flag.String("cpu", "", "comma-separated GOMAXPROCS values to repeat the experiments at (default: current setting only)")
	)
	flag.Parse()
	procs, err := parseCPUList(*cpuList)
	if err != nil {
		fmt.Fprintln(os.Stderr, "aebench:", err)
		os.Exit(1)
	}
	realStdout := os.Stdout
	if *jsonOut {
		// The experiments print their tables via fmt.Printf; with -json the
		// document must be the only thing on stdout, so the tables go to
		// the void and JSON to the real descriptor.
		devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
		if err != nil {
			fmt.Fprintln(os.Stderr, "aebench:", err)
			os.Exit(1)
		}
		os.Stdout = devnull
	}
	encCfg := encodeConfig{blockSize: *blockSize, blocks: *encBlocks}
	ambient := runtime.GOMAXPROCS(0)
	for _, n := range procs {
		runtime.GOMAXPROCS(n)
		if len(procs) > 1 {
			fmt.Printf("==== gomaxprocs %d ====\n\n", n)
		}
		if err := run(*exp, sim.Config{DataBlocks: *blocks, Locations: *locations, Seed: *seed}, *trials, encCfg); err != nil {
			fmt.Fprintln(os.Stderr, "aebench:", err)
			os.Exit(1)
		}
	}
	runtime.GOMAXPROCS(ambient)
	if *jsonOut {
		os.Stdout = realStdout
		doc := benchfmt.Document{
			Timestamp:  time.Now().UTC().Format(time.RFC3339),
			GoMaxProcs: ambient,
			Results:    recorder,
		}
		enc := json.NewEncoder(realStdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			fmt.Fprintln(os.Stderr, "aebench:", err)
			os.Exit(1)
		}
	}
}

// parseCPUList parses the -cpu flag: a comma-separated list of positive
// GOMAXPROCS values; empty means "just the current setting".
func parseCPUList(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return []int{runtime.GOMAXPROCS(0)}, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("-cpu: %q is not a positive integer", part)
		}
		out = append(out, n)
	}
	return out, nil
}

func run(exp string, cfg sim.Config, trials int, encCfg encodeConfig) error {
	type experiment struct {
		name string
		fn   func(sim.Config, int) error
	}
	experiments := []experiment{
		{"table4", func(c sim.Config, _ int) error { return table4() }},
		{"fig8", func(c sim.Config, _ int) error { return figME(2, "Fig 8: |ME(2)| vs p") }},
		{"fig9", func(c sim.Config, _ int) error { return figME(4, "Fig 9: |ME(4)| vs p") }},
		{"fig10", func(c sim.Config, _ int) error { return fig10() }},
		{"fig11", func(c sim.Config, _ int) error {
			return sweepMetric(c, "Fig 11: data loss AFTER repairs (# of data blocks)", func(r sim.Result) string { return fmt.Sprintf("%d", r.DataLoss) })
		}},
		{"fig12", func(c sim.Config, _ int) error {
			return sweepMetric(c, "Fig 12: data blocks without redundancy (% of data blocks)", func(r sim.Result) string {
				return fmt.Sprintf("%.2f%%", r.VulnerableFraction()*100)
			})
		}},
		{"fig13", func(c sim.Config, _ int) error {
			return sweepMetric(c, "Fig 13: single-failure repairs (% single/total loss)", func(r sim.Result) string {
				return fmt.Sprintf("%.1f%%", r.SingleFailureShare()*100)
			})
		}},
		{"table6", func(c sim.Config, _ int) error { return table6(c) }},
		{"placement", func(c sim.Config, _ int) error { return placementStats(c) }},
		{"mirror", func(c sim.Config, tr int) error { return mirror(tr) }},
		{"raid", func(c sim.Config, _ int) error { return raid() }},
		{"ablation", func(c sim.Config, _ int) error { return ablations(c) }},
		{"encode", func(c sim.Config, _ int) error { return encodeBench(encCfg) }},
		{"xor", func(c sim.Config, _ int) error { return xorBench() }},
		// The node-facing hot paths, sized so one run stays in CI budget:
		// 64 KiB blocks keep per-entry framing overhead realistic while a
		// batch stays far under the 64 MiB frame cap.
		{"transport", func(c sim.Config, _ int) error {
			return transportBench(netConfig{blockSize: 64 << 10, blocks: 128, batches: 24})
		}},
		{"segstore", func(c sim.Config, _ int) error {
			return segstoreBench(netConfig{blockSize: 64 << 10, blocks: 128, batches: 24})
		}},
		// Control-plane latencies: tiny frames and in-memory tables, so
		// generous iteration counts still finish in well under a second.
		{"cluster", func(c sim.Config, _ int) error {
			return clusterBench(clusterConfig{fleet: 16, placements: 20000, lookups: 200000, heartbeats: 4000})
		}},
		{"repair", func(c sim.Config, _ int) error { return repairBench() }},
		{"obs", func(c sim.Config, _ int) error { return obsBench() }},
	}
	timed := func(e experiment) error {
		start := time.Now()
		if err := e.fn(cfg, trials); err != nil {
			return err
		}
		record(benchfmt.Result{Experiment: e.name, Name: "wall", WallNs: time.Since(start).Nanoseconds()})
		return nil
	}
	if exp == "all" {
		for _, e := range experiments {
			if err := timed(e); err != nil {
				return fmt.Errorf("%s: %w", e.name, err)
			}
			fmt.Println()
		}
		return nil
	}
	// -exp accepts a comma-separated list, so one invocation (and one
	// JSON document) can cover every guarded experiment.
	for _, name := range strings.Split(exp, ",") {
		name = strings.TrimSpace(name)
		found := false
		for _, e := range experiments {
			if e.name == name {
				if err := timed(e); err != nil {
					return fmt.Errorf("%s: %w", name, err)
				}
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("unknown experiment %q", name)
		}
	}
	return nil
}

func table4() error {
	schemes, err := sim.PaperSchemes()
	if err != nil {
		return err
	}
	fmt.Println("Table IV: redundancy schemes (AS: additional storage, SF: single-failure cost)")
	fmt.Printf("%-12s %8s %4s\n", "scheme", "AS", "SF")
	for _, row := range sim.TableIV(schemes) {
		fmt.Printf("%-12s %7.0f%% %4d\n", row.Scheme, row.AdditionalStorage*100, row.SingleFailureCost)
	}
	return nil
}

func figME(x int, title string) error {
	fmt.Println(title)
	fmt.Printf("%-12s", "p:")
	for p := 2; p <= 8; p++ {
		fmt.Printf("%6d", p)
	}
	fmt.Println()
	for _, st := range []struct{ alpha, s int }{{2, 2}, {2, 3}, {3, 2}, {3, 3}} {
		fmt.Printf("AE(%d,%d,p)  ", st.alpha, st.s)
		for p := 2; p <= 8; p++ {
			if p < st.s {
				fmt.Printf("%6s", "-")
				continue
			}
			pat, err := mep.MinimalErasure(lattice.Params{Alpha: st.alpha, S: st.s, P: p}, x, mep.Options{})
			if err != nil {
				return err
			}
			fmt.Printf("%6d", pat.Size())
		}
		fmt.Println()
	}
	return nil
}

func fig10() error {
	fmt.Println("Fig 10: write performance — sealed buckets per column write")
	fmt.Printf("%-14s %10s %8s %8s %8s\n", "setting", "maxHeadAge", "sealed", "partial", "heads")
	for _, ps := range []lattice.Params{
		{Alpha: 3, S: 10, P: 10},
		{Alpha: 3, S: 5, P: 10},
		{Alpha: 3, S: 5, P: 5},
		{Alpha: 3, S: 2, P: 5},
	} {
		a, err := writeperf.Analyze(ps)
		if err != nil {
			return err
		}
		sched, err := writeperf.Schedule(ps)
		if err != nil {
			return err
		}
		fmt.Printf("%-14s %10d %8d %8d %8d\n",
			ps, a.MaxHeadAge, sched.Sealed, sched.Partial, a.HeadsInMemory)
	}
	return nil
}

func sweepMetric(cfg sim.Config, title string, metric func(sim.Result) string) error {
	schemes, err := sim.PaperSchemes()
	if err != nil {
		return err
	}
	fmt.Printf("%s — %d blocks, %d locations, seed %d\n", title, cfg.DataBlocks, cfg.Locations, cfg.Seed)
	fracs, err := failure.Sweep(50)
	if err != nil {
		return err
	}
	fmt.Printf("%-12s", "scheme")
	for _, f := range fracs {
		fmt.Printf("%12.0f%%", f*100)
	}
	fmt.Println()
	for _, s := range schemes {
		results, err := sim.Sweep(s, cfg)
		if err != nil {
			return err
		}
		fmt.Printf("%-12s", s.Name())
		for _, r := range results {
			fmt.Printf("%13s", metric(r))
		}
		fmt.Println()
	}
	return nil
}

func table6(cfg sim.Config) error {
	fmt.Printf("Table VI: AE repair rounds — %d blocks, %d locations\n", cfg.DataBlocks, cfg.Locations)
	fmt.Printf("%-12s %6s %6s %6s %6s %6s\n", "code", "10%", "20%", "30%", "40%", "50%")
	for _, params := range []lattice.Params{
		{Alpha: 1, S: 1, P: 0},
		{Alpha: 2, S: 2, P: 5},
		{Alpha: 3, S: 2, P: 5},
	} {
		s, err := sim.NewAE(params)
		if err != nil {
			return err
		}
		results, err := sim.Sweep(s, cfg)
		if err != nil {
			return err
		}
		fmt.Printf("%-12s", s.Name())
		for _, r := range results {
			fmt.Printf("%7d", r.Rounds)
		}
		fmt.Println()
	}
	return nil
}

func placementStats(cfg sim.Config) error {
	fmt.Printf("§V.C placement statistics — RS(10,4), %d blocks, %d locations\n",
		cfg.DataBlocks, cfg.Locations)
	mean, stddev, err := sim.BlocksPerLocation(cfg, 10, 4)
	if err != nil {
		return err
	}
	fmt.Printf("blocks per location: mean %.0f, stddev %.2f (paper: 14,000 / 130.88)\n", mean, stddev)
	spread, err := sim.StripeSpread(cfg, 10, 4)
	if err != nil {
		return err
	}
	fmt.Println("stripes by number of distinct locations:")
	for _, k := range sim.SpreadKeys(spread) {
		fmt.Printf("  %2d locations: %d stripes\n", k, spread[k])
	}
	return nil
}

func mirror(trials int) error {
	fmt.Printf("§IV.B.1 entangled mirror — 5-year Monte Carlo, %d trials\n", trials)
	p := entmirror.Params{
		Pairs:   20,
		Disks:   failure.DiskLifetimes{MTTF: 100_000, MTTR: 2_000},
		Horizon: entmirror.FiveYearHours,
		Trials:  trials,
		Seed:    42,
	}
	results, err := entmirror.Compare(p)
	if err != nil {
		return err
	}
	fmt.Printf("%-14s %12s %12s\n", "layout", "P(loss)", "vs mirror")
	for _, layout := range []entmirror.Layout{entmirror.Mirror, entmirror.OpenChain, entmirror.ClosedChain} {
		r := results[layout]
		line := fmt.Sprintf("%-14s %12.4f", layout, r.LossProbability())
		if layout != entmirror.Mirror {
			red, err := entmirror.Reduction(results, layout)
			if err != nil {
				return err
			}
			line += fmt.Sprintf(" %10.1f%%", red*100)
		}
		fmt.Println(line)
	}
	fmt.Println("(paper recap: open ≈ −90%, closed ≈ −98%)")
	return nil
}

func raid() error {
	fmt.Println("§IV.B.2 RAID-AE vs RAID5 (re-encode column: growing a 1M-unit array by one disk)")
	rows, err := raidae.Compare(6, lattice.Params{Alpha: 3, S: 2, P: 5}, 8)
	if err != nil {
		return err
	}
	fmt.Printf("%-18s %10s %13s %14s  %s\n", "system", "write IOs", "degraded read", "re-encode", "fault tolerance")
	for _, r := range rows {
		fmt.Printf("%-18s %10d %13d %14d  %s\n",
			r.System, r.SmallWriteIOs, r.DegradedReadIOs, r.ReencodeOnGrow, r.FaultTolerance)
	}
	return nil
}

// encodeConfig sizes the throughput experiment.
type encodeConfig struct {
	blockSize int
	blocks    int
}

// encodeBench measures the codec hot path end to end: sequential vs
// pipelined encode throughput for AE(3,5,5). (Repair latency and
// bandwidth live in the repair experiment.)
func encodeBench(cfg encodeConfig) error {
	params := lattice.Params{Alpha: 3, S: 5, P: 5}
	fmt.Printf("Encode throughput — %s, %d blocks of %d KiB, %d cores\n",
		params, cfg.blocks, cfg.blockSize>>10, runtime.GOMAXPROCS(0))

	pool := xorblock.PoolFor(cfg.blockSize)
	data := make([]byte, cfg.blockSize)
	rand.New(rand.NewSource(1)).Read(data)
	mbps := func(d time.Duration) float64 {
		return float64(cfg.blocks) * float64(cfg.blockSize) / (1 << 20) / d.Seconds()
	}

	// Sequential: one goroutine, allocation-free via EntangleInto.
	enc, err := entangle.NewEncoder(params, cfg.blockSize)
	if err != nil {
		return err
	}
	bufs := make([][]byte, params.Alpha)
	for i := range bufs {
		bufs[i] = pool.Get()
	}
	start := time.Now()
	for b := 0; b < cfg.blocks; b++ {
		if _, err := enc.EntangleInto(data, bufs); err != nil {
			return err
		}
	}
	seq := time.Since(start)
	for _, b := range bufs {
		pool.Put(b)
	}

	// Pipelined: strand workers, pooled block buffers.
	penc, err := entangle.NewEncoder(params, cfg.blockSize)
	if err != nil {
		return err
	}
	fill := func(_ int, buf []byte) { copy(buf, data) }
	start = time.Now()
	if _, err := pipeline.EncodePooled(context.Background(), penc, cfg.blocks, fill, pipeline.NullSink{}, pool, pipeline.Options{}); err != nil {
		return err
	}
	pip := time.Since(start)
	fmt.Printf("  sequential: %8.1f MB/s (%v)\n", mbps(seq), seq.Round(time.Millisecond))
	fmt.Printf("  pipelined:  %8.1f MB/s (%v)  speedup %.2fx\n", mbps(pip), pip.Round(time.Millisecond), seq.Seconds()/pip.Seconds())
	record(benchfmt.Result{Experiment: "encode", Name: "sequential",
		NsPerOp: float64(seq.Nanoseconds()) / float64(cfg.blocks), MBps: mbps(seq)})
	record(benchfmt.Result{Experiment: "encode", Name: "pipelined",
		NsPerOp: float64(pip.Nanoseconds()) / float64(cfg.blocks), MBps: mbps(pip)})

	return nil
}

// repairBench covers the repair engine: whole-lattice round latency and
// repair bandwidth (bytes moved per repaired block, tuple-scoped vs
// round-based).
func repairBench() error {
	if err := repairRoundBench(); err != nil {
		return err
	}
	return repairBandwidthBench()
}

// repairRoundBench times one whole-lattice repair, serial vs parallel
// planning, on an AE(3,2,5) system with a 30% failure.
func repairRoundBench() error {
	const (
		n         = 512
		blockSize = 64 << 10
	)
	params := lattice.Params{Alpha: 3, S: 2, P: 5}
	rng := rand.New(rand.NewSource(7))
	build := func() (*entangle.MemoryStore, error) {
		enc, err := entangle.NewEncoder(params, blockSize)
		if err != nil {
			return nil, err
		}
		store := entangle.NewMemoryStore(blockSize)
		data := make([]byte, blockSize)
		for i := 1; i <= n; i++ {
			rng.Read(data)
			ent, err := enc.Entangle(data)
			if err != nil {
				return nil, err
			}
			if err := store.PutData(context.Background(), ent.Index, data); err != nil {
				return nil, err
			}
			for _, p := range ent.Parities {
				if err := store.PutParity(context.Background(), p.Edge, p.Data); err != nil {
					return nil, err
				}
			}
		}
		return store, nil
	}
	damage := func(store *entangle.MemoryStore) error {
		lat, err := lattice.New(params)
		if err != nil {
			return err
		}
		dmg := rand.New(rand.NewSource(99))
		for i := 1; i <= n; i++ {
			if dmg.Float64() < 0.3 {
				store.LoseData(i)
			}
			for _, class := range lat.Classes() {
				if dmg.Float64() < 0.3 {
					e, err := lat.OutEdge(class, i)
					if err != nil {
						return err
					}
					store.LoseParity(e)
				}
			}
		}
		return nil
	}
	rep, err := entangle.NewRepairer(params)
	if err != nil {
		return err
	}
	fmt.Printf("Repair round latency — %s, %d blocks of %d KiB, 30%% failures\n",
		params, n, blockSize>>10)
	// At GOMAXPROCS=1 the parallel setting IS the serial setting: skip it
	// so the document never carries two results under one name.
	workerSettings := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		workerSettings = append(workerSettings, n)
	}
	for _, workers := range workerSettings {
		store, err := build()
		if err != nil {
			return err
		}
		if err := damage(store); err != nil {
			return err
		}
		start := time.Now()
		stats, err := rep.Repair(context.Background(), store, entangle.Options{Workers: workers})
		if err != nil {
			return err
		}
		elapsed := time.Since(start)
		fmt.Printf("  workers=%-2d %v for %d rounds (%d data + %d parity repairs)\n",
			workers, elapsed.Round(time.Millisecond), stats.Rounds,
			stats.DataRepaired, stats.ParityRepaired)
		repairs := stats.DataRepaired + stats.ParityRepaired
		if repairs > 0 {
			record(benchfmt.Result{Experiment: "repair", Name: fmt.Sprintf("workers=%d", workers),
				NsPerOp: float64(elapsed.Nanoseconds()) / float64(repairs),
				MBps:    float64(repairs) * blockSize / (1 << 20) / elapsed.Seconds(),
				WallNs:  elapsed.Nanoseconds()})
		}
	}
	return nil
}

// repairBandwidthBench measures bytes moved per repaired block over
// identical data-only damage. Its two keys are one engine seeded two
// ways: "tuple" hands it the lost blocks as Options.Targets (the
// maintenance scheduler's healing path), "round" lets it enumerate the
// store. Both should sit near two block reads per repair — the engine
// fetches only the tuple it chose for each missing block.
func repairBandwidthBench() error {
	const (
		n         = 512
		blockSize = 64 << 10
	)
	params := lattice.Params{Alpha: 3, S: 2, P: 5}
	build := func() (*entangle.MemoryStore, []store.Ref, error) {
		enc, err := entangle.NewEncoder(params, blockSize)
		if err != nil {
			return nil, nil, err
		}
		st := entangle.NewMemoryStore(blockSize)
		rng := rand.New(rand.NewSource(7))
		data := make([]byte, blockSize)
		for i := 1; i <= n; i++ {
			rng.Read(data)
			ent, err := enc.Entangle(data)
			if err != nil {
				return nil, nil, err
			}
			if err := st.PutData(context.Background(), ent.Index, data); err != nil {
				return nil, nil, err
			}
			for _, p := range ent.Parities {
				if err := st.PutParity(context.Background(), p.Edge, p.Data); err != nil {
					return nil, nil, err
				}
			}
		}
		// Data-only damage keeps every repair a single surviving tuple
		// away, so both paths repair the same block set and the ratio
		// isolates traffic, not repairability.
		dmg := rand.New(rand.NewSource(99))
		var lost []store.Ref
		for i := 1; i <= n; i++ {
			if dmg.Float64() < 0.15 {
				st.LoseData(i)
				lost = append(lost, store.DataRef(i))
			}
		}
		return st, lost, nil
	}
	rep, err := entangle.NewRepairer(params)
	if err != nil {
		return err
	}
	fmt.Printf("Repair bandwidth — %s, %d blocks of %d KiB, 15%% data-only failures\n",
		params, n, blockSize>>10)
	measure := func(name string, targeted bool) error {
		st, lost, err := build()
		if err != nil {
			return err
		}
		var opts entangle.Options
		if targeted {
			opts.Targets = lost
		}
		start := time.Now()
		stats, err := rep.Repair(context.Background(), st, opts)
		if err != nil {
			return err
		}
		elapsed := time.Since(start)
		repairs := stats.DataRepaired + stats.ParityRepaired
		if repairs == 0 {
			return fmt.Errorf("repair bandwidth (%s): nothing repaired", name)
		}
		perBlock := float64(stats.BytesRead) / float64(repairs)
		fmt.Printf("  %-6s %6.2f blocks read per repair (%d repairs, %.1f MiB moved, %v)\n",
			name, perBlock/blockSize, repairs, float64(stats.BytesRead)/(1<<20),
			elapsed.Round(time.Millisecond))
		record(benchfmt.Result{Experiment: "repair", Name: name,
			NsPerOp:    float64(elapsed.Nanoseconds()) / float64(repairs),
			BytesBlock: &perBlock, WallNs: elapsed.Nanoseconds()})
		return nil
	}
	if err := measure("tuple", true); err != nil {
		return err
	}
	return measure("round", false)
}

func ablations(cfg sim.Config) error {
	fmt.Println("Ablations (placement, puncturing, repair policy)")

	// Placement policy.
	ae3, err := sim.NewAE(lattice.Params{Alpha: 3, S: 2, P: 5})
	if err != nil {
		return err
	}
	rr := cfg
	rr.Placement = sim.PlacementRoundRobin
	randRes, err := sim.Sweep(ae3, cfg)
	if err != nil {
		return err
	}
	rrRes, err := sim.Sweep(ae3, rr)
	if err != nil {
		return err
	}
	fmt.Println("placement (AE(3,2,5) data loss, 10–50%):")
	fmt.Print("  random:     ")
	for _, r := range randRes {
		fmt.Printf(" %7d", r.DataLoss)
	}
	fmt.Print("\n  round-robin:")
	for _, r := range rrRes {
		fmt.Printf(" %7d", r.DataLoss)
	}
	fmt.Println()

	// Puncturing.
	punct, err := sim.NewAEPunctured(lattice.Params{Alpha: 3, S: 2, P: 5},
		func(ci, left int) bool { return ci == 2 && left%2 == 0 }, "AE(3,2,5)-halfLH")
	if err != nil {
		return err
	}
	ae2, err := sim.NewAE(lattice.Params{Alpha: 2, S: 2, P: 5})
	if err != nil {
		return err
	}
	fmt.Println("puncturing (data loss, 10–50%):")
	for _, s := range []sim.Scheme{ae2, punct, ae3} {
		rs, err := sim.Sweep(s, cfg)
		if err != nil {
			return err
		}
		fmt.Printf("  %-18s AS=%3.0f%%:", s.Name(), s.AdditionalStorage()*100)
		for _, r := range rs {
			fmt.Printf(" %7d", r.DataLoss)
		}
		fmt.Println()
	}

	// (s,p) sensitivity at a 50% disaster.
	fmt.Println("(s,p) at 50% disaster:")
	for _, params := range []lattice.Params{
		{Alpha: 3, S: 2, P: 2}, {Alpha: 3, S: 2, P: 5}, {Alpha: 3, S: 3, P: 5}, {Alpha: 3, S: 5, P: 5},
	} {
		s, err := sim.NewAE(params)
		if err != nil {
			return err
		}
		r, err := s.Simulate(cfg, 0.5)
		if err != nil {
			return err
		}
		fmt.Printf("  %-10s |ME(2)|=%2d loss=%7d rounds=%d\n",
			params, 2+params.P+2*params.S, r.DataLoss, r.Rounds)
	}
	return nil
}
