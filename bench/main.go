// Command bench is the archive-lifecycle benchmark: it writes data into
// the system once, loses some of it, reads it anyway and repairs it, on
// four workloads, and reports what a user of the system would see
// (throughput, latency, repair speed and traffic, bytes stored, CPU,
// memory) and, on a traced run, where in the layers the time went.
//
// BENCHMARK.json at the repository root is the contract: it names the
// command, the workloads and every metric this program may print. See
// README.md beside this file.
//
// Usage (from the repository root, through the entry script, which
// builds the daemons and this program into .bench_build/):
//
//	bash bench/run.sh --workload fleet_64k --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --workload all --seed 1 --trace 1
//	bash bench/run.sh --list
//	bash bench/run.sh --selfcheck
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		name      = flag.String("workload", "", "workload to run, or \"all\"")
		seed      = flag.Uint64("seed", 1, "seed every input is generated from")
		seconds   = flag.Float64("seconds", -1, "how long to measure; lifecycles repeat until it has passed (default: run_seconds of BENCHMARK.json)")
		trace     = flag.Int("trace", 0, "1 repeats lifecycles with the decorators on and reports the per-layer metrics")
		list      = flag.Bool("list", false, "print every declared metric and exit")
		selfcheck = flag.Bool("selfcheck", false, "run every workload three times each on seeds 1 and 2, alternating, and compare the two sets within the declared bounds")
		dataDir   = flag.String("datadir", "", "where nodes and stores keep their data (default: .bench_build/run under the root)")
		outDir    = flag.String("out", "", "where a traced run writes <workload>.spans.json (default: .bench_build/out under the root)")
		verbose   = flag.Bool("v", false, "also print what each lifecycle measured, one line per lifecycle")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected arguments %v\n", flag.Args())
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace takes 0 or 1")
		return 2
	}
	rootDir, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	spec, err := loadSpec(rootDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if *list {
		printList(os.Stdout, spec)
		return 0
	}
	if *seconds < 0 {
		*seconds = float64(spec.RunSeconds)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	b := &bench{spec: spec, root: rootDir, reap: newReaper(), out: os.Stdout, verbose: *verbose}
	// Every exit path below runs this: children killed, scratch removed.
	defer b.cleanup()
	if err := b.prepare(*dataDir, *outDir); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}

	if *selfcheck {
		if err := b.selfcheck(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "bench: selfcheck:", err)
			return 1
		}
		return 0
	}
	var names []string
	switch *name {
	case "":
		fmt.Fprintln(os.Stderr, "bench: -workload is required (or -list, -selfcheck)")
		return 2
	case "all":
		for _, w := range workloads() {
			names = append(names, w.name)
		}
	default:
		names = []string{*name}
	}
	code := 0
	for _, n := range names {
		w, err := workloadNamed(n)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		res, err := b.run(ctx, w, *seed, *seconds, *trace == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", n, err)
			return 1
		}
		if err := b.report(res, *trace == 1); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", n, err)
			return 1
		}
		if !res.correct() {
			code = 1
		}
	}
	return code
}

// findRoot returns the directory holding BENCHMARK.json: the nearest one
// upward from the working directory.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no BENCHMARK.json here or in any directory above")
		}
		dir = parent
	}
}

// bench is one invocation of the program.
type bench struct {
	spec *benchSpec
	root string
	reap *reaper
	// scale divides every workload's counts; the tests run 64.
	scale int
	out   io.Writer
	// verbose prints each lifecycle's own values as it ends: the
	// within-run spread behind the run's values.
	verbose bool

	bins   binaries
	tmp    string // scratch for data directories, removed by cleanup
	outDir string
}

// prepare creates the scratch directory inside the checkout (or where
// -datadir says) and builds the daemons.
func (b *bench) prepare(dataDir, outDir string) error {
	build := filepath.Join(b.root, ".bench_build")
	if dataDir == "" {
		dataDir = filepath.Join(build, "run")
	}
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return err
	}
	var err error
	if b.tmp, err = os.MkdirTemp(dataDir, "bench-"); err != nil {
		return err
	}
	b.outDir = outDir
	if b.outDir == "" {
		b.outDir = filepath.Join(build, "out")
	}
	b.bins, err = buildDaemons(b.root, filepath.Join(build, "bin"))
	return err
}

func (b *bench) cleanup() {
	b.reap.killAll()
	if b.tmp != "" {
		os.RemoveAll(b.tmp)
	}
}

// runResult is one run of one workload: several lifecycles folded.
type runResult struct {
	workload string
	seed     uint64
	cycles   int
	plain    int // untraced lifecycles among them
	elapsed  time.Duration
	device   string

	endToEnd map[string]float64
	perLayer map[string]float64 // traced runs only
	bypassed map[string]bool    // per-layer keys zero because the workload has no such layer
	counts   map[string]int     // op samples per phase, over the untraced lifecycles

	attempted, failed int
	failures          []string
	budget            []budgetRow // of the last traced lifecycle
	spanPath          string
}

func (r *runResult) correct() bool { return r.failed == 0 }

// run measures workload w for about seconds: whole lifecycles, each on a
// fresh fleet or store, until the time has passed. With trace, every
// other lifecycle runs with the decorators on; end-to-end numbers come
// from the untraced ones only.
func (b *bench) run(ctx context.Context, w workload, seed uint64, seconds float64, trace bool) (*runResult, error) {
	w = w.scaled(b.scale)
	e := &env{reap: b.reap, bins: b.bins, tmp: b.tmp, seed: seed, clients: 1}
	if w.fleet {
		e.clients = clientCount()
		for c := 0; c < e.clients; c++ {
			e.inputs = append(e.inputs, newInput(seed, c, w.blocks, w.blockSize))
		}
	} else {
		e.inputs = []*input{newInput(seed, 0, w.blocks, archiveOpBytes)}
		e.readBuf = make([]byte, len(e.inputs[0].slab)+1)
	}
	device, free, err := deviceOf(b.tmp)
	if err != nil {
		return nil, err
	}
	if need := w.storedBytes(e.clients); free < need {
		return nil, fmt.Errorf("%s needs %d MiB under %s and the %s there has %d MiB free; point -datadir at a larger one",
			w.name, need>>20, b.tmp, device, free>>20)
	}

	res := &runResult{workload: w.name, seed: seed, device: device, counts: map[string]int{}}
	var plain, traced []*cycleResult
	var lastSpans []span
	start := time.Now()
	for cycle := 0; ; cycle++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		withTrace := trace && cycle%2 == 1
		cr, err := e.runCycle(ctx, w, cycle, withTrace)
		if err != nil {
			return nil, fmt.Errorf("lifecycle %d: %w", cycle, err)
		}
		b.spec.atReferenceSpeed(cr.vals, cr.speed)
		res.attempted += cr.attempted
		res.failed += cr.failed
		res.failures = append(res.failures, cr.failures...)
		if withTrace {
			traced = append(traced, cr)
			res.budget = cr.budget
			lastSpans = cr.spans
			cr.spans = nil
		} else {
			plain = append(plain, cr)
		}
		if b.verbose {
			b.printCycle(cycle, cr)
		}
		// Stop once the next lifecycle would end further past the time
		// asked for than stopping now falls short of it.
		elapsed := time.Since(start).Seconds()
		perCycle := elapsed / float64(cycle+1)
		if elapsed+perCycle/2 >= seconds && (!trace || len(traced) > 0) {
			break
		}
	}
	res.cycles, res.plain = len(plain)+len(traced), len(plain)
	res.elapsed = time.Since(start)

	// Every reported value is what one lifecycle measured, folded over
	// the run's lifecycles.
	res.endToEnd = foldCycles(plain)
	for phase := range plain[0].samples {
		for _, cr := range plain {
			res.counts[phase] += len(cr.samples[phase])
		}
	}
	if trace {
		res.perLayer = foldCycles(traced)
		// Lifecycles alternate untraced, traced: each pair ran under the
		// same state of the machine, so the overhead is taken pair by pair.
		var overheads []float64
		for k, cr := range traced {
			overheads = append(overheads, 1-ratio(cr.vals["ingest_mb_s"], plain[k].vals["ingest_mb_s"]))
		}
		// The median, not the fold: a run has three or four pairs, and the
		// first holds the cold lifecycle.
		res.perLayer["trace.overhead_share"] = median(overheads)
		// What an untraced lifecycle measures too (the tails, the
		// process accounts) is reported from the untraced ones.
		for name, v := range res.endToEnd {
			res.perLayer[name] = v
		}
		if err := kernelMetrics(ctx, w.blockSize, res.perLayer); err != nil {
			return nil, err
		}
		// A layer this workload bypasses did no work: that is its
		// measurement, and the driver wants every declared key. Any other
		// declared key left unset is a bug report catches.
		res.bypassed = map[string]bool{}
		for _, m := range b.spec.PerLayer {
			if _, measured := res.perLayer[m.Name]; !measured && w.bypasses(m.Name) {
				res.perLayer[m.Name] = 0
				res.bypassed[m.Name] = true
			}
		}
		if res.spanPath, err = writeSpans(b.outDir, w.name, lastSpans); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// printCycle prints one lifecycle's end-to-end values and the speed index
// they were rescaled by.
func (b *bench) printCycle(cycle int, cr *cycleResult) {
	vals := map[string]float64{"machine.speed_index": cr.speed}
	for _, m := range b.spec.EndToEnd {
		if v, ok := cr.vals[m.Name]; ok {
			vals[m.Name] = v
		}
	}
	line, _ := json.Marshal(vals) // a map of finite floats always encodes
	fmt.Fprintf(b.out, "lifecycle %d traced=%v %s\n", cycle, cr.traced, line)
}

// foldCycles folds the lifecycles' single values into one per metric.
func foldCycles(cycles []*cycleResult) map[string]float64 {
	byName := map[string][]float64{}
	for _, cr := range cycles {
		for name, v := range cr.vals {
			byName[name] = append(byName[name], v)
		}
	}
	out := make(map[string]float64, len(byName))
	for name, vs := range byName {
		out[name] = typical(vs)
	}
	return out
}

// declared keeps of vals the metrics the list declares.
func declared(decls []metricDecl, vals map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(decls))
	for _, m := range decls {
		if v, ok := vals[m.Name]; ok {
			out[m.Name] = v
		}
	}
	return out
}

// report prints a run for people, then — as the last line — the one JSON
// object the driver reads.
func (b *bench) report(res *runResult, trace bool) error {
	out := b.out
	fmt.Fprintf(out, "== %s seed %d: %d lifecycles in %.1fs, data on %s, fsync on segment seal and close, %d checks, %d failed\n",
		res.workload, res.seed, res.cycles, res.elapsed.Seconds(), res.device, res.attempted, res.failed)
	fmt.Fprintf(out, "   timings are at the reference machine speed; this run's machine ran at %.3f of it\n", res.endToEnd["machine.speed_index"])
	for _, f := range res.failures {
		fmt.Fprintln(out, "   FAILED:", f)
	}
	decls, computed := b.spec.EndToEnd, res.endToEnd
	if trace {
		decls, computed = b.spec.PerLayer, res.perLayer
	}
	// Checked before projecting onto the list being printed: a value the
	// code computes and BENCHMARK.json declares in neither list is an
	// error, not a silent drop.
	if err := b.spec.checkEmitted(decls, computed); err != nil {
		return err
	}
	vals := declared(decls, computed)
	for _, m := range decls {
		line := fmt.Sprintf("   %-44s %14.4f %-6s", m.Name, vals[m.Name], m.Unit)
		for _, suffix := range []string{"_p50_ms", "_p99_ms"} {
			if phase, ok := strings.CutSuffix(m.Name, suffix); ok && res.counts[phase] > 0 {
				line += fmt.Sprintf(" n=%d over %d lifecycles", res.counts[phase], res.plain)
			}
		}
		if trace && res.bypassed[m.Name] {
			line += " (layer not on this workload's path)"
		}
		fmt.Fprintln(out, line)
	}
	if trace {
		printBudget(out, res.budget)
		fmt.Fprintln(out, "   spans of the last traced lifecycle:", res.spanPath)
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	final := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Correct: res.correct(), Attempted: res.attempted, Failed: res.failed, Metrics: map[string]jsonMetric{}}
	for _, m := range decls {
		final.Metrics[m.Name] = jsonMetric{Value: vals[m.Name], Unit: m.Unit}
	}
	line, err := json.Marshal(final)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(line))
	return nil
}

// printBudget prints, per phase, the seconds of client time each layer
// accounts for; the rows of a phase add up to clients × wall.
func printBudget(out io.Writer, rows []budgetRow) {
	fmt.Fprintln(out, "   time budget of the last traced lifecycle (client-seconds; rows sum to clients x wall):")
	sums := map[string]float64{}
	for _, row := range rows {
		sums[row.phase] += row.seconds
	}
	for _, row := range rows {
		fmt.Fprintf(out, "     %-9s %-46s %9.4f s  %5.1f %%\n", row.phase, row.layer, row.seconds, 100*ratio(row.seconds, sums[row.phase]))
		if row.layer == "unattributed" {
			fmt.Fprintf(out, "     %-9s %-46s %9.4f s\n", row.phase, "= clients x wall", sums[row.phase])
		}
	}
}

// selfcheck measures every workload three times on seed 1 and three times
// on the held-out seed 2, alternating so that drift of the machine falls
// on both sets alike, and fails if the medians of the two sets differ by
// more than a metric's declared bound. It prints the spread over all six
// runs, which is what the bounds in BENCHMARK.json were derived from.
func (b *bench) selfcheck(ctx context.Context) error {
	seconds := float64(b.spec.RunSeconds)
	var bad []string
	for _, w := range workloads() {
		sets := map[uint64][]*runResult{}
		for _, seed := range []uint64{1, 2, 1, 2, 1, 2} {
			res, err := b.run(ctx, w, seed, seconds, false)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
			}
			if !res.correct() {
				bad = append(bad, fmt.Sprintf("%s seed %d: %d failed checks", w.name, seed, res.failed))
			}
			sets[seed] = append(sets[seed], res)
		}
		fmt.Fprintf(b.out, "== %s: median of 3 runs on seed 1 | on seed 2 | seed 2 worse by | (max-min)/median of all 6 | bound\n", w.name)
		for _, m := range b.spec.EndToEnd {
			var all []float64
			med := map[uint64]float64{}
			for seed, runs := range sets {
				var vs []float64
				for _, r := range runs {
					vs = append(vs, r.endToEnd[m.Name])
				}
				med[seed] = median(vs)
				all = append(all, vs...)
			}
			sort.Float64s(all)
			spread := ratio(all[len(all)-1]-all[0], median(all))
			worse := worseBy(m, med[1], med[2])
			verdict := "ok"
			if worse > m.Bound || worseBy(m, med[2], med[1]) > m.Bound {
				verdict = "DIFFERS"
				bad = append(bad, fmt.Sprintf("%s %s: seed 2 worse than seed 1 by %+.3f, bound %.2f", w.name, m.Name, worse, m.Bound))
			}
			fmt.Fprintf(b.out, "   %-30s %12.4f %12.4f | %+7.3f | %6.3f | %.2f %s\n",
				m.Name, med[1], med[2], worse, spread, m.Bound, verdict)
		}
	}
	if len(bad) > 0 {
		return errors.New(strings.Join(bad, "; "))
	}
	fmt.Fprintln(b.out, "selfcheck: the two sets agree within every end-to-end metric's bound on every workload")
	return nil
}
