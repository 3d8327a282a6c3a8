// Command aebench regenerates the paper's evaluation tables and figures
// from the simulation framework at any scale, each beside the values the
// paper reports.
//
// Usage:
//
//	aebench -exp all                         # everything, paper defaults
//	aebench -exp fig11 -blocks 1000000       # one experiment at 1M blocks
//	aebench -exp table6 -blocks 200000 -seed 7
//
// Experiments: table4, fig6, fig7, fig8, fig9, cube, fig10, fig11, fig12,
// fig13, bandwidth, table6, placement, mirror, raid, ablation, all.
// -exp accepts a comma-separated list.
// Layer numbers (codec, XOR kernels, transport, segstore, cluster, repair
// traffic, metrics) are `go test -bench` benchmarks in their packages,
// not experiments here.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"aecodes/internal/entmirror"
	"aecodes/internal/failure"
	"aecodes/internal/lattice"
	"aecodes/internal/mep"
	"aecodes/internal/raidae"
	"aecodes/internal/sim"
	"aecodes/internal/writeperf"
)

// experiment is one table or figure of the paper's evaluation.
type experiment struct {
	name string
	run  func(*runner) error
}

// experiments is the registry, in the paper's order: §V.A fault
// tolerance, §V.B write performance, §V.C disasters, then the §IV.B
// applications and the ablations.
var experiments = []experiment{
	{"table4", (*runner).table4},
	{"fig6", (*runner).fig6},
	{"fig7", (*runner).fig7},
	{"fig8", func(r *runner) error {
		return r.figME(2, "Fig 8: |ME(2)| vs p (paper: 2+p+(α−1)s, minimal at s=p)")
	}},
	{"fig9", func(r *runner) error {
		return r.figME(4, "Fig 9: |ME(4)| vs p (paper: 8 for α=2; grows with s for α=3)")
	}},
	{"cube", (*runner).cube},
	{"fig10", (*runner).fig10},
	{"fig11", func(r *runner) error {
		return r.sweepMetric("Fig 11: data loss AFTER repairs (# of data blocks)", func(s sim.Result) string {
			return fmt.Sprintf("%d", s.DataLoss)
		})
	}},
	{"fig12", func(r *runner) error {
		return r.sweepMetric("Fig 12: data blocks without redundancy (% of data blocks)", func(s sim.Result) string {
			return fmt.Sprintf("%.2f%%", s.VulnerableFraction()*100)
		})
	}},
	{"fig13", func(r *runner) error {
		return r.sweepMetric("Fig 13: single-failure repairs (% single/total loss)", func(s sim.Result) string {
			return fmt.Sprintf("%.1f%%", s.SingleFailureShare()*100)
		})
	}},
	{"bandwidth", func(r *runner) error {
		return r.sweepMetric("§I repair bandwidth: blocks read per repaired data block (paper: k per RS(k,m) stripe decode, 2 per AE data or parity repair)", func(s sim.Result) string {
			return fmt.Sprintf("%.2f", s.ReadAmplification())
		})
	}},
	{"table6", (*runner).table6},
	{"placement", (*runner).placement},
	{"mirror", (*runner).mirror},
	{"raid", (*runner).raid},
	{"ablation", (*runner).ablations},
}

// expUsage is the -exp flag's help: the registry's names and "all".
func expUsage() string {
	names := make([]string, 0, len(experiments)+1)
	for _, e := range experiments {
		names = append(names, e.name)
	}
	return "experiments, comma separated: " + strings.Join(append(names, "all"), "|")
}

func main() {
	var (
		exp       = flag.String("exp", "all", expUsage())
		blocks    = flag.Int("blocks", 1_000_000, "number of data blocks (paper: 1,000,000)")
		locations = flag.Int("locations", 100, "number of storage locations (paper: 100)")
		seed      = flag.Int64("seed", 1, "random seed")
		trials    = flag.Int("trials", 6000, "Monte-Carlo trials for the mirror experiment")
	)
	flag.Parse()
	cfg := sim.Config{DataBlocks: *blocks, Locations: *locations, Seed: *seed}
	if err := run(os.Stdout, *exp, cfg, *trials); err != nil {
		fmt.Fprintln(os.Stderr, "aebench:", err)
		os.Exit(1)
	}
}

// run prints the experiments exp names ("all", or a comma-separated
// list), a blank line after each. An unknown name fails before any runs.
func run(w io.Writer, exp string, cfg sim.Config, trials int) error {
	chosen := experiments
	if exp != "all" {
		chosen = nil
		for _, name := range strings.Split(exp, ",") {
			name = strings.TrimSpace(name)
			i := slices.IndexFunc(experiments, func(e experiment) bool { return e.name == name })
			if i < 0 {
				return fmt.Errorf("unknown experiment %q (%s)", name, expUsage())
			}
			chosen = append(chosen, experiments[i])
		}
	}
	r := &runner{w: w, cfg: cfg, trials: trials, sweeps: make(map[string][]sim.Result)}
	for _, e := range chosen {
		if err := e.run(r); err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		r.printf("\n")
	}
	return nil
}

// runner holds one invocation's settings and the disaster sweeps its
// experiments share: Figs 11–13, the bandwidth table, Table VI and the
// ablations read the same sweep of a scheme, so each runs once.
type runner struct {
	w      io.Writer
	cfg    sim.Config
	trials int
	sweeps map[string][]sim.Result // scheme name → its sweep at cfg
}

func (r *runner) printf(format string, args ...any) { fmt.Fprintf(r.w, format, args...) }

// sweep returns s's results over the paper's disaster sizes at r.cfg.
func (r *runner) sweep(s sim.Scheme) ([]sim.Result, error) {
	if rs, ok := r.sweeps[s.Name()]; ok {
		return rs, nil
	}
	rs, err := sim.Sweep(s, r.cfg)
	if err != nil {
		return nil, err
	}
	r.sweeps[s.Name()] = rs
	return rs, nil
}

func (r *runner) table4() error {
	schemes, err := sim.PaperSchemes()
	if err != nil {
		return err
	}
	r.printf("Table IV: redundancy schemes (AS: additional storage, SF: single-failure cost)\n")
	r.printf("%-12s %8s %4s\n", "scheme", "AS", "SF")
	for _, row := range sim.TableIV(schemes) {
		r.printf("%-12s %7.0f%% %4d\n", row.Scheme, row.AdditionalStorage*100, row.SingleFailureCost)
	}
	return nil
}

// minimal is the size of the smallest minimal erasure pattern with x data
// blocks in AE(alpha,s,p).
func minimal(alpha, s, p, x int) (int, error) {
	pat, err := mep.MinimalErasure(lattice.Params{Alpha: alpha, S: s, P: p}, x, mep.Options{})
	return pat.Size(), err
}

func (r *runner) fig6() error {
	r.printf("Fig 6: primitive forms for single entanglements, AE(1,-,-)\n")
	size, err := minimal(1, 1, 0, 2)
	if err != nil {
		return err
	}
	r.printf("  form I  (adjacent nodes + shared edge):   |ME(2)| = %d (paper: 3)\n", size)
	// Form II is the stretched variant: nodes 4 hops apart with every
	// connecting edge erased; the checker verifies it is minimal.
	form2 := mep.Pattern{Params: lattice.Params{Alpha: 1, S: 1, P: 0}, Nodes: []int{50, 54}}
	for left := 50; left < 54; left++ {
		form2.Edges = append(form2.Edges, lattice.Edge{Class: lattice.Horizontal, Left: left, Right: left + 1})
	}
	if err := mep.Check(form2); err != nil {
		return err
	}
	r.printf("  form II (extended, all connecting edges): |ME(2)| = %d (paper: 2 nodes + the 4 edges between them)\n", form2.Size())
	return nil
}

func (r *runner) fig7() error {
	r.printf("Fig 7: complex forms (α ≥ 2)\n")
	for _, f := range []struct {
		label          string
		alpha, s, p, n int // n: the paper's |ME(2)|
	}{
		{"A", 2, 1, 1, 4}, {"B", 3, 1, 1, 5}, {"C", 3, 1, 4, 8}, {"D", 3, 4, 4, 14},
	} {
		size, err := minimal(f.alpha, f.s, f.p, 2)
		if err != nil {
			return err
		}
		r.printf("  form %s AE(%d,%d,%d): |ME(2)| = %d (paper: %d)\n", f.label, f.alpha, f.s, f.p, size, f.n)
	}
	return nil
}

func (r *runner) figME(x int, title string) error {
	r.printf("%s\n%-12s", title, "p:")
	for p := 2; p <= 8; p++ {
		r.printf("%6d", p)
	}
	r.printf("\n")
	for _, st := range []struct{ alpha, s int }{{2, 2}, {2, 3}, {3, 2}, {3, 3}} {
		r.printf("AE(%d,%d,p)  ", st.alpha, st.s)
		for p := 2; p <= 8; p++ {
			if p < st.s {
				r.printf("%6s", "-")
				continue
			}
			size, err := minimal(st.alpha, st.s, p, x)
			if err != nil {
				return err
			}
			r.printf("%6d", size)
		}
		r.printf("\n")
	}
	return nil
}

func (r *runner) cube() error {
	size, err := minimal(3, 3, 3, 8)
	if err != nil {
		return err
	}
	r.printf("§V.A cube bound: AE(3,3,3) |ME(8)| = %d (paper: %d, the cube's 8 nodes and 12 edges)\n",
		size, mep.HypercubeBound(3))
	return nil
}

func (r *runner) fig10() error {
	r.printf("Fig 10: write performance — sealed buckets per column write (paper: full writes at s=p)\n")
	r.printf("%-14s %10s %8s %8s %8s\n", "setting", "maxHeadAge", "sealed", "partial", "heads")
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
		r.printf("%-14s %10d %8d %8d %8d\n", ps, a.MaxHeadAge, sched.Sealed, sched.Partial, a.HeadsInMemory)
	}
	return nil
}

// sweepMetric prints one metric of every paper scheme's disaster sweep.
func (r *runner) sweepMetric(title string, metric func(sim.Result) string) error {
	schemes, err := sim.PaperSchemes()
	if err != nil {
		return err
	}
	fracs, err := failure.Sweep(50)
	if err != nil {
		return err
	}
	r.printf("%s — %d blocks, %d locations, seed %d\n", title, r.cfg.DataBlocks, r.cfg.Locations, r.cfg.Seed)
	r.printf("%-12s", "scheme")
	for _, f := range fracs {
		r.printf("%12.0f%%", f*100)
	}
	r.printf("\n")
	for _, s := range schemes {
		results, err := r.sweep(s)
		if err != nil {
			return err
		}
		r.printf("%-12s", s.Name())
		for _, res := range results {
			r.printf("%13s", metric(res))
		}
		r.printf("\n")
	}
	return nil
}

func (r *runner) table6() error {
	r.printf("Table VI: AE repair rounds — %d blocks, %d locations (paper: 6/7/9/10/10, 3/6/9/17/30, 3/4/7/10/15)\n",
		r.cfg.DataBlocks, r.cfg.Locations)
	r.printf("%-12s %6s %6s %6s %6s %6s\n", "code", "10%", "20%", "30%", "40%", "50%")
	for _, params := range []lattice.Params{
		{Alpha: 1, S: 1, P: 0},
		{Alpha: 2, S: 2, P: 5},
		{Alpha: 3, S: 2, P: 5},
	} {
		s, err := sim.NewAE(params)
		if err != nil {
			return err
		}
		results, err := r.sweep(s)
		if err != nil {
			return err
		}
		r.printf("%-12s", s.Name())
		for _, res := range results {
			r.printf("%7d", res.Rounds)
		}
		r.printf("\n")
	}
	return nil
}

func (r *runner) placement() error {
	r.printf("§V.C placement statistics — RS(10,4), %d blocks, %d locations\n", r.cfg.DataBlocks, r.cfg.Locations)
	mean, stddev, err := sim.BlocksPerLocation(r.cfg, 10, 4)
	if err != nil {
		return err
	}
	r.printf("blocks per location: mean %.0f, stddev %.2f (paper: 14,000 / 130.88)\n", mean, stddev)
	spread, err := sim.StripeSpread(r.cfg, 10, 4)
	if err != nil {
		return err
	}
	r.printf("stripes by number of distinct locations:\n")
	for _, k := range sim.SpreadKeys(spread) {
		r.printf("  %2d locations: %d stripes\n", k, spread[k])
	}
	return nil
}

func (r *runner) mirror() error {
	p := entmirror.Params{
		Pairs:   20, // 20 data + 20 parity drives
		Disks:   failure.DiskLifetimes{MTTF: 100_000, MTTR: 2_000},
		Horizon: entmirror.FiveYearHours,
		Trials:  r.trials,
		Seed:    42,
	}
	r.printf("§IV.B.1 entangled mirror — %d data + %d parity drives, MTTF %.0fh, rebuild %.0fh, 5-year Monte Carlo, %d trials\n",
		p.Pairs, p.Pairs, p.Disks.MTTF, p.Disks.MTTR, p.Trials)
	results, err := entmirror.Compare(p)
	if err != nil {
		return err
	}
	r.printf("%-14s %12s %12s\n", "layout", "P(loss)", "vs mirror")
	for _, layout := range []entmirror.Layout{entmirror.Mirror, entmirror.OpenChain, entmirror.ClosedChain} {
		r.printf("%-14s %12.4f", layout, results[layout].LossProbability())
		if layout != entmirror.Mirror {
			red, err := entmirror.Reduction(results, layout)
			if err != nil {
				return err
			}
			r.printf(" %10.1f%%", red*100)
		}
		r.printf("\n")
	}
	r.printf("(paper recap: open ≈ −90%%, closed ≈ −98%%)\n")
	r.printf("extremity exposure (open chain, 4 TiB drives, 4 KiB blocks): full partition %d bytes vs striping %d bytes\n",
		entmirror.ExtremityExposure(true, 4<<40, 4096), entmirror.ExtremityExposure(false, 4<<40, 4096))
	return nil
}

func (r *runner) raid() error {
	r.printf("§IV.B.2 RAID-AE vs RAID5 (re-encode column: growing a 1M-unit array by one disk)\n")
	rows, err := raidae.Compare(6, lattice.Params{Alpha: 3, S: 2, P: 5}, 8)
	if err != nil {
		return err
	}
	r.printf("%-18s %10s %13s %14s  %s\n", "system", "write IOs", "degraded read", "re-encode", "fault tolerance")
	for _, row := range rows {
		r.printf("%-18s %10d %13d %14d  %s\n",
			row.System, row.SmallWriteIOs, row.DegradedReadIOs, row.ReencodeOnGrow, row.FaultTolerance)
	}
	return nil
}

func (r *runner) ablations() error {
	r.printf("Ablations (placement, puncturing, (s,p), locations)\n")

	// Placement policy.
	ae3, err := sim.NewAE(lattice.Params{Alpha: 3, S: 2, P: 5})
	if err != nil {
		return err
	}
	rr := r.cfg
	rr.Placement = sim.PlacementRoundRobin
	randRes, err := r.sweep(ae3)
	if err != nil {
		return err
	}
	rrRes, err := sim.Sweep(ae3, rr)
	if err != nil {
		return err
	}
	r.printf("placement (AE(3,2,5) data loss, 10–50%%):\n  random:     ")
	for _, res := range randRes {
		r.printf(" %7d", res.DataLoss)
	}
	r.printf("\n  round-robin:")
	for _, res := range rrRes {
		r.printf(" %7d", res.DataLoss)
	}
	r.printf("\n")

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
	r.printf("puncturing (data loss, 10–50%%):\n")
	for _, s := range []sim.Scheme{ae2, punct, ae3} {
		rs, err := r.sweep(s)
		if err != nil {
			return err
		}
		r.printf("  %-18s AS=%3.0f%%:", s.Name(), s.AdditionalStorage()*100)
		for _, res := range rs {
			r.printf(" %7d", res.DataLoss)
		}
		r.printf("\n")
	}

	// (s,p) sensitivity at a 50% disaster.
	r.printf("(s,p) at 50%% disaster:\n")
	for _, params := range []lattice.Params{
		{Alpha: 3, S: 2, P: 2}, {Alpha: 3, S: 2, P: 5}, {Alpha: 3, S: 3, P: 5}, {Alpha: 3, S: 5, P: 5},
	} {
		s, err := sim.NewAE(params)
		if err != nil {
			return err
		}
		res, err := s.Simulate(r.cfg, 0.5)
		if err != nil {
			return err
		}
		r.printf("  %-10s |ME(2)|=%2d loss=%7d rounds=%d\n",
			params, 2+params.P+2*params.S, res.DataLoss, res.Rounds)
	}

	// Failure-domain count: §V.C expects the comparison to hold at larger n.
	r.printf("locations (AE(3,2,5) data loss at 50%%):")
	for _, n := range []int{50, 100, 1000} {
		cfg := r.cfg
		cfg.Locations = n
		res, err := ae3.Simulate(cfg, 0.5)
		if err != nil {
			return err
		}
		r.printf(" n=%d:%d", n, res.DataLoss)
	}
	r.printf("\n")
	return nil
}
