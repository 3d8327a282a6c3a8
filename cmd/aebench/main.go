// Command aebench regenerates the paper's evaluation tables and figures
// from the simulation framework at any scale.
//
// Usage:
//
//	aebench -exp all                         # everything, paper defaults
//	aebench -exp fig11 -blocks 1000000       # one experiment at 1M blocks
//	aebench -exp table6 -blocks 200000 -seed 7
//
// Experiments: table4, fig8, fig9, fig10, fig11, fig12, fig13, table6,
// placement, mirror, raid, ablation, all. -exp accepts a comma-separated
// list. Layer numbers (codec, XOR kernels, transport, segstore, cluster,
// repair traffic, metrics) are `go test -bench` benchmarks in their
// packages, not experiments here.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"aecodes/internal/entmirror"
	"aecodes/internal/failure"
	"aecodes/internal/lattice"
	"aecodes/internal/mep"
	"aecodes/internal/raidae"
	"aecodes/internal/sim"
	"aecodes/internal/writeperf"
)

func main() {
	var (
		exp       = flag.String("exp", "all", "experiments, comma separated: table4|fig8|fig9|fig10|fig11|fig12|fig13|table6|placement|mirror|raid|ablation|all")
		blocks    = flag.Int("blocks", 1_000_000, "number of data blocks (paper: 1,000,000)")
		locations = flag.Int("locations", 100, "number of storage locations (paper: 100)")
		seed      = flag.Int64("seed", 1, "random seed")
		trials    = flag.Int("trials", 6000, "Monte-Carlo trials for the mirror experiment")
	)
	flag.Parse()
	if err := run(*exp, sim.Config{DataBlocks: *blocks, Locations: *locations, Seed: *seed}, *trials); err != nil {
		fmt.Fprintln(os.Stderr, "aebench:", err)
		os.Exit(1)
	}
}

func run(exp string, cfg sim.Config, trials int) error {
	type experiment struct {
		name string
		fn   func() error
	}
	experiments := []experiment{
		{"table4", func() error { return table4() }},
		{"fig8", func() error { return figME(2, "Fig 8: |ME(2)| vs p") }},
		{"fig9", func() error { return figME(4, "Fig 9: |ME(4)| vs p") }},
		{"fig10", func() error { return fig10() }},
		{"fig11", func() error {
			return sweepMetric(cfg, "Fig 11: data loss AFTER repairs (# of data blocks)", func(r sim.Result) string { return fmt.Sprintf("%d", r.DataLoss) })
		}},
		{"fig12", func() error {
			return sweepMetric(cfg, "Fig 12: data blocks without redundancy (% of data blocks)", func(r sim.Result) string {
				return fmt.Sprintf("%.2f%%", r.VulnerableFraction()*100)
			})
		}},
		{"fig13", func() error {
			return sweepMetric(cfg, "Fig 13: single-failure repairs (% single/total loss)", func(r sim.Result) string {
				return fmt.Sprintf("%.1f%%", r.SingleFailureShare()*100)
			})
		}},
		{"table6", func() error { return table6(cfg) }},
		{"placement", func() error { return placementStats(cfg) }},
		{"mirror", func() error { return mirror(trials) }},
		{"raid", func() error { return raid() }},
		{"ablation", func() error { return ablations(cfg) }},
	}
	if exp == "all" {
		for _, e := range experiments {
			if err := e.fn(); err != nil {
				return fmt.Errorf("%s: %w", e.name, err)
			}
			fmt.Println()
		}
		return nil
	}
	// -exp accepts a comma-separated list.
	for _, name := range strings.Split(exp, ",") {
		name = strings.TrimSpace(name)
		found := false
		for _, e := range experiments {
			if e.name == name {
				if err := e.fn(); err != nil {
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
