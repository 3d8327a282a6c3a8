// Benchmarks that regenerate every table and figure of the paper's
// evaluation (§V), plus codec micro-benchmarks backing the §III/§VII
// claims about lightweight XOR-only coding.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// Each experiment prints its table once (first timed iteration) so that a
// captured bench log doubles as the reproduction record; cmd/aebench
// regenerates the same tables at arbitrary scale. Layer benchmarks live in
// their packages; the encode and repair-round ones below are among those CI
// guards (GUARDED_BENCH in .github/workflows/ci.yml).
package aecodes_test

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"

	"aecodes"
	"aecodes/internal/entangle"
	"aecodes/internal/entmirror"
	"aecodes/internal/failure"
	"aecodes/internal/lattice"
	"aecodes/internal/mep"
	"aecodes/internal/pipeline"
	"aecodes/internal/reedsolomon"
	"aecodes/internal/segstore"
	"aecodes/internal/sim"
	"aecodes/internal/store/storetest"
	"aecodes/internal/writeperf"
	"aecodes/internal/xorblock"
)

// benchCfg scales the §V.C simulations for the bench harness; cmd/aebench
// defaults to the paper's full 1M blocks.
var benchCfg = sim.Config{DataBlocks: 200_000, Locations: 100, Seed: 1}

// printOnce emits an experiment's table exactly once per process so bench
// logs stay readable across b.N calibration runs.
var printGuards sync.Map

func printOnce(name string, f func()) {
	once, _ := printGuards.LoadOrStore(name, new(sync.Once))
	once.(*sync.Once).Do(f)
}

// --- §V.A: fault tolerance (Figs 6–9) ---------------------------------

func BenchmarkFig6PrimitiveForms(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pat, err := mep.MinimalErasure(lattice.Params{Alpha: 1, S: 1, P: 0}, 2, mep.Options{})
		if err != nil {
			b.Fatal(err)
		}
		printOnce("fig6", func() {
			fmt.Printf("\nFig 6: AE(1,-,-) primitive form I |ME(2)| = %d (paper: 3)\n", pat.Size())
		})
	}
}

func BenchmarkFig7ComplexForms(b *testing.B) {
	settings := []struct {
		label       string
		alpha, s, p int
		paper       int
	}{
		{"A", 2, 1, 1, 4}, {"B", 3, 1, 1, 5}, {"C", 3, 1, 4, 8}, {"D", 3, 4, 4, 14},
	}
	for i := 0; i < b.N; i++ {
		sizes := make([]int, len(settings))
		for si, st := range settings {
			pat, err := mep.MinimalErasure(lattice.Params{Alpha: st.alpha, S: st.s, P: st.p}, 2, mep.Options{})
			if err != nil {
				b.Fatal(err)
			}
			sizes[si] = pat.Size()
		}
		printOnce("fig7", func() {
			fmt.Println("\nFig 7: complex forms |ME(2)|")
			for si, st := range settings {
				fmt.Printf("  form %s AE(%d,%d,%d): %d (paper: %d)\n",
					st.label, st.alpha, st.s, st.p, sizes[si], st.paper)
			}
		})
	}
}

func benchmarkMESweep(b *testing.B, x int, name, title string) {
	b.Helper()
	type key struct{ alpha, s int }
	settings := []key{{2, 2}, {2, 3}, {3, 2}, {3, 3}}
	for i := 0; i < b.N; i++ {
		rows := make(map[key][]int, len(settings))
		for _, st := range settings {
			for p := st.s; p <= 8; p++ {
				pat, err := mep.MinimalErasure(lattice.Params{Alpha: st.alpha, S: st.s, P: p}, x, mep.Options{})
				if err != nil {
					b.Fatal(err)
				}
				rows[st] = append(rows[st], pat.Size())
			}
		}
		printOnce(name, func() {
			fmt.Printf("\n%s\n", title)
			for _, st := range settings {
				fmt.Printf("  AE(%d,%d,p) p=%d..8: %v\n", st.alpha, st.s, st.s, rows[st])
			}
		})
	}
}

func BenchmarkFig8ME2(b *testing.B) {
	benchmarkMESweep(b, 2, "fig8", "Fig 8: |ME(2)| vs p (paper: 2+p+(α−1)s, minimal at s=p)")
}

func BenchmarkFig9ME4(b *testing.B) {
	benchmarkMESweep(b, 4, "fig9", "Fig 9: |ME(4)| vs p (paper: 8 for α=2; grows with s for α=3)")
}

func BenchmarkME8Cube(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pat, err := mep.MinimalErasure(lattice.Params{Alpha: 3, S: 3, P: 3}, 8, mep.Options{})
		if err != nil {
			b.Fatal(err)
		}
		printOnce("cube", func() {
			fmt.Printf("\n§V.A cube bound: AE(3,3,3) |ME(8)| = %d (paper: 20)\n", pat.Size())
		})
	}
}

// --- §V.B: write performance (Fig 10) ---------------------------------

func BenchmarkFig10WritePerformance(b *testing.B) {
	settings := []lattice.Params{
		{Alpha: 3, S: 10, P: 10},
		{Alpha: 3, S: 5, P: 10},
		{Alpha: 3, S: 5, P: 5},
	}
	for i := 0; i < b.N; i++ {
		type row struct {
			a writeperf.Analysis
			s writeperf.ColumnSchedule
		}
		rows := make([]row, len(settings))
		for si, ps := range settings {
			a, err := writeperf.Analyze(ps)
			if err != nil {
				b.Fatal(err)
			}
			sched, err := writeperf.Schedule(ps)
			if err != nil {
				b.Fatal(err)
			}
			rows[si] = row{a, sched}
		}
		printOnce("fig10", func() {
			fmt.Println("\nFig 10: sealed buckets per column (full-writes optimal at s=p)")
			for si, ps := range settings {
				fmt.Printf("  %-12s maxHeadAge=%d sealed=%d/%d partial=%d\n",
					ps, rows[si].a.MaxHeadAge, rows[si].s.Sealed, ps.S, rows[si].s.Partial)
			}
		})
	}
}

// --- §V.C: disaster simulations (Table IV, Figs 11–13, Table VI) ------

func BenchmarkTableIVSchemes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		schemes, err := sim.PaperSchemes()
		if err != nil {
			b.Fatal(err)
		}
		rows := sim.TableIV(schemes)
		printOnce("table4", func() {
			fmt.Println("\nTable IV: additional storage and single-failure cost")
			for _, row := range rows {
				fmt.Printf("  %-10s AS=%3.0f%% SF=%d\n", row.Scheme, row.AdditionalStorage*100, row.SingleFailureCost)
			}
		})
	}
}

// sweepAll runs the full scheme roster over all disaster sizes.
func sweepAll(b *testing.B) map[string][]sim.Result {
	b.Helper()
	schemes, err := sim.PaperSchemes()
	if err != nil {
		b.Fatal(err)
	}
	out := make(map[string][]sim.Result, len(schemes))
	for _, s := range schemes {
		rs, err := sim.Sweep(s, benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		out[s.Name()] = rs
	}
	return out
}

var schemeOrder = []string{
	"RS(10,4)", "RS(8,2)", "RS(5,5)", "RS(4,12)",
	"AE(1,-,-)", "AE(2,2,5)", "AE(3,2,5)", "2-way", "3-way", "4-way",
}

func BenchmarkFig11DataLoss(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := sweepAll(b)
		printOnce("fig11", func() {
			fmt.Printf("\nFig 11: data loss after repairs (# blocks; %d data blocks, %d locations)\n",
				benchCfg.DataBlocks, benchCfg.Locations)
			fmt.Printf("  %-10s %8s %8s %8s %8s %8s\n", "scheme", "10%", "20%", "30%", "40%", "50%")
			for _, name := range schemeOrder {
				fmt.Printf("  %-10s", name)
				for _, r := range results[name] {
					fmt.Printf(" %8d", r.DataLoss)
				}
				fmt.Println()
			}
		})
	}
}

func BenchmarkFig12VulnerableData(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := sweepAll(b)
		printOnce("fig12", func() {
			fmt.Println("\nFig 12: data blocks without redundancy (% of data blocks)")
			fmt.Printf("  %-10s %8s %8s %8s %8s %8s\n", "scheme", "10%", "20%", "30%", "40%", "50%")
			for _, name := range schemeOrder {
				fmt.Printf("  %-10s", name)
				for _, r := range results[name] {
					fmt.Printf(" %7.2f%%", r.VulnerableFraction()*100)
				}
				fmt.Println()
			}
		})
	}
}

func BenchmarkFig13SingleFailures(b *testing.B) {
	// The paper plots RS(4,12) and the AE codes.
	names := []string{"RS(4,12)", "AE(1,-,-)", "AE(2,2,5)", "AE(3,2,5)"}
	for i := 0; i < b.N; i++ {
		results := sweepAll(b)
		printOnce("fig13", func() {
			fmt.Println("\nFig 13: single-failure repairs (% of repaired data blocks)")
			fmt.Printf("  %-10s %8s %8s %8s %8s %8s\n", "scheme", "10%", "20%", "30%", "40%", "50%")
			for _, name := range names {
				fmt.Printf("  %-10s", name)
				for _, r := range results[name] {
					fmt.Printf(" %7.1f%%", r.SingleFailureShare()*100)
				}
				fmt.Println()
			}
		})
	}
}

func BenchmarkTableVIRepairRounds(b *testing.B) {
	settings := []lattice.Params{
		{Alpha: 1, S: 1, P: 0},
		{Alpha: 2, S: 2, P: 5},
		{Alpha: 3, S: 2, P: 5},
	}
	for i := 0; i < b.N; i++ {
		rows := make([][]int, len(settings))
		for si, params := range settings {
			s, err := sim.NewAE(params)
			if err != nil {
				b.Fatal(err)
			}
			rs, err := sim.Sweep(s, benchCfg)
			if err != nil {
				b.Fatal(err)
			}
			for _, r := range rs {
				rows[si] = append(rows[si], r.Rounds)
			}
		}
		printOnce("table6", func() {
			fmt.Println("\nTable VI: AE repair rounds (paper: 6/7/9/10/10, 3/6/9/17/30, 3/4/7/10/15)")
			for si, params := range settings {
				fmt.Printf("  %-10s %v\n", params, rows[si])
			}
		})
	}
}

func BenchmarkPlacementSpread(b *testing.B) {
	for i := 0; i < b.N; i++ {
		spread, err := sim.StripeSpread(benchCfg, 10, 4)
		if err != nil {
			b.Fatal(err)
		}
		mean, stddev, err := sim.BlocksPerLocation(benchCfg, 10, 4)
		if err != nil {
			b.Fatal(err)
		}
		printOnce("placement", func() {
			fmt.Printf("\n§V.C placement: RS(10,4) blocks/location mean=%.0f σ=%.2f (paper: 14000/130.88 at 1M)\n",
				mean, stddev)
			fmt.Print("  stripes by distinct locations:")
			for _, k := range sim.SpreadKeys(spread) {
				fmt.Printf(" %d:%d", k, spread[k])
			}
			fmt.Println()
		})
	}
}

func BenchmarkEntangledMirror(b *testing.B) {
	params := entmirror.Params{
		Pairs:   20,
		Disks:   failure.DiskLifetimes{MTTF: 100_000, MTTR: 2_000},
		Horizon: entmirror.FiveYearHours,
		Trials:  4000,
		Seed:    42,
	}
	for i := 0; i < b.N; i++ {
		results, err := entmirror.Compare(params)
		if err != nil {
			b.Fatal(err)
		}
		printOnce("mirror", func() {
			open, _ := entmirror.Reduction(results, entmirror.OpenChain)
			closed, _ := entmirror.Reduction(results, entmirror.ClosedChain)
			fmt.Printf("\n§IV.B.1 entangled mirror 5-year study: open %.1f%%, closed %.1f%% loss reduction (paper: ≈90%%/98%%)\n",
				open*100, closed*100)
		})
	}
}

// BenchmarkRepairBandwidth supplements Fig 13 with the §I traffic claim:
// repair reads per repaired data block across schemes.
func BenchmarkRepairBandwidth(b *testing.B) {
	names := []string{"RS(10,4)", "RS(4,12)", "AE(1,-,-)", "AE(3,2,5)", "3-way"}
	for i := 0; i < b.N; i++ {
		results := sweepAll(b)
		printOnce("bandwidth", func() {
			fmt.Println("\n§I repair bandwidth: blocks read per repaired data block")
			fmt.Printf("  %-10s %8s %8s %8s %8s %8s\n", "scheme", "10%", "20%", "30%", "40%", "50%")
			for _, name := range names {
				fmt.Printf("  %-10s", name)
				for _, r := range results[name] {
					fmt.Printf(" %8.2f", r.ReadAmplification())
				}
				fmt.Println()
			}
		})
	}
}

// --- ablations (design-choice studies beyond the paper's figures) ------

// BenchmarkAblationPlacement answers §V.C's open question: what does
// random placement cost compared to the round-robin policy the paper's
// earlier work assumed?
func BenchmarkAblationPlacement(b *testing.B) {
	s, err := sim.NewAE(lattice.Params{Alpha: 3, S: 2, P: 5})
	if err != nil {
		b.Fatal(err)
	}
	rr := benchCfg
	rr.Placement = sim.PlacementRoundRobin
	for i := 0; i < b.N; i++ {
		randRes, err := sim.Sweep(s, benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		rrRes, err := sim.Sweep(s, rr)
		if err != nil {
			b.Fatal(err)
		}
		printOnce("abl-placement", func() {
			fmt.Println("\nAblation: placement policy, AE(3,2,5) data loss (10–50%)")
			fmt.Print("  random:     ")
			for _, r := range randRes {
				fmt.Printf(" %6d", r.DataLoss)
			}
			fmt.Print("\n  round-robin:")
			for _, r := range rrRes {
				fmt.Printf(" %6d", r.DataLoss)
			}
			fmt.Println()
		})
	}
}

// BenchmarkAblationPuncturing evaluates the §III code-rate knob: a half-
// punctured LH class (250% storage) against AE(2,2,5) (200%) and
// AE(3,2,5) (300%).
func BenchmarkAblationPuncturing(b *testing.B) {
	params := lattice.Params{Alpha: 3, S: 2, P: 5}
	punct, err := sim.NewAEPunctured(params, func(ci, left int) bool {
		return ci == 2 && left%2 == 0
	}, "AE(3,2,5)-halfLH")
	if err != nil {
		b.Fatal(err)
	}
	ae2, err := sim.NewAE(lattice.Params{Alpha: 2, S: 2, P: 5})
	if err != nil {
		b.Fatal(err)
	}
	ae3, err := sim.NewAE(params)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		rows := make(map[string][]sim.Result, 3)
		for _, s := range []sim.Scheme{ae2, punct, ae3} {
			rs, err := sim.Sweep(s, benchCfg)
			if err != nil {
				b.Fatal(err)
			}
			rows[s.Name()] = rs
		}
		printOnce("abl-puncture", func() {
			fmt.Println("\nAblation: puncturing, data loss (10–50%)")
			for _, s := range []sim.Scheme{ae2, punct, ae3} {
				fmt.Printf("  %-18s AS=%3.0f%%:", s.Name(), s.AdditionalStorage()*100)
				for _, r := range rows[s.Name()] {
					fmt.Printf(" %6d", r.DataLoss)
				}
				fmt.Println()
			}
		})
	}
}

// BenchmarkAblationSP links Fig 8's |ME(2)| growth to live disaster
// behaviour: data loss at a 50% disaster falls as s and p rise.
func BenchmarkAblationSP(b *testing.B) {
	settings := []lattice.Params{
		{Alpha: 3, S: 2, P: 2},
		{Alpha: 3, S: 2, P: 5},
		{Alpha: 3, S: 3, P: 5},
		{Alpha: 3, S: 5, P: 5},
	}
	for i := 0; i < b.N; i++ {
		losses := make([]int, len(settings))
		rounds := make([]int, len(settings))
		for si, params := range settings {
			s, err := sim.NewAE(params)
			if err != nil {
				b.Fatal(err)
			}
			r, err := s.Simulate(benchCfg, 0.5)
			if err != nil {
				b.Fatal(err)
			}
			losses[si], rounds[si] = r.DataLoss, r.Rounds
		}
		printOnce("abl-sp", func() {
			fmt.Println("\nAblation: (s,p) vs 50% disaster (|ME(2)| = 2+p+2s in parentheses)")
			for si, params := range settings {
				fmt.Printf("  %-10s |ME(2)|=%2d: loss=%6d rounds=%d\n",
					params, 2+params.P+2*params.S, losses[si], rounds[si])
			}
		})
	}
}

// BenchmarkAblationLocations varies the failure-domain count, confirming
// the §V.C remark that comparisons remain close at larger n.
func BenchmarkAblationLocations(b *testing.B) {
	s, err := sim.NewAE(lattice.Params{Alpha: 3, S: 2, P: 5})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		losses := make(map[int]int, 3)
		for _, n := range []int{50, 100, 1000} {
			cfg := benchCfg
			cfg.Locations = n
			r, err := s.Simulate(cfg, 0.5)
			if err != nil {
				b.Fatal(err)
			}
			losses[n] = r.DataLoss
		}
		printOnce("abl-locations", func() {
			fmt.Printf("\nAblation: locations, AE(3,2,5) loss at 50%%: n=50:%d n=100:%d n=1000:%d\n",
				losses[50], losses[100], losses[1000])
		})
	}
}

// --- codec micro-benchmarks -------------------------------------------

const microBlockSize = 4096

func benchmarkEncodeAE(b *testing.B, params aecodes.Params) {
	b.Helper()
	code, err := aecodes.New(params, microBlockSize)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, microBlockSize)
	rand.New(rand.NewSource(1)).Read(data)
	b.SetBytes(microBlockSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := code.Entangle(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeAE1(b *testing.B) { benchmarkEncodeAE(b, aecodes.Params{Alpha: 1, S: 1, P: 0}) }
func BenchmarkEncodeAE2(b *testing.B) { benchmarkEncodeAE(b, aecodes.Params{Alpha: 2, S: 2, P: 5}) }
func BenchmarkEncodeAE3(b *testing.B) { benchmarkEncodeAE(b, aecodes.Params{Alpha: 3, S: 2, P: 5}) }

func benchmarkEncodeRS(b *testing.B, k, m int) {
	b.Helper()
	code, err := reedsolomon.New(k, m)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	shards := make([][]byte, k)
	for i := range shards {
		shards[i] = make([]byte, microBlockSize)
		rng.Read(shards[i])
	}
	b.SetBytes(int64(k * microBlockSize))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := code.Encode(shards); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeRS10_4(b *testing.B) { benchmarkEncodeRS(b, 10, 4) }
func BenchmarkEncodeRS4_12(b *testing.B) { benchmarkEncodeRS(b, 4, 12) }

// BenchmarkRepairSingleFailureAE3 measures AE's fixed two-block repair.
func BenchmarkRepairSingleFailureAE3(b *testing.B) {
	code, err := aecodes.New(aecodes.Params{Alpha: 3, S: 2, P: 5}, microBlockSize)
	if err != nil {
		b.Fatal(err)
	}
	store := aecodes.NewMemoryStore(microBlockSize)
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, microBlockSize)
	for i := 1; i <= 100; i++ {
		rng.Read(data)
		ent, err := code.Entangle(data)
		if err != nil {
			b.Fatal(err)
		}
		if err := store.PutData(bg, ent.Index, data); err != nil {
			b.Fatal(err)
		}
		for _, p := range ent.Parities {
			if err := store.PutParity(bg, p.Edge, p.Data); err != nil {
				b.Fatal(err)
			}
		}
	}
	store.LoseData(50)
	b.SetBytes(microBlockSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := code.RepairData(bg, store, 50); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRepairSingleFailureRS10_4 measures RS's k-block repair of the
// same failure — the Table IV "SF" cost asymmetry in wall-clock form.
func BenchmarkRepairSingleFailureRS10_4(b *testing.B) {
	const k, m = 10, 4
	code, err := reedsolomon.New(k, m)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	data := make([][]byte, k)
	for i := range data {
		data[i] = make([]byte, microBlockSize)
		rng.Read(data[i])
	}
	parities, err := code.Encode(data)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(microBlockSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shards := make([][]byte, k+m)
		copy(shards, data)
		copy(shards[k:], parities)
		shards[5] = nil
		if _, err := code.Reconstruct(shards); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkXorBlock(b *testing.B) {
	x := make([]byte, microBlockSize)
	y := make([]byte, microBlockSize)
	dst := make([]byte, microBlockSize)
	rand.New(rand.NewSource(1)).Read(x)
	rand.New(rand.NewSource(2)).Read(y)
	b.SetBytes(microBlockSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := xorblock.XorInto(dst, x, y); err != nil {
			b.Fatal(err)
		}
	}
}

// --- pipeline benchmarks ---------------------------------------------

// pipeBlockSize is the 1 MiB block size of the encode-throughput
// acceptance target: pipelined AE(3,5,5) encode must beat sequential by
// ≥2× (compare BenchmarkEncodeSequentialAE355 with
// BenchmarkEncodePipelinedAE355 MB/s).
const pipeBlockSize = 1 << 20

// pipeBatch is how many blocks one benchmark iteration encodes.
const pipeBatch = 32

var pipeParams = lattice.Params{Alpha: 3, S: 5, P: 5}

// BenchmarkEncodeSequentialAE355 is the single-goroutine baseline:
// allocation-free EntangleInto, one strand op at a time.
func BenchmarkEncodeSequentialAE355(b *testing.B) {
	enc, err := entangle.NewEncoder(pipeParams, pipeBlockSize)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, pipeBlockSize)
	rand.New(rand.NewSource(1)).Read(data)
	bufs := make([][]byte, pipeParams.Alpha)
	for i := range bufs {
		bufs[i] = make([]byte, pipeBlockSize)
	}
	b.SetBytes(int64(pipeBlockSize) * pipeBatch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < pipeBatch; j++ {
			if _, err := enc.EntangleInto(data, bufs); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkEncodePipelinedAE355 runs the same workload through the strand-
// sharded worker pipeline with pooled buffers.
func BenchmarkEncodePipelinedAE355(b *testing.B) {
	enc, err := entangle.NewEncoder(pipeParams, pipeBlockSize)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, pipeBlockSize)
	rand.New(rand.NewSource(1)).Read(data)
	pool := xorblock.PoolFor(pipeBlockSize)
	fill := func(_ int, buf []byte) { copy(buf, data) }
	b.SetBytes(int64(pipeBlockSize) * pipeBatch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pipeline.EncodePooled(bg, enc, pipeBatch, fill, pipeline.NullSink{}, pool, pipeline.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchmarkRepairRound measures whole-lattice round-based repair latency
// after a 30% correlated failure, serial vs parallel planning, with the
// most fetched block bytes the repair held at once (peak-MiB/op): at most
// one window of a round.
func benchmarkRepairRound(b *testing.B, workers int) {
	const n, blockSize = 400, 32 << 10
	params := lattice.Params{Alpha: 3, S: 2, P: 5}
	lat, err := lattice.New(params)
	if err != nil {
		b.Fatal(err)
	}
	rep, err := entangle.NewRepairer(params, blockSize)
	if err != nil {
		b.Fatal(err)
	}
	build := func() *entangle.MemoryStore {
		enc, err := entangle.NewEncoder(params, blockSize)
		if err != nil {
			b.Fatal(err)
		}
		store := entangle.NewMemoryStore(blockSize)
		data := make([]byte, blockSize)
		rng := rand.New(rand.NewSource(7))
		for i := 1; i <= n; i++ {
			rng.Read(data)
			ent, err := enc.Entangle(data)
			if err != nil {
				b.Fatal(err)
			}
			if err := store.PutData(bg, ent.Index, data); err != nil {
				b.Fatal(err)
			}
			for _, p := range ent.Parities {
				if err := store.PutParity(bg, p.Edge, p.Data); err != nil {
					b.Fatal(err)
				}
			}
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
						b.Fatal(err)
					}
					store.LoseParity(e)
				}
			}
		}
		return store
	}
	var peak int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		held := &storetest.Held{BlockStore: build()}
		b.StartTimer()
		if _, err := rep.Repair(bg, held, entangle.Options{Workers: workers}); err != nil {
			b.Fatal(err)
		}
		peak = max(peak, held.Peak())
	}
	b.ReportMetric(float64(peak*blockSize)/(1<<20), "peak-MiB/op")
}

func BenchmarkRepairRoundsSerial(b *testing.B)   { benchmarkRepairRound(b, 1) }
func BenchmarkRepairRoundsParallel(b *testing.B) { benchmarkRepairRound(b, 8) }

// BenchmarkArchiveRead streams an archive back out of a segstore.Lattice
// in 1 MiB Read calls at three block sizes, clean and with 15 % of its
// data blocks and of its parities deleted. The small sizes show what a
// goroutine hand-off per window costs where a window is only 64 KiB; the
// damaged 1 MiB case shows a window's missing blocks decoded in one batch.
// The damage spares the last pp-tuple of every deleted data block, so the
// stream always completes and some blocks need their second or third
// tuple.
func BenchmarkArchiveRead(b *testing.B) {
	params := aecodes.Params{Alpha: 3, S: 2, P: 5}
	for _, size := range []struct {
		name              string
		blockSize, blocks int
	}{{"4KiB", 4 << 10, 1024}, {"64KiB", 64 << 10, 256}, {"1MiB", 1 << 20, 64}} {
		seg, err := segstore.Open(b.TempDir(), segstore.Options{})
		if err != nil {
			b.Fatal(err)
		}
		view, err := segstore.NewLattice(seg, segstore.Shape{Params: params, BlockSize: size.blockSize})
		if err != nil {
			b.Fatal(err)
		}
		code, err := aecodes.New(params, size.blockSize)
		if err != nil {
			b.Fatal(err)
		}
		payload := make([]byte, size.blocks*(size.blockSize-8))
		rand.New(rand.NewSource(1)).Read(payload)
		w, err := aecodes.NewArchiveWriter(code, view, aecodes.ArchiveOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := w.Write(payload); err != nil {
			b.Fatal(err)
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
		read := func(b *testing.B) {
			buf := make([]byte, 1<<20)
			b.SetBytes(int64(len(payload)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := aecodes.OpenArchive(code, view)
				total := 0
				for {
					n, err := r.Read(buf)
					total += n
					if errors.Is(err, io.EOF) {
						break
					}
					if err != nil {
						b.Fatal(err)
					}
				}
				if total != len(payload) {
					b.Fatalf("read %d bytes of %d", total, len(payload))
				}
			}
		}
		b.Run(size.name+"/clean", read)

		rng := rand.New(rand.NewSource(2))
		spared := make(map[aecodes.Edge]bool)
		for i := 1; i <= size.blocks; i++ {
			if rng.Float64() < 0.15 {
				seg.Del(aecodes.DataRef(i).String())
				tuples, err := code.Lattice().Tuples(i)
				if err != nil {
					b.Fatal(err)
				}
				last := tuples[len(tuples)-1]
				spared[last.In], spared[last.Out] = true, true
			}
		}
		for i := 1; i <= size.blocks; i++ {
			tuples, err := code.Lattice().Tuples(i)
			if err != nil {
				b.Fatal(err)
			}
			for _, tu := range tuples {
				if !spared[tu.Out] && rng.Float64() < 0.15 {
					seg.Del(aecodes.ParityRef(tu.Out).String())
				}
			}
		}
		b.Run(size.name+"/damaged", read)
		if err := seg.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDisasterRecoveryAE3Paper runs the paper-scale experiment (1M
// blocks, 50% disaster) once per iteration — the heavyweight headline.
func BenchmarkDisasterRecoveryAE3Paper(b *testing.B) {
	if testing.Short() {
		b.Skip("1M-block simulation skipped with -short")
	}
	s, err := sim.NewAE(lattice.Params{Alpha: 3, S: 2, P: 5})
	if err != nil {
		b.Fatal(err)
	}
	cfg := sim.Config{DataBlocks: 1_000_000, Locations: 100, Seed: 1}
	for i := 0; i < b.N; i++ {
		r, err := s.Simulate(cfg, 0.5)
		if err != nil {
			b.Fatal(err)
		}
		printOnce("paper1m", func() {
			fmt.Printf("\n1M-block AE(3,2,5) at 50%%: loss=%d rounds=%d (Fig 11 headline cell)\n",
				r.DataLoss, r.Rounds)
		})
	}
}
