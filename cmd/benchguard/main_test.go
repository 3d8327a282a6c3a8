package main

import (
	"strings"
	"testing"
)

// captured is `go test -run '^$' -bench ... -cpu 1,2 -count 3 ./...`
// output as the guard reads it: several packages, GOMAXPROCS suffixes,
// sub-benchmarks, custom ReportMetric units, -benchmem columns, and a
// benchmark's own print between result lines.
const captured = `goos: linux
goarch: amd64
pkg: aecodes
cpu: Intel(R) Xeon(R) Processor
BenchmarkEncodeSequentialAE355     	      32	  34795124 ns/op	 964.35 MB/s	       0 B/op	       0 allocs/op
BenchmarkEncodeSequentialAE355     	      33	  33795124 ns/op	 992.88 MB/s	       0 B/op	       0 allocs/op
BenchmarkEncodeSequentialAE355     	      31	  36795124 ns/op	 911.93 MB/s	       0 B/op	       0 allocs/op
BenchmarkEncodeSequentialAE355-2   	      33	  34001200 ns/op	 986.84 MB/s	       0 B/op	       0 allocs/op
BenchmarkEncodeSequentialAE355-2   	      34	  33500000 ns/op	1001.59 MB/s	       0 B/op	       0 allocs/op
BenchmarkEncodeSequentialAE355-2   	      33	  34100000 ns/op	 983.94 MB/s	       0 B/op	       0 allocs/op
BenchmarkRepairRoundsSerial        	      58	  20581443 ns/op	         5.500 peak-MiB/op	 7001234 B/op	   21345 allocs/op
BenchmarkRepairRoundsSerial        	      57	  20981443 ns/op	         5.500 peak-MiB/op	 7001236 B/op	   21346 allocs/op
BenchmarkRepairRoundsSerial        	      56	  21581443 ns/op	         5.500 peak-MiB/op	 7001230 B/op	   21345 allocs/op
PASS
ok  	aecodes	21.093s
goos: linux
goarch: amd64
pkg: aecodes/internal/entangle
cpu: Intel(R) Xeon(R) Processor
BenchmarkRepairSeeds/targets       	     321	   3207637 ns/op	         1.864 read-blocks/repair
BenchmarkRepairSeeds/targets       	     330	   3107637 ns/op	         1.864 read-blocks/repair
BenchmarkRepairSeeds/targets       	     310	   3307637 ns/op	         1.864 read-blocks/repair
BenchmarkRepairSeeds/targets-2     	     357	   3303160 ns/op	         1.864 read-blocks/repair
BenchmarkRepairSeeds/targets-2     	     350	   3403160 ns/op	         1.864 read-blocks/repair
BenchmarkRepairSeeds/targets-2     	     360	   3203160 ns/op	         1.864 read-blocks/repair
PASS
ok  	aecodes/internal/entangle	10.765s
goos: linux
goarch: amd64
pkg: aecodes/internal/transport
cpu: Intel(R) Xeon(R) Processor
BenchmarkPutMany                   	     198	   5374609 ns/op	1560.78 MB/s	   8367849 p99-ns	   8405791 p999-ns
BenchmarkPutMany                   	     200	   5174609 ns/op	1621.11 MB/s	   9367849 p99-ns	   8305791 p999-ns
BenchmarkPutMany                   	     190	   5574609 ns/op	1504.92 MB/s	   8567849 p99-ns	   9405791 p999-ns
BenchmarkPutMany-2                 	     171	   6859456 ns/op	1222.93 MB/s	  16385747 p99-ns	  17241385 p999-ns
BenchmarkPutMany-2                 	     175	   6659456 ns/op	1259.66 MB/s	  16185747 p99-ns	  17041385 p999-ns
BenchmarkPutMany-2                 	     170	   6959456 ns/op	1205.36 MB/s	  16585747 p99-ns	  17441385 p999-ns
BenchmarkTransportBatched          	some output the benchmark printed
     217	   5697827 ns/op	 736.12 MB/s
PASS
ok  	aecodes/internal/transport	9.317s
`

func mustParse(t *testing.T, out string) map[string]metric {
	t.Helper()
	m, err := bestByKey(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestParseCapturedOutput pins the key (package, name with its
// GOMAXPROCS suffix, unit), best-sample folding over -count repeats in
// each unit's direction, and that nothing but result lines is read.
func TestParseCapturedOutput(t *testing.T) {
	got := mustParse(t, captured)
	want := map[string]float64{
		"aecodes.BenchmarkEncodeSequentialAE355 (ns/op)":                                33795124,
		"aecodes.BenchmarkEncodeSequentialAE355 (MB/s)":                                 992.88,
		"aecodes.BenchmarkEncodeSequentialAE355 (B/op)":                                 0,
		"aecodes.BenchmarkEncodeSequentialAE355 (allocs/op)":                            0,
		"aecodes.BenchmarkEncodeSequentialAE355-2 (ns/op)":                              33500000,
		"aecodes.BenchmarkEncodeSequentialAE355-2 (MB/s)":                               1001.59,
		"aecodes.BenchmarkEncodeSequentialAE355-2 (B/op)":                               0,
		"aecodes.BenchmarkEncodeSequentialAE355-2 (allocs/op)":                          0,
		"aecodes.BenchmarkRepairRoundsSerial (ns/op)":                                   20581443,
		"aecodes.BenchmarkRepairRoundsSerial (peak-MiB/op)":                             5.5,
		"aecodes.BenchmarkRepairRoundsSerial (B/op)":                                    7001230,
		"aecodes.BenchmarkRepairRoundsSerial (allocs/op)":                               21345,
		"aecodes/internal/entangle.BenchmarkRepairSeeds/targets (ns/op)":                3107637,
		"aecodes/internal/entangle.BenchmarkRepairSeeds/targets (read-blocks/repair)":   1.864,
		"aecodes/internal/entangle.BenchmarkRepairSeeds/targets-2 (ns/op)":              3203160,
		"aecodes/internal/entangle.BenchmarkRepairSeeds/targets-2 (read-blocks/repair)": 1.864,
		"aecodes/internal/transport.BenchmarkPutMany (ns/op)":                           5174609,
		"aecodes/internal/transport.BenchmarkPutMany (MB/s)":                            1621.11,
		"aecodes/internal/transport.BenchmarkPutMany (p99-ns)":                          8367849,
		"aecodes/internal/transport.BenchmarkPutMany (p999-ns)":                         8305791,
		"aecodes/internal/transport.BenchmarkPutMany-2 (ns/op)":                         6659456,
		"aecodes/internal/transport.BenchmarkPutMany-2 (MB/s)":                          1259.66,
		"aecodes/internal/transport.BenchmarkPutMany-2 (p99-ns)":                        16185747,
		"aecodes/internal/transport.BenchmarkPutMany-2 (p999-ns)":                       17041385,
	}
	for key, v := range want {
		m, ok := got[key]
		if !ok {
			t.Errorf("%s not parsed", key)
			continue
		}
		if m.value != v {
			t.Errorf("%s = %v, want the best sample %v", key, m.value, v)
		}
		if m.lowerBetter != (m.unit != "MB/s") {
			t.Errorf("%s compares in the wrong direction", key)
		}
	}
	for key := range got {
		if _, ok := want[key]; !ok {
			t.Errorf("unexpected key %s", key)
		}
	}
}

// run is go test -bench output of one package.
func run(pkg string, lines ...string) string {
	return "pkg: " + pkg + "\n" + strings.Join(lines, "\n") + "\nPASS\n"
}

func TestCompareFlagsOnlyRealRegressions(t *testing.T) {
	baseline := mustParse(t, run("aecodes",
		"BenchmarkEncodeSequentialAE355 30 1 ns/op 2000 MB/s",
		"BenchmarkEncodePipelinedAE355 30 1 ns/op 2800 MB/s",
		"BenchmarkRepairRoundsSerial 30 1 ns/op 1100 MB/s"))
	current := mustParse(t, run("aecodes",
		"BenchmarkEncodeSequentialAE355 30 1 ns/op 1800 MB/s", // -10%: within tolerance
		"BenchmarkEncodePipelinedAE355 30 1 ns/op 900 MB/s",   // -68%: regression
		"BenchmarkRepairRoundsSerial 30 1 ns/op 1300 MB/s"))   // improvement
	findings, onlyB, onlyC := compare(baseline, current, 0.5)
	if len(onlyB) != 0 || len(onlyC) != 0 {
		t.Fatalf("unmatched keys: %v / %v", onlyB, onlyC)
	}
	if len(findings) != 6 {
		t.Fatalf("got %d findings, want 6", len(findings))
	}
	byKey := map[string]bool{}
	for _, f := range findings {
		byKey[f.Key] = f.Regression
	}
	if byKey["aecodes.BenchmarkEncodeSequentialAE355 (MB/s)"] {
		t.Error("a drop within tolerance was flagged")
	}
	if !byKey["aecodes.BenchmarkEncodePipelinedAE355 (MB/s)"] {
		t.Error("a 68% drop was not flagged at 50% tolerance")
	}
	if byKey["aecodes.BenchmarkRepairRoundsSerial (MB/s)"] {
		t.Error("an improvement was flagged")
	}
}

// TestCompareTakesBestSample pins that -count repeats of one key fold to
// the best MB/s on both sides, so one noisy sample cannot fake or mask a
// regression.
func TestCompareTakesBestSample(t *testing.T) {
	baseline := mustParse(t, run("aecodes/internal/xorblock",
		"BenchmarkKernels/many3/avx2 100 1 ns/op 1100 MB/s",
		"BenchmarkKernels/many3/avx2 100 1 ns/op 1500 MB/s"))
	current := mustParse(t, run("aecodes/internal/xorblock",
		"BenchmarkKernels/many3/avx2 100 1 ns/op 400 MB/s",
		"BenchmarkKernels/many3/avx2 100 1 ns/op 1400 MB/s"))
	f := only(t, baseline, current, "aecodes/internal/xorblock.BenchmarkKernels/many3/avx2 (MB/s)")
	if f.Baseline != 1500 || f.Current != 1400 {
		t.Fatalf("best-sample folding wrong: %+v", f)
	}
	if f.Regression {
		t.Error("1400 vs 1500 at 50% tolerance flagged as regression")
	}
}

// only compares baseline with current and returns the finding for key.
func only(t *testing.T, baseline, current map[string]metric, key string) finding {
	t.Helper()
	findings, _, _ := compare(baseline, current, 0.5)
	for _, f := range findings {
		if f.Key == key {
			return f
		}
	}
	t.Fatalf("no finding for %s in %+v", key, findings)
	return finding{}
}

// TestCompareNsPerOpLowerIsBetter pins the latency comparison path:
// ns/op compares in the mirrored direction (a rise regresses, a drop
// never does) at the same relative tolerance as throughput.
func TestCompareNsPerOpLowerIsBetter(t *testing.T) {
	baseline := mustParse(t, run("aecodes/internal/cluster",
		"BenchmarkRouteLookup 1000 100 ns/op",
		"BenchmarkHeartbeat 1000 50000 ns/op",
		"BenchmarkPlacement 1000 4000 ns/op"))
	current := mustParse(t, run("aecodes/internal/cluster",
		"BenchmarkRouteLookup 1000 150 ns/op",  // +50%: within 1/(1-0.5) = 2×
		"BenchmarkHeartbeat 1000 150000 ns/op", // 3×: regression
		"BenchmarkPlacement 1000 1000 ns/op"))  // big improvement
	findings, onlyB, onlyC := compare(baseline, current, 0.5)
	if len(onlyB) != 0 || len(onlyC) != 0 {
		t.Fatalf("unmatched keys: %v / %v", onlyB, onlyC)
	}
	byKey := map[string]finding{}
	for _, f := range findings {
		if !f.LowerBetter || f.Unit != "ns/op" {
			t.Errorf("%s not compared as ns/op: %+v", f.Key, f)
		}
		byKey[f.Key] = f
	}
	if byKey["aecodes/internal/cluster.BenchmarkRouteLookup (ns/op)"].Regression {
		t.Error("a rise within tolerance was flagged")
	}
	if !byKey["aecodes/internal/cluster.BenchmarkHeartbeat (ns/op)"].Regression {
		t.Error("a 3× latency rise was not flagged at 50% tolerance")
	}
	if byKey["aecodes/internal/cluster.BenchmarkPlacement (ns/op)"].Regression {
		t.Error("a latency improvement was flagged")
	}
}

// TestCompareBestSampleNsPerOp pins that repeated ns/op samples fold to
// the LOWEST value on both sides — best-sample in the latency direction.
func TestCompareBestSampleNsPerOp(t *testing.T) {
	baseline := mustParse(t, run("aecodes/internal/cluster",
		"BenchmarkRouteLookup-2 1000 120 ns/op",
		"BenchmarkRouteLookup-2 1000 80 ns/op"))
	current := mustParse(t, run("aecodes/internal/cluster",
		"BenchmarkRouteLookup-2 1000 500 ns/op",
		"BenchmarkRouteLookup-2 1000 90 ns/op"))
	f := only(t, baseline, current, "aecodes/internal/cluster.BenchmarkRouteLookup-2 (ns/op)")
	if f.Baseline != 80 || f.Current != 90 {
		t.Fatalf("best-sample folding wrong for ns/op: %+v", f)
	}
	if f.Regression {
		t.Error("90 vs 80 ns/op at 50% tolerance flagged as regression")
	}
}

// TestCompareUnitChangeIsCoverageHole pins that a measurement switching
// units between runs surfaces as missing + new, never as a cross-unit
// comparison.
func TestCompareUnitChangeIsCoverageHole(t *testing.T) {
	baseline := mustParse(t, run("aecodes", "BenchmarkRepairRoundsSerial 50 1 ns/op 5.5 peak-MiB/op"))
	current := mustParse(t, run("aecodes", "BenchmarkRepairRoundsSerial 50 1 ns/op 5632 peak-KiB/op"))
	findings, onlyB, onlyC := compare(baseline, current, 0.5)
	if len(findings) != 1 || findings[0].Unit != "ns/op" {
		t.Fatalf("want only the ns/op finding: %+v", findings)
	}
	if len(onlyB) != 1 || onlyB[0] != "aecodes.BenchmarkRepairRoundsSerial (peak-MiB/op)" {
		t.Fatalf("baseline unit not reported missing: %v", onlyB)
	}
	if len(onlyC) != 1 || onlyC[0] != "aecodes.BenchmarkRepairRoundsSerial (peak-KiB/op)" {
		t.Fatalf("current unit not reported new: %v", onlyC)
	}
}

// TestCompareKeysByGoMaxProcs pins the like-for-like rule: results are
// matched per GOMAXPROCS suffix, and a parallelism level present on only
// one side is a coverage gap, never a cross-procs comparison.
func TestCompareKeysByGoMaxProcs(t *testing.T) {
	baseline := mustParse(t, run("aecodes/internal/transport",
		"BenchmarkPutMany 100 1 ns/op 600 MB/s",
		"BenchmarkPutMany-4 100 1 ns/op 2000 MB/s"))
	current := mustParse(t, run("aecodes/internal/transport",
		"BenchmarkPutMany 100 1 ns/op 900 MB/s",
		"BenchmarkPutMany-2 100 1 ns/op 1500 MB/s"))
	f := only(t, baseline, current, "aecodes/internal/transport.BenchmarkPutMany (MB/s)")
	if f.Baseline != 600 || f.Current != 900 {
		t.Fatalf("procs=1 entries not matched like-for-like: %+v", f)
	}
	findings, onlyB, onlyC := compare(baseline, current, 0.5)
	if len(findings) != 2 {
		t.Fatalf("got %d findings, want MB/s and ns/op at procs=1: %+v", len(findings), findings)
	}
	if len(onlyB) != 2 || !strings.Contains(onlyB[0], "BenchmarkPutMany-4 ") {
		t.Fatalf("baseline-only parallelism level not reported: %v", onlyB)
	}
	if len(onlyC) != 2 || !strings.Contains(onlyC[0], "BenchmarkPutMany-2 ") {
		t.Fatalf("new parallelism level not reported: %v", onlyC)
	}
}

// TestCompareZeroBaselineTolerance pins that a zero lower-is-better
// baseline (no allocations, no copies) tolerates no rise at all, while
// staying zero is never flagged.
func TestCompareZeroBaselineTolerance(t *testing.T) {
	const key = "aecodes.BenchmarkEncodeSequentialAE355 (allocs/op)"
	baseline := mustParse(t, run("aecodes", "BenchmarkEncodeSequentialAE355 30 1 ns/op 0 B/op 0 allocs/op"))
	clean := mustParse(t, run("aecodes", "BenchmarkEncodeSequentialAE355 30 1 ns/op 0 B/op 0 allocs/op"))
	findings, _, _ := compare(baseline, clean, 0.5)
	for _, f := range findings {
		if f.Regression {
			t.Errorf("unchanged zero baseline flagged: %+v", f)
		}
	}
	dirty := mustParse(t, run("aecodes", "BenchmarkEncodeSequentialAE355 30 1 ns/op 16 B/op 1 allocs/op"))
	if f := only(t, baseline, dirty, key); !f.Regression {
		t.Errorf("an allocation appearing on an allocation-free path was not flagged: %+v", f)
	}
}

// TestCompareP99LowerIsBetter pins the tail guard: p99-ns and p999-ns
// ride under their own keys next to the same benchmark's MB/s, a tail
// rise regresses even while throughput holds, and a baseline with tails
// that the current run never measured is a coverage hole.
func TestCompareP99LowerIsBetter(t *testing.T) {
	baseline := mustParse(t, run("aecodes/internal/transport",
		"BenchmarkPutMany 100 1 ns/op 900 MB/s 1000000 p99-ns 2000000 p999-ns"))
	current := mustParse(t, run("aecodes/internal/transport",
		"BenchmarkPutMany 100 1 ns/op 920 MB/s 5000000 p99-ns 2100000 p999-ns"))
	findings, onlyB, onlyC := compare(baseline, current, 0.5)
	if len(onlyB) != 0 || len(onlyC) != 0 {
		t.Fatalf("unmatched keys: %v / %v", onlyB, onlyC)
	}
	byKey := map[string]finding{}
	for _, f := range findings {
		byKey[f.Key] = f
	}
	const k = "aecodes/internal/transport.BenchmarkPutMany"
	if len(findings) != 4 {
		t.Fatalf("got %d findings, want ns/op + MB/s + p99 + p999: %+v", len(findings), findings)
	}
	if byKey[k+" (MB/s)"].Regression {
		t.Error("steady throughput flagged")
	}
	if p99 := byKey[k+" (p99-ns)"]; !p99.Regression || !p99.LowerBetter {
		t.Errorf("a 5x p99 rise at 50%% tolerance not flagged: %+v", p99)
	}
	if byKey[k+" (p999-ns)"].Regression {
		t.Error("a p999 rise within tolerance was flagged")
	}

	// A current run without tail figures leaves the guard blind: their
	// keys must surface as baseline-only coverage holes.
	blind := mustParse(t, run("aecodes/internal/transport", "BenchmarkPutMany 100 1 ns/op 920 MB/s"))
	_, onlyB, _ = compare(baseline, blind, 0.5)
	if len(onlyB) != 2 {
		t.Fatalf("missing tail measurements not reported as coverage holes: %v", onlyB)
	}
}

func TestCompareReportsNewMeasurements(t *testing.T) {
	baseline := mustParse(t, run("aecodes/internal/obs", "BenchmarkCounterAdd 1000 10 ns/op"))
	current := mustParse(t, run("aecodes/internal/obs",
		"BenchmarkCounterAdd 1000 10 ns/op",
		"BenchmarkRecordParallel-2 1000 13 ns/op"))
	_, _, onlyC := compare(baseline, current, 0.5)
	if len(onlyC) != 1 || onlyC[0] != "aecodes/internal/obs.BenchmarkRecordParallel-2 (ns/op)" {
		t.Fatalf("new measurement not reported: %v", onlyC)
	}
}
