// Command benchguard compares a `go test -bench` run against a committed
// baseline and reports regressions. It is the CI benchmark guard:
// shared runners are noisy, so by default it only warns (exit 0) and
// leaves failing the build to a human; -strict turns regressions into a
// non-zero exit for controlled environments.
//
// Usage:
//
//	go test -run '^$' -bench "$GUARDED_BENCH" -cpu 1,2 ./... > current.txt
//	benchguard -baseline BENCH.txt -current current.txt -tolerance 0.5 -github
//
// Every value a benchmark line reports is one measurement, keyed by the
// package (from the `pkg:` line above it), the benchmark name with go's
// -N GOMAXPROCS suffix, and the unit:
// "aecodes/internal/obs.BenchmarkRecordParallel-2 (ns/op)". So a 2-proc
// run is never compared against a 1-proc baseline, and a unit change
// surfaces as a coverage hole, never a cross-unit comparison. When
// either file carries several samples for one key (-count repeats) the
// best wins, which filters scheduler noise in the direction that avoids
// false alarms.
//
// MB/s is higher-is-better and regresses when it drops below baseline ×
// (1 - tolerance). Every other unit (ns/op, p99-ns, B/op, allocs/op,
// read-blocks/repair, ...) is lower-is-better and regresses when it
// rises above baseline ÷ (1 - tolerance), the same relative change
// mirrored; so a zero baseline tolerates no rise at all. Keys present
// only in the current run are informational; keys present only in the
// baseline mean the guard is blind to a committed measurement (e.g. a
// renamed benchmark), so they are annotated and fail a -strict run.
// -github renders findings as GitHub Actions workflow annotations.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// finding is one compared measurement.
type finding struct {
	Key        string
	Baseline   float64
	Current    float64
	Regression bool
	// LowerBetter marks every unit but MB/s, where a rise regresses.
	LowerBetter bool
	// Unit names the measurement unit for reports.
	Unit string
}

// metric is one folded measurement with its comparison direction.
type metric struct {
	value       float64
	lowerBetter bool
	unit        string
}

// bestByKey folds `go test -bench` output into the best sample per key:
// highest MB/s, lowest anything else. Lines that are not benchmark
// results (headers, PASS, ok, a benchmark's own prints) are skipped.
func bestByKey(r io.Reader) (map[string]metric, error) {
	best := make(map[string]metric)
	pkg := ""
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if p, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = strings.TrimSpace(p)
			continue
		}
		f := strings.Fields(line)
		if len(f) < 4 || len(f)%2 != 0 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		if _, err := strconv.ParseInt(f[1], 10, 64); err != nil {
			continue
		}
		for i := 2; i < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				break
			}
			m := metric{value: v, lowerBetter: f[i+1] != "MB/s", unit: f[i+1]}
			key := fmt.Sprintf("%s.%s (%s)", pkg, f[0], m.unit)
			if old, ok := best[key]; !ok || (m.lowerBetter && v < old.value) || (!m.lowerBetter && v > old.value) {
				best[key] = m
			}
		}
	}
	return best, sc.Err()
}

// regressed applies the tolerance in the metric's direction: MB/s may
// drop to baseline × (1 - tolerance), anything else may rise to the
// mirrored baseline ÷ (1 - tolerance). A lower-is-better baseline of
// zero (no allocations, say) gets no headroom at all.
func regressed(baseline, current metric, tolerance float64) bool {
	if baseline.lowerBetter {
		return current.value > baseline.value/(1-tolerance)
	}
	return current.value < baseline.value*(1-tolerance)
}

// compare evaluates current against baseline with the given relative
// tolerance, returning per-key findings sorted by key plus the keys
// present on only one side.
func compare(base, cur map[string]metric, tolerance float64) (findings []finding, onlyBaseline, onlyCurrent []string) {
	for key, b := range base {
		c, ok := cur[key]
		if !ok {
			onlyBaseline = append(onlyBaseline, key)
			continue
		}
		findings = append(findings, finding{
			Key:         key,
			Baseline:    b.value,
			Current:     c.value,
			Regression:  regressed(b, c, tolerance),
			LowerBetter: b.lowerBetter,
			Unit:        b.unit,
		})
	}
	for key := range cur {
		if _, ok := base[key]; !ok {
			onlyCurrent = append(onlyCurrent, key)
		}
	}
	sort.Slice(findings, func(i, j int) bool { return findings[i].Key < findings[j].Key })
	sort.Strings(onlyBaseline)
	sort.Strings(onlyCurrent)
	return findings, onlyBaseline, onlyCurrent
}

func readRun(path string) (map[string]metric, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	best, err := bestByKey(f)
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	return best, nil
}

func main() {
	var (
		baselinePath = flag.String("baseline", "", "committed go test -bench output")
		currentPath  = flag.String("current", "", "fresh go test -bench output to check")
		tolerance    = flag.Float64("tolerance", 0.5, "allowed relative change in the worse direction before a measurement counts as a regression")
		github       = flag.Bool("github", false, "emit GitHub Actions ::warning:: / ::error:: annotations")
		strict       = flag.Bool("strict", false, "exit 1 on regression instead of warning only")
	)
	flag.Parse()
	if *baselinePath == "" || *currentPath == "" {
		fmt.Fprintln(os.Stderr, "benchguard: -baseline and -current are required")
		os.Exit(2)
	}
	if *tolerance < 0 || *tolerance >= 1 {
		fmt.Fprintln(os.Stderr, "benchguard: -tolerance must be in [0, 1)")
		os.Exit(2)
	}
	baseline, err := readRun(*baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(2)
	}
	current, err := readRun(*currentPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(2)
	}

	findings, onlyBaseline, onlyCurrent := compare(baseline, current, *tolerance)
	regressions := 0
	fmt.Printf("benchguard: baseline %s vs current %s, tolerance %.0f%%\n",
		*baselinePath, *currentPath, *tolerance*100)
	for _, f := range findings {
		verdict := "ok"
		if f.Regression {
			verdict = "REGRESSION"
			regressions++
		}
		delta := "n/a" // a zero baseline has no relative change
		if f.Baseline != 0 {
			delta = fmt.Sprintf("%+.1f%%", (f.Current/f.Baseline-1)*100)
		}
		fmt.Printf("  %-72s baseline %13.2f  current %13.2f  (%s)  %s\n",
			f.Key, f.Baseline, f.Current, delta, verdict)
		if f.Regression && *github {
			// Warn-only runs annotate as warnings; under -strict the job
			// will fail, so the annotation matches at error level.
			level := "warning"
			if *strict {
				level = "error"
			}
			worsened := "dropped"
			if f.LowerBetter {
				worsened = "rose"
			}
			fmt.Printf("::%s title=Benchmark regression::%s %s to %.2f %s (baseline %.2f %s, tolerance %.0f%%)\n",
				level, f.Key, worsened, f.Current, f.Unit, f.Baseline, f.Unit, *tolerance*100)
		}
	}
	// A baseline measurement the current run never made is a hole in the
	// guard (a renamed benchmark would silently go unwatched), so it is
	// annotated like a regression and fails a -strict run.
	for _, key := range onlyBaseline {
		fmt.Printf("  %-72s in baseline only (benchmark not run)\n", key)
		if *github {
			fmt.Printf("::warning title=Benchmark coverage::baseline measurement %s was not made by this run — regression guard is blind to it\n", key)
		}
	}
	for _, key := range onlyCurrent {
		fmt.Printf("  %-72s new measurement (no baseline)\n", key)
	}
	if regressions == 0 && len(onlyBaseline) == 0 {
		fmt.Println("benchguard: no regressions")
		return
	}
	fmt.Printf("benchguard: %d regression(s), %d unmeasured baseline measurement(s)\n", regressions, len(onlyBaseline))
	if *strict {
		os.Exit(1)
	}
}
