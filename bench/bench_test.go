package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"aecodes/internal/lattice"
)

// TestWorkloadsSmallScale runs all four workloads at 1/64 scale, child
// processes included, untraced and traced, and checks that every metric
// BENCHMARK.json declares comes out present and finite and that the last
// line is the object the driver reads — so a renamed or dropped metric
// fails here and not in the driver.
func TestWorkloadsSmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs child processes")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	b := &bench{spec: spec, root: root, reap: newReaper(), scale: 64, out: &out}
	t.Cleanup(b.cleanup)
	if err := b.prepare(t.TempDir(), t.TempDir()); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads() {
		for _, trace := range []bool{false, true} {
			out.Reset()
			res, err := b.run(context.Background(), w, 1, 0, trace)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.correct() {
				t.Errorf("%s trace=%v: %d of %d checks failed: %v", w.name, trace, res.failed, res.attempted, res.failures)
			}
			if err := b.report(res, trace); err != nil {
				t.Errorf("%s trace=%v: %v", w.name, trace, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var final map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &final); err != nil {
				t.Fatalf("%s trace=%v: last line is not JSON: %v", w.name, trace, err)
			}
			if len(final) != 4 || final["correct"] == nil || final["attempted"] == nil || final["failed"] == nil || final["metrics"] == nil {
				t.Errorf("%s trace=%v: last line has keys %v, want correct, attempted, failed, metrics", w.name, trace, keysOf(final))
			}
			if !trace {
				continue
			}
			// The predictions that hold by construction: a layer the
			// workload bypasses did nothing.
			for name, v := range res.perLayer {
				layer, _, _ := strings.Cut(name, ".")
				if (res.bypassed[name] || (!w.durable && layer == "segstore")) && v != 0 {
					t.Errorf("%s: %s = %v on a workload that bypasses %s", w.name, name, v, layer)
				}
			}
			if !w.fleet && !res.bypassed["transport.putmany_rtt_us_p50"] {
				t.Errorf("%s: transport.* not marked as bypassed", w.name)
			}
			for _, phase := range timedPhases {
				var sum, total float64
				for _, row := range res.budget {
					if row.phase != phase {
						continue
					}
					sum += row.seconds
					if row.layer != "unattributed" {
						total += row.seconds
					}
				}
				if sum <= 0 || total <= 0 {
					t.Errorf("%s: phase %s has an empty time budget", w.name, phase)
				}
			}
		}
	}
}

func TestPickDamageKeepsOneTuplePerBlock(t *testing.T) {
	lat, err := lattice.New(codeParams)
	if err != nil {
		t.Fatal(err)
	}
	for _, withData := range []bool{false, true} {
		for seed := uint64(1); seed <= 20; seed++ {
			const n = 200
			d, err := pickDamage(lat, n, withData, newRand(seed))
			if err != nil {
				t.Fatal(err)
			}
			stored := n * codeParams.Alpha
			if withData {
				stored += n
			}
			if want := int(damageShare*float64(stored) + 0.5); d.blocks() != want {
				t.Fatalf("seed %d: %d deletions, want %d", seed, d.blocks(), want)
			}
			if !withData && len(d.data) != 0 {
				t.Fatalf("seed %d: data blocks deleted from a store that holds none", seed)
			}
			gone := map[lattice.Edge]bool{}
			for _, e := range d.parities {
				if gone[e] {
					t.Fatalf("seed %d: parity %v deleted twice", seed, e)
				}
				gone[e] = true
			}
			for i := 1; i <= n; i++ {
				tuples, err := lat.Tuples(i)
				if err != nil {
					t.Fatal(err)
				}
				intact := 0
				for _, tp := range tuples {
					if (tp.In.IsVirtual() || !gone[tp.In]) && !gone[tp.Out] {
						intact++
					}
				}
				if intact == 0 {
					t.Fatalf("seed %d: block %d has no complete pp-tuple left", seed, i)
				}
			}
		}
	}
}

func TestPickDamageIsSeeded(t *testing.T) {
	lat, err := lattice.New(codeParams)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := pickDamage(lat, 100, true, newRand(7, 1))
	b, _ := pickDamage(lat, 100, true, newRand(7, 1))
	c, _ := pickDamage(lat, 100, true, newRand(8, 1))
	if len(a.parities) == 0 || !equalDamage(a, b) {
		t.Error("the same seed gave different damage")
	}
	if equalDamage(a, c) {
		t.Error("different seeds gave the same damage")
	}
}

func equalDamage(a, b damage) bool {
	if len(a.data) != len(b.data) || len(a.parities) != len(b.parities) {
		return false
	}
	for i := range a.data {
		if a.data[i] != b.data[i] {
			return false
		}
	}
	for i := range a.parities {
		if a.parities[i] != b.parities[i] {
			return false
		}
	}
	return true
}

// TestFoldPhaseSelfTime checks the rule the budget rests on: an op's
// self time is its duration minus the union of child spans clipped to it.
func TestFoldPhaseSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "op", Phase: "p", Client: 0, Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Phase: "p", Client: 0, Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Phase: "p", Client: 0, Start: 30, End: 60},  // overlaps a
		{ID: 4, Parent: 1, Name: "a", Phase: "p", Client: 0, Start: 90, End: 130}, // outlives the op
		{ID: 5, Parent: 0, Name: "op", Phase: "p", Client: 0, Start: 120, End: 200},
		{ID: 6, Parent: 0, Name: "op", Phase: "p", Client: 1, Start: 0, End: 50}, // another client: no children
		{ID: 7, Parent: 0, Name: "op", Phase: "other", Client: 0, Start: 0, End: 1000},
	}
	pt := foldPhase(spans, "p")
	if got := pt.count["op"]; got != 3 {
		t.Errorf("op count = %d, want 3", got)
	}
	// Op 1: covered [10,60] and [90,100] = 60, self 40. Op 5: covered
	// [120,130] = 10, self 70. Op 6: self 50.
	if got := pt.self["op"]; got != 40+70+50 {
		t.Errorf("op self = %d, want 160", got)
	}
	if got := pt.opTime(); got != 100+80+50 {
		t.Errorf("op time = %d, want 230", got)
	}
	if pt.opsWith["a"] != 1 || pt.opsWith["b"] != 1 {
		t.Errorf("opsWith = %v, want a:1 b:1", pt.opsWith)
	}
	if got := pt.total["a"]; got != 30+40 {
		t.Errorf("total of a = %d, want 70", got)
	}
}

func TestCheckEmitted(t *testing.T) {
	spec := &benchSpec{EndToEnd: []metricDecl{{Name: "a"}, {Name: "b"}}, PerLayer: []metricDecl{{Name: "c"}}}
	// An untraced run computes values of both lists and prints the first.
	if err := spec.checkEmitted(spec.EndToEnd, map[string]float64{"a": 1, "b": 0, "c": 3}); err != nil {
		t.Errorf("declared values rejected: %v", err)
	}
	for name, got := range map[string]map[string]float64{
		"missing":    {"a": 1},
		"undeclared": {"a": 1, "b": 2, "d": 3},
		"NaN":        {"a": 1, "b": math.NaN()},
		"Inf":        {"a": math.Inf(1), "b": 2},
	} {
		if err := spec.checkEmitted(spec.EndToEnd, got); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestEveryLayerMetricSaysWhatItMoves(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.PerLayer {
		if layerMoves[m.Name] == "" {
			t.Errorf("per-layer metric %s has no entry in layerMoves", m.Name)
		}
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricDecl(nil), spec.EndToEnd...), spec.PerLayer...) {
		if seen[m.Name] {
			t.Errorf("metric %s declared twice", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better is %q", m.Name, m.Better)
		}
	}
}

func TestTypical(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{4}, 4},
		{[]float64{1, 2, 6}, 3},          // too few to drop any
		{[]float64{100, 2, 4, 0}, 3},     // extremes dropped
		{[]float64{5, 1, 1, 9, 3, 3}, 3}, // (1+3+3+5)/4
	} {
		if got := typical(c.xs); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("typical(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// TestAtReferenceSpeed checks the rescaling rule: on a machine at 0.8 of
// the reference speed durations shrink by that factor, rates grow by it,
// and counts stay.
func TestAtReferenceSpeed(t *testing.T) {
	spec := &benchSpec{
		EndToEnd: []metricDecl{{Name: "lat", Unit: "ms"}, {Name: "rate", Unit: "MB/s"}},
		PerLayer: []metricDecl{{Name: "n", Unit: "count"}, {Name: "absent", Unit: "us"}},
	}
	vals := map[string]float64{"lat": 10, "rate": 80, "n": 7}
	spec.atReferenceSpeed(vals, 0.8)
	for name, want := range map[string]float64{"lat": 8, "rate": 100, "n": 7} {
		if math.Abs(vals[name]-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, vals[name], want)
		}
	}
	if _, ok := vals["absent"]; ok {
		t.Error("a metric the lifecycle did not measure appeared")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for q, want := range map[float64]float64{0: 1, 0.5: 3, 1: 5, 0.25: 2, 0.9: 4.6} {
		if got := quantile(xs, q); math.Abs(got-want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if xs[0] != 5 {
		t.Error("quantile sorted its input")
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of nothing is not 0")
	}
}
