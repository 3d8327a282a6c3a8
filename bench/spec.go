package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// metricDecl is one metric as BENCHMARK.json declares it. Bound is set on
// end-to-end metrics only.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json: the contract between this benchmark and
// whoever compares two runs of it.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

// timePower says how a value in each unit this benchmark uses scales with
// the time operations take: 1 for a duration, -1 for a rate, 0 for a
// count, a size or a ratio of two durations.
var timePower = map[string]int{
	"s": 1, "ms": 1, "us": 1, "ns": 1, "s/GiB": 1,
	"MB/s": -1, "1/s": -1,
	"count": 0, "share": 0, "ratio": 0, "B/B": 0, "MiB": 0, "1/MiB": 0,
}

// atReferenceSpeed rescales what was measured on a machine running at
// speed times the reference speed to what the reference speed would have
// given: durations shrink by the factor the machine was slow by, rates
// grow by it, counts and sizes stay.
func (s *benchSpec) atReferenceSpeed(vals map[string]float64, speed float64) {
	for _, list := range [][]metricDecl{s.EndToEnd, s.PerLayer} {
		for _, m := range list {
			if v, ok := vals[m.Name]; ok {
				vals[m.Name] = v * math.Pow(speed, float64(timePower[m.Unit]))
			}
		}
	}
}

func loadSpec(root string) (*benchSpec, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	names := map[string]bool{}
	for _, w := range workloads() {
		names[w.name] = true
	}
	for _, w := range s.Workloads {
		if !names[w.Name] {
			return nil, fmt.Errorf("BENCHMARK.json names workload %q, which this benchmark does not have", w.Name)
		}
		delete(names, w.Name)
	}
	if len(names) > 0 {
		return nil, fmt.Errorf("BENCHMARK.json omits workloads %v", keysOf(names))
	}
	for _, list := range [][]metricDecl{s.EndToEnd, s.PerLayer} {
		for _, m := range list {
			if _, known := timePower[m.Unit]; !known {
				return nil, fmt.Errorf("BENCHMARK.json: metric %s has unit %q, and this benchmark does not know how that scales with machine speed", m.Name, m.Unit)
			}
		}
	}
	return &s, nil
}

func keysOf[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// layerMoves says, for each per-layer metric, which end-to-end metric it
// should move and on which workload: the prediction written down before
// measuring. BENCHMARK.json's schema has no field for it, so it lives
// beside the code that computes the metric.
var layerMoves = map[string]string{
	"xorblock.xor3_ns_per_block":   "ingest_mb_s on archive_1m; no change on fleet_*",
	"entangle.encode_ns_per_block": "ingest_mb_s on archive_1m; no change on fleet_*",
	"pipeline.encode_mb_s":         "ingest_mb_s on archive_1m; no change on fleet_*",
	"pipeline.store_wait_share":    "ingest_mb_s on archive_1m",

	"archive.put_calls_per_block":               "ingest_mb_s on archive_1m",
	"archive.get_calls_per_block":               "restore_mb_s on archive_1m",
	"archive.degraded_parity_fetches_per_block": "degraded_p50_ms on archive_1m",

	"entangle.repair_rounds":  "repair_blocks_s everywhere",
	"entangle.repair_self_s":  "repair_blocks_s everywhere",
	"entangle.repair_store_s": "repair_blocks_s everywhere",

	"cooperative.backup_self_us":            "ingest_p50_ms on fleet_4k",
	"cooperative.read_self_us":              "restore_p50_ms on fleet_*",
	"cooperative.frames_per_backup":         "ingest_p50_ms on fleet_4k",
	"cooperative.fetches_per_read":          "restore_p50_ms on fleet_*",
	"cooperative.degraded_fetches_per_read": "degraded_p50_ms on fleet_*",
	"cooperative.read_fallback_repairs":     "degraded_p99_ms on fleet_*",

	"cluster.route_ns_per_call":     "ingest_p50_ms on fleet_4k",
	"cluster.route_calls_per_block": "ingest_p50_ms on fleet_4k",
	"cluster.manager_roundtrips":    "ingest_p99_ms on fleet_* (a table miss adds a round trip every 64 blocks)",
	"cluster.placements":            "ingest_p99_ms on fleet_*",

	"transport.putmany_rtt_us_p50":     "ingest_p50_ms on fleet_64k and fleet_mem_64k together",
	"transport.putmany_rtt_us_p99":     "ingest_p99_ms on fleet_64k and fleet_mem_64k together",
	"transport.get_rtt_us_p50":         "restore_p50_ms on fleet_*",
	"transport.get_rtt_us_p99":         "restore_p99_ms on fleet_*",
	"transport.getmany_rtt_us_p50":     "repair_blocks_s on fleet_*",
	"transport.statmany_rtt_us_p50":    "repair_blocks_s on fleet_*",
	"transport.putmany_server_us_mean": "ingest_p50_ms on fleet_*",
	"transport.get_server_us_mean":     "restore_p50_ms on fleet_*",
	"transport.putmany_wire_us_mean":   "ingest_mb_s on fleet_64k and fleet_mem_64k together",
	"transport.get_wire_us_mean":       "restore_mb_s on fleet_64k and fleet_mem_64k together",
	"transport.framepool_hit_share":    "cpu_s_per_user_gib on fleet_*",
	"transport.retries":                "failed ops; ingest_p99_ms",
	"transport.redials":                "failed ops (the durability check's restart accounts for the baseline)",
	"transport.timeouts":               "failed ops",

	"tenant.putmany_overhead_us_mean":  "ingest_p50_ms on fleet_4k",
	"tenant.quota_refused":             "failed ops",
	"tenant.usage_bytes_per_user_byte": "stored_bytes_per_user_byte",

	"segstore.append_us_mean":             "ingest_* on fleet_64k, fleet_4k, archive_1m; 0 on fleet_mem_64k",
	"segstore.sync_us_mean":               "ingest_* on fleet_64k, fleet_4k, archive_1m; 0 on fleet_mem_64k",
	"segstore.syncs_per_user_mib":         "ingest_p50_ms on fleet_4k (group commit lowers it)",
	"segstore.append_bytes_per_user_byte": "stored_bytes_per_user_byte",
	"segstore.read_us_mean":               "restore_* on fleet_64k, fleet_4k, archive_1m",
	"segstore.compact_runs":               "ingest_p99_ms, repair_blocks_s",
	"segstore.compact_s":                  "ingest_p99_ms, repair_blocks_s",
	"segstore.dead_bytes_share":           "stored_bytes_per_user_byte",
	"segstore.disk_bytes_per_live_byte":   "stored_bytes_per_user_byte",
	"segstore.recover_s":                  "none end to end; a node's restart time",

	"proc.client_cpu_s_per_user_gib": "cpu_s_per_user_gib: the client's side",
	"proc.nodes_cpu_s_per_user_gib":  "cpu_s_per_user_gib: the nodes' side",
	"proc.manager_cpu_s":             "cpu_s_per_user_gib",
	"proc.client_peak_rss_mib":       "peak_rss_mib: the client's side",
	"proc.nodes_peak_rss_mib":        "peak_rss_mib: the nodes' side",

	"budget.ingest_unattributed_share":  "should shrink, not hide: ingest time no layer accounts for",
	"budget.restore_unattributed_share": "restore time no layer accounts for",
	"budget.repair_unattributed_share":  "repair time no layer accounts for",
	"trace.overhead_share":              "how far a traced run's ingest_mb_s is below an untraced one's",
	"machine.speed_index":               "none: the machine's speed during the run, which every timing is divided out by",
	"ingest_p99_ms":                     "the ingest tail a user sees; too unsteady here to carry a bound",
	"restore_p99_ms":                    "the restore tail a user sees; too unsteady here to carry a bound",
	"degraded_p99_ms":                   "the degraded-read tail a user sees; too unsteady here to carry a bound",
	"failed_ops_share":                  "must be 0",
}

// printList prints every declared metric: name, unit, direction, bound,
// and for a layer metric what it should move.
func printList(out io.Writer, s *benchSpec) {
	fmt.Fprintf(out, "workloads (run_seconds %d):\n", s.RunSeconds)
	for _, w := range s.Workloads {
		fmt.Fprintf(out, "  %-14s %s\n", w.Name, w.Why)
	}
	fmt.Fprintln(out, "end-to-end metrics:")
	for _, m := range s.EndToEnd {
		fmt.Fprintf(out, "  %-32s %-6s %-6s bound %.2f\n", m.Name, m.Unit, m.Better, m.Bound)
	}
	fmt.Fprintln(out, "per-layer metrics:")
	for _, m := range s.PerLayer {
		fmt.Fprintf(out, "  %-44s %-6s %-6s -> %s\n", m.Name, m.Unit, m.Better, layerMoves[m.Name])
	}
}

// checkEmitted fails unless every value a run computed is declared in one
// of the file's two lists and every metric of the list being printed was
// computed, as a finite number.
func (s *benchSpec) checkEmitted(printed []metricDecl, computed map[string]float64) error {
	var problems []string
	declared := map[string]bool{}
	for _, m := range s.EndToEnd {
		declared[m.Name] = true
	}
	for _, m := range s.PerLayer {
		declared[m.Name] = true
	}
	for _, name := range keysOf(computed) {
		if !declared[name] {
			problems = append(problems, "undeclared "+name)
		}
	}
	for _, m := range printed {
		v, ok := computed[m.Name]
		switch {
		case !ok:
			problems = append(problems, "missing "+m.Name)
		case math.IsNaN(v) || math.IsInf(v, 0):
			problems = append(problems, fmt.Sprintf("%s is %v", m.Name, v))
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("emitted metrics do not match BENCHMARK.json: %s", strings.Join(problems, "; "))
	}
	return nil
}

// worseBy is how far b is worse than a, as a share of a: positive when b
// is worse in the metric's direction.
func worseBy(m metricDecl, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if m.Better == "higher" {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}
