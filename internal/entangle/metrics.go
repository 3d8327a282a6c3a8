// Observability: repair accounting flows into the process-global obs
// registry under the "entangle" scope. Every Repair call — client-driven
// or background — records its Stats keyed by seed and priority, so the
// broker's discarded Repair/Health results are still visible: bytes
// moved per repaired block, unrepairable residue, and how much of the
// work ran urgent versus background all show up in OpMetrics and
// -metricsaddr. Repair runs are seconds-scale, so the per-call counter
// lookups here are nowhere near the hot path.
package entangle

import "aecodes/internal/obs"

var entangleScope = obs.Default.Scope("entangle")

func priorityLabel(p Priority) string {
	switch {
	case p < PriorityNormal:
		return "background"
	case p > PriorityNormal:
		return "urgent"
	default:
		return "normal"
	}
}

// recordRepairObs mirrors one Repair run's Stats into counters named
// repair.<seed>.<priority>.<field>, where seed says what the run started
// from: "lattice" for the store's enumeration, "targets" for
// Options.Targets.
func recordRepairObs(opts Options, stats Stats, windows int, err error) {
	seed := "lattice"
	if len(opts.Targets) > 0 {
		seed = "targets"
	}
	p := "repair." + seed + "." + priorityLabel(opts.Priority) + "."
	entangleScope.Counter(p + "runs").Inc()
	if err != nil {
		entangleScope.Counter(p + "errors").Inc()
	}
	entangleScope.Counter(p + "windows").Add(int64(windows))
	entangleScope.Counter(p + "bytes_read").Add(stats.BytesRead)
	entangleScope.Counter(p + "data_repaired").Add(int64(stats.DataRepaired))
	entangleScope.Counter(p + "parity_repaired").Add(int64(stats.ParityRepaired))
	entangleScope.Counter(p + "unrepaired").Add(int64(len(stats.UnrepairedData) + len(stats.UnrepairedParities)))
}
