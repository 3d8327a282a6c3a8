package entangle

import (
	"context"
	"fmt"
	"sort"

	"aecodes/internal/lattice"
	"aecodes/internal/store"
)

// Health is one lattice's repair-urgency snapshot: the raw missing-block
// enumeration plus, for every missing data block, how many of its α
// repair tuples are still complete. The maintain scheduler, the Broker,
// and aecluster all consume this one shape instead of ad-hoc
// Missing+Count pairs.
type Health struct {
	// Blocks is the data-block count the probe covered.
	Blocks int
	// Missing is the enumeration the probe ran — one Missing call; no
	// block contents move for a health check.
	Missing store.Missing
	// IntactTuples maps each missing data position to how many of its α
	// pp-tuples still have both parities readable (virtual edges count
	// as present: they read as zero blocks). Zero means the block is
	// unrepairable by local tuples until a companion parity heals.
	IntactTuples map[int]int
	// Score is the healing urgency: Σ over missing data blocks of
	// 1/(1+intact tuples). A block with no intact tuple contributes 1,
	// one with all α tuples intact contributes 1/(1+α) — so the score
	// weighs how close each loss is to unrecoverable, not just how many
	// blocks are gone. Zero means healthy.
	Score float64
	// unlocks lists, for each missing data block with no intact tuple,
	// the missing parities of its tuples: rebuilding them is what makes
	// the block repairable again (see Targets).
	unlocks map[int][]lattice.Edge
}

// Healthy reports whether nothing is missing.
func (h Health) Healthy() bool { return h.Missing.Empty() }

// MissingData returns the missing data-block count.
func (h Health) MissingData() int { return len(h.Missing.Data) }

// MissingParities returns the missing parity count.
func (h Health) MissingParities() int { return len(h.Missing.Parities) }

// FragileFirst returns the missing data positions ordered most-urgent
// first: fewest intact repair tuples, ties broken by position. This is
// the healer's work queue — blocks one failure away from permanent loss
// come first.
func (h Health) FragileFirst() []int {
	out := append([]int(nil), h.Missing.Data...)
	sort.Slice(out, func(a, b int) bool {
		ia, ib := h.IntactTuples[out[a]], h.IntactTuples[out[b]]
		if ia != ib {
			return ia < ib
		}
		return out[a] < out[b]
	})
	return out
}

// Targets returns up to max blocks in heal order, each once: the missing
// data blocks most fragile first, then the remaining missing parities.
// This is where the healer's cascade policy lives — a data block with no
// intact tuple is preceded by the missing parities of its tuples, so a
// targeted Repair, which writes nothing but its targets, rebuilds them in
// one round and the block in the next. It goes one level deep: a listed
// parity whose own options are broken stays missing, and its data block
// with it, until whole-lattice rounds reach them.
func (h Health) Targets(max int) []store.Ref {
	var out []store.Ref
	listed := make(map[store.Ref]bool)
	add := func(ref store.Ref) {
		if !listed[ref] && len(out) < max {
			listed[ref] = true
			out = append(out, ref)
		}
	}
	for _, i := range h.FragileFirst() {
		for _, e := range h.unlocks[i] {
			add(store.ParityRef(e))
		}
		add(store.DataRef(i))
	}
	for _, e := range h.Missing.Parities {
		add(store.ParityRef(e))
	}
	return out
}

// Health probes st with one Missing enumeration and scores the damage
// with pure lattice geometry. blocks is the expected data-block count:
// it is recorded in the result and bounds the lattice, so a tail parity's
// option that names a data block beyond it does not count.
func (r *Repairer) Health(ctx context.Context, st store.Single, blocks int) (Health, error) {
	m, err := st.Missing(ctx)
	if err != nil {
		return Health{}, fmt.Errorf("entangle: health probe: %w", err)
	}
	h := Health{
		Blocks:       blocks,
		Missing:      m,
		IntactTuples: make(map[int]int, len(m.Data)),
		unlocks:      make(map[int][]lattice.Edge),
	}
	missPar := make(map[edgeKey]bool, len(m.Parities))
	for _, e := range m.Parities {
		missPar[keyOf(e)] = true
	}
	missData := make(map[int]bool, len(m.Data))
	for _, i := range m.Data {
		missData[i] = true
	}
	present := func(e lattice.Edge) bool {
		return e.IsVirtual() || !missPar[keyOf(e)]
	}
	for _, i := range m.Data {
		tuples, err := r.lat.Tuples(i)
		if err != nil {
			return Health{}, err
		}
		intact := 0
		var broken []lattice.Edge
		for _, t := range tuples {
			before := len(broken)
			for _, e := range [2]lattice.Edge{t.In, t.Out} {
				if !present(e) {
					broken = append(broken, e)
				}
			}
			if len(broken) == before {
				intact++
			}
		}
		if intact == 0 {
			h.unlocks[i] = broken
		}
		h.IntactTuples[i] = intact
		h.Score += 1 / float64(1+intact)
	}
	// Missing parities contribute too, at the weight of their weakest
	// dp-tuple: a parity with both options broken is as urgent as an
	// isolated data loss; one with an option intact is cheap to heal.
	for _, e := range m.Parities {
		opts, err := r.lat.ParityOptions(e)
		if err != nil {
			return Health{}, err
		}
		intact := 0
		for _, opt := range opts {
			if opt.Data <= blocks && !missData[opt.Data] && present(opt.Parity) {
				intact++
			}
		}
		h.Score += 0.5 / float64(1+intact)
	}
	return h, nil
}
