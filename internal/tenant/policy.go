package tenant

import (
	"cmp"
	"slices"
	"strings"
)

// candidate is one evictable tenant: a tenant other than the writer that
// triggered the eviction, holding live bytes above its reservation floor.
type candidate struct {
	id string
	// lastUse is the registry's logical clock at the tenant's most recent
	// operation; smaller means colder.
	lastUse int64
}

// lruOrder sorts eviction candidates coldest first, ties broken by ID, so
// the choice is deterministic; eviction sheds them in this order until
// the node is back under its high-water mark. Whole lattices only — a
// partially evicted lattice would keep paying its index cost while losing
// the read locality repair needs, whereas a wholly shed lattice is
// exactly what entanglement repair regenerates.
func lruOrder(cands []candidate) []candidate {
	slices.SortFunc(cands, func(a, b candidate) int {
		return cmp.Or(cmp.Compare(a.lastUse, b.lastUse), strings.Compare(a.id, b.id))
	})
	return cands
}
