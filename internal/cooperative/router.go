// Routing: the seam between a broker and the fleet serving its parities.
// A Router answers "which node holds this parity" — flat key-hash over a
// fixed node list for the single-cell setups the tests and simulator
// build, or the cluster router (internal/cluster) that resolves
// volume→node through a cluster manager's epoch-numbered table.
package cooperative

import (
	"context"
	"fmt"
	"strconv"
	"sync"

	"aecodes/internal/lattice"
	"aecodes/internal/placement"
)

// Router maps a parity block to the storage node responsible for it.
// key is the system-wide block name (the broker's parityKey) and e the
// lattice edge it encodes — flat policies hash the key, volume policies
// shard on the edge's position. Implementations must be safe for
// concurrent use: the repair engine's planners route in parallel.
type Router interface {
	// Route returns the node serving the parity plus the routing group
	// it belongs to: a volume ID in cluster mode, a node ordinal in flat
	// mode. The broker batches by node — blocks whose routes return the
	// same NodeStore value share request frames, whatever their groups —
	// so a router must hand out one comparable value per node (a client
	// pointer). The group is the unit of re-placement: the handle
	// Invalidate takes when that node fails an upload.
	Route(ctx context.Context, key string, e lattice.Edge) (NodeStore, string, error)
	// Invalidate reports that the group's node failed a request. It
	// returns true when the route has changed (or may have — e.g. the
	// cluster manager re-placed the volume), meaning a re-Route and
	// retry can reach a different node; false when the topology is fixed
	// and retrying is pointless.
	Invalidate(ctx context.Context, group string) (bool, error)
}

// GroupRouter is the optional Router capability that makes the broker's
// control path per group instead of per key. Group reports, with no I/O,
// the routing group of the parity on e as an integer: parities of equal
// Group route to one node under one group id, so the route of one holds
// for all of them until that group is invalidated or its node fails.
// With it a Backup routes its α parities once when they share a group,
// and a netStore routes each group once per call (routeTable).
// cluster.Router implements it — the group is the volume's stripe. A
// router without it has every key routed, as the flat router does and
// as does any decorator that does not forward it.
type GroupRouter interface {
	Group(e lattice.Edge) int
}

// routeTable is the routes of one broker call. Under a GroupRouter it
// keeps each group's node and group id from the group's first Route on,
// so the call routes every group once however many of its keys it names;
// without one it keeps nothing and every parity is routed. A netStore —
// the view one Read, Repair, Health or Missing call builds — owns one,
// and no table outlives its call. Entries never outlive their node's
// health either: a node reached through the table that answers
// store.ErrUnavailable, or fails an upload (whose groups the broker then
// invalidates), loses every entry that points at it, and the next use of
// those groups routes afresh.
type routeTable struct {
	b  *Broker
	gr GroupRouter // nil: every parity is routed

	mu     sync.Mutex
	groups map[int]groupRoute // guarded by mu
}

// groupRoute is what Route answered for a group's first parity.
type groupRoute struct {
	node NodeStore
	gid  string
}

// route returns the node serving the parity on e and its group id. key
// is e's key, or "" to have it built only when the router is asked.
func (t *routeTable) route(ctx context.Context, e lattice.Edge, key string) (NodeStore, string, error) {
	var g int
	if t.gr != nil {
		g = t.gr.Group(e)
		t.mu.Lock()
		r, ok := t.groups[g]
		t.mu.Unlock()
		if ok {
			return r.node, r.gid, nil
		}
	}
	if key == "" {
		key = t.b.parityKey(e)
	}
	node, gid, err := t.b.route(ctx, key, e)
	if err != nil || t.gr == nil {
		return node, gid, err
	}
	t.mu.Lock()
	if t.groups == nil {
		t.groups = make(map[int]groupRoute)
	}
	t.groups[g] = groupRoute{node: node, gid: gid}
	t.mu.Unlock()
	return node, gid, nil
}

// forgetNode drops every route to node. A nil table — Backup's, which
// routes afresh on every call — holds none.
func (t *routeTable) forgetNode(node any) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for g, r := range t.groups {
		if any(r.node) == node {
			delete(t.groups, g)
		}
	}
}

// CredentialRouter is the optional Router extension for tenant routing:
// announcing the broker's credential to whatever connections the router
// manages, so uploads land in (and reads come from) the tenant's
// namespace. previous is the credential in effect before the call — on
// partial failure implementations roll back to it rather than leave the
// fleet split across namespaces.
type CredentialRouter interface {
	SetCredential(ctx context.Context, tenant, previous string) error
}

// flatRouter is the fixed-fleet policy: FNV key-hash over an immutable
// node list, the §IV.A "hash of node id and block position" placement.
// Groups are node ordinals; routes never change, so Invalidate always
// answers false.
type flatRouter struct {
	nodes  []NodeStore
	placer *placement.KeyHash
}

var _ Router = (*flatRouter)(nil)
var _ CredentialRouter = (*flatRouter)(nil)

func newFlatRouter(nodes []NodeStore) (*flatRouter, error) {
	placer, err := placement.NewKeyHash(len(nodes))
	if err != nil {
		return nil, err
	}
	return &flatRouter{nodes: nodes, placer: placer}, nil
}

// Route implements Router.
func (r *flatRouter) Route(ctx context.Context, key string, e lattice.Edge) (NodeStore, string, error) {
	idx := r.placer.PlaceKey(key)
	return r.nodes[idx], strconv.Itoa(idx), nil
}

// Invalidate implements Router: a flat fleet has nowhere else to route.
func (r *flatRouter) Invalidate(ctx context.Context, group string) (bool, error) {
	return false, nil
}

// SetCredential implements CredentialRouter: announce the tenant to
// every node, in order. When node k refuses, nodes 0..k-1 are rolled back
// to the previous credential (best-effort — a node that fails the
// rollback too is left to its pool's redial path, which handshakes the
// broker's current credential).
func (r *flatRouter) SetCredential(ctx context.Context, tenant, previous string) error {
	for i, n := range r.nodes {
		if err := n.Hello(ctx, tenant); err != nil {
			for _, switched := range r.nodes[:i] {
				switched.Hello(ctx, previous)
			}
			return fmt.Errorf("cooperative: announcing credential to node %d: %w", i, err)
		}
	}
	return nil
}
