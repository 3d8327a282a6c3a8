// The broker side of the cluster: a cooperative.Router that shards a
// user's lattice into volumes and resolves volume→node through the
// manager's epoch-numbered table. Routes are cached; a cache miss is an
// ErrStale redirect to the manager (get-or-create), and a failed node
// triggers the stale-hint exchange, which both reports the failure and
// returns the authoritative route — so one round-trip heals the cache
// after a re-placement.
package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"sync"

	"aecodes/internal/cooperative"
	"aecodes/internal/lattice"
	"aecodes/internal/transport"
)

// ErrStale reports that the router's cached table cannot answer a
// lookup — the volume is unknown at the cached epoch. It is the
// internal redirect signal: the router refreshes the route from the
// manager and only surfaces an error when the manager cannot answer
// either.
var ErrStale = errors.New("cluster: cached route is stale")

// DefaultVolumeBlocks is the stripe width when RouterOptions.VolumeBlocks
// is zero: consecutive lattice positions per volume, so one volume is
// one contiguous lattice slice with all its parity classes.
const DefaultVolumeBlocks = 64

// RouterOptions configures a cluster Router.
type RouterOptions struct {
	// User is the broker's user ID; volume IDs are namespaced under it.
	User string
	// VolumeBlocks is the stripe width: lattice positions per volume.
	// Zero means DefaultVolumeBlocks.
	VolumeBlocks int
	// Conns is the pooled-connection count per storage node (and to the
	// manager). Zero means 2.
	Conns int
	// Tenant is the credential announced on every node connection.
	Tenant string
	// Dial overrides node dialing, for tests; nil dials a
	// transport.PoolClient carrying the current tenant credential.
	Dial func(addr string) (cooperative.NodeStore, error)
}

func (o RouterOptions) volumeBlocks() int {
	if o.VolumeBlocks <= 0 {
		return DefaultVolumeBlocks
	}
	return o.VolumeBlocks
}

func (o RouterOptions) conns() int {
	if o.Conns <= 0 {
		return 2
	}
	return o.Conns
}

// Router implements cooperative.Router (and CredentialRouter) against a
// cluster manager: parities shard into volumes by lattice position, the
// manager's table says which node serves each volume, and the broker's
// request frames batch per volume.
type Router struct {
	user   string
	stripe int
	opts   RouterOptions

	manager *transport.PoolClient

	mu     sync.Mutex
	epoch  uint64                           // cached routing-table version; guarded by mu
	routes map[string]string                // volume → node dial address; guarded by mu
	pools  map[string]cooperative.NodeStore // node dial address → client; guarded by mu
	tenant string                           // credential for new node connections; guarded by mu
	closed bool                             // guarded by mu
}

var _ cooperative.Router = (*Router)(nil)
var _ cooperative.CredentialRouter = (*Router)(nil)

// NewRouter connects to the cluster manager and returns a volume-sharded
// router for the user. The manager dial is synchronous; node connections
// are dialed lazily as routes resolve to them.
func NewRouter(managerAddr string, opts RouterOptions) (*Router, error) {
	if opts.User == "" {
		return nil, errors.New("cluster: router needs a user ID")
	}
	mgr, err := transport.DialPool(managerAddr, opts.conns())
	if err != nil {
		return nil, fmt.Errorf("cluster: dialing manager: %w", err)
	}
	return &Router{
		user:    opts.User,
		stripe:  opts.volumeBlocks(),
		opts:    opts,
		manager: mgr,
		routes:  make(map[string]string),
		pools:   make(map[string]cooperative.NodeStore),
		tenant:  opts.Tenant,
	}, nil
}

// VolumeID names the volume a lattice position belongs to for a user:
// "<user>/<stripe>", stripes of VolumeBlocks consecutive positions. A
// parity travels with its left endpoint, so every block of a stripe —
// data index and all α parity classes — routes to one volume.
func VolumeID(user string, volumeBlocks, pos int) string {
	if pos < 1 {
		pos = 1 // virtual strand seeds fold into the first stripe
	}
	return user + "/" + strconv.Itoa((pos-1)/volumeBlocks)
}

func (r *Router) volumeOf(e lattice.Edge) string {
	return VolumeID(r.user, r.stripe, e.Left)
}

// Route implements cooperative.Router: resolve the parity's volume to
// its node. A cached-table miss is the ErrStale redirect — the route is
// fetched (get-or-create) from the manager and cached.
func (r *Router) Route(ctx context.Context, key string, e lattice.Edge) (cooperative.NodeStore, string, error) {
	vol := r.volumeOf(e)
	addr, err := r.cachedAddr(vol)
	if errors.Is(err, ErrStale) {
		addr, err = r.fetchRoute(ctx, vol)
	}
	if err != nil {
		return nil, "", err
	}
	ns, err := r.node(addr)
	if err != nil {
		return nil, "", err
	}
	return ns, vol, nil
}

// Invalidate implements cooperative.Router: the volume's node failed a
// request. The stale-hint exchange tells the manager (which re-places
// the volume if the node is dead and the hint is current) and returns
// the authoritative route; true means the route moved and a retry can
// reach a different node.
func (r *Router) Invalidate(ctx context.Context, group string) (bool, error) {
	r.mu.Lock()
	oldAddr := r.routes[group]
	epoch := r.epoch
	r.mu.Unlock()
	ri, err := r.routeQuery(ctx, StaleKey(epoch, group))
	if err != nil {
		return false, err
	}
	return ri.Addr != oldAddr, nil
}

// Refresh replaces the cached table with the manager's current snapshot
// — the epoch-numbered table swap. An older snapshot never overwrites a
// newer cache.
func (r *Router) Refresh(ctx context.Context) error {
	payload, err := r.manager.Get(ctx, KeyTable)
	if err != nil {
		return fmt.Errorf("cluster: fetching routing table: %w", err)
	}
	var t Table
	if err := json.Unmarshal(payload, &t); err != nil {
		return fmt.Errorf("cluster: decoding routing table: %w", err)
	}
	r.mu.Lock()
	if t.Epoch >= r.epoch {
		r.epoch = t.Epoch
		r.routes = t.Routes
	}
	if r.routes == nil {
		r.routes = make(map[string]string)
	}
	r.mu.Unlock()
	return nil
}

// Epoch returns the cached routing-table version.
func (r *Router) Epoch() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.epoch
}

// cachedAddr answers a volume lookup from the cached table; a miss is
// ErrStale — the caller redirects to the manager.
func (r *Router) cachedAddr(vol string) (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	addr, ok := r.routes[vol]
	if !ok {
		return "", fmt.Errorf("cluster: no cached route for %s: %w", vol, ErrStale)
	}
	return addr, nil
}

// fetchRoute resolves one volume through the manager (get-or-create)
// and caches the answer.
func (r *Router) fetchRoute(ctx context.Context, vol string) (string, error) {
	ri, err := r.routeQuery(ctx, KeyRoutePrefix+vol)
	if err != nil {
		return "", err
	}
	return ri.Addr, nil
}

// routeQuery performs one manager routing exchange and merges the
// answer into the cache. The manager reports not-found when it cannot
// place the volume (no live node with headroom).
func (r *Router) routeQuery(ctx context.Context, key string) (RouteInfo, error) {
	payload, err := r.manager.Get(ctx, key)
	if errors.Is(err, transport.ErrNotFound) {
		return RouteInfo{}, fmt.Errorf("cluster: manager cannot place %s: %w", key, ErrNoNodes)
	}
	if err != nil {
		return RouteInfo{}, fmt.Errorf("cluster: routing query %s: %w", key, err)
	}
	var ri RouteInfo
	if err := json.Unmarshal(payload, &ri); err != nil {
		return RouteInfo{}, fmt.Errorf("cluster: decoding route for %s: %w", key, err)
	}
	r.mu.Lock()
	r.routes[ri.Volume] = ri.Addr
	if ri.Epoch > r.epoch {
		r.epoch = ri.Epoch
	}
	r.mu.Unlock()
	return ri, nil
}

// node returns the pooled client for a node address, dialing on first
// use with the current tenant credential.
func (r *Router) node(addr string) (cooperative.NodeStore, error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, errors.New("cluster: router closed")
	}
	ns, ok := r.pools[addr]
	tenant := r.tenant
	r.mu.Unlock()
	if ok {
		return ns, nil
	}
	ns, err := r.dialNode(addr, tenant)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	if existing, ok := r.pools[addr]; ok {
		r.mu.Unlock()
		closeNode(ns) // lost a dial race; keep the first
		return existing, nil
	}
	if r.closed {
		r.mu.Unlock()
		closeNode(ns)
		return nil, errors.New("cluster: router closed")
	}
	r.pools[addr] = ns
	r.mu.Unlock()
	return ns, nil
}

// dialNode opens the handle for one node carrying the tenant credential:
// a pool whose every connection handshakes before joining the rotation,
// or — through a custom Dial — a handle that is handshaked here, before
// it can serve a request. A refused handshake closes the handle and
// fails the route; a node never serves from the wrong namespace.
func (r *Router) dialNode(addr, tenant string) (cooperative.NodeStore, error) {
	if r.opts.Dial == nil {
		pc, err := transport.DialPoolOptions(addr, r.opts.conns(), transport.PoolOptions{Tenant: tenant})
		if err != nil {
			return nil, fmt.Errorf("cluster: dialing node %s: %w", addr, err)
		}
		return pc, nil
	}
	ns, err := r.opts.Dial(addr)
	if err != nil {
		return nil, err
	}
	if tenant != "" {
		if err := ns.Hello(context.Background(), tenant); err != nil {
			closeNode(ns)
			return nil, fmt.Errorf("cluster: announcing credential to node %s: %w", addr, err)
		}
	}
	return ns, nil
}

// SetCredential implements cooperative.CredentialRouter: announce the
// tenant on every live node connection and carry it on future dials.
// When a node refuses, the nodes already switched roll back to the
// previous credential (best-effort), and new dials revert too.
func (r *Router) SetCredential(ctx context.Context, tenant, previous string) error {
	r.mu.Lock()
	r.tenant = tenant
	pools := make([]cooperative.NodeStore, 0, len(r.pools))
	for _, ns := range r.pools {
		pools = append(pools, ns)
	}
	r.mu.Unlock()
	for i, ns := range pools {
		if err := ns.Hello(ctx, tenant); err != nil {
			r.mu.Lock()
			r.tenant = previous
			r.mu.Unlock()
			for _, switched := range pools[:i] {
				switched.Hello(ctx, previous)
			}
			return fmt.Errorf("cluster: announcing credential: %w", err)
		}
	}
	return nil
}

// Close closes the manager connection and every node pool.
func (r *Router) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	pools := make([]cooperative.NodeStore, 0, len(r.pools))
	for _, ns := range r.pools {
		pools = append(pools, ns)
	}
	r.pools = make(map[string]cooperative.NodeStore)
	r.mu.Unlock()
	first := r.manager.Close()
	for _, ns := range pools {
		if err := closeNode(ns); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func closeNode(ns cooperative.NodeStore) error {
	if c, ok := ns.(io.Closer); ok {
		return c.Close()
	}
	return nil
}
