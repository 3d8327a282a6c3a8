// Package cooperative implements the geo-replicated backup use case of
// §IV.A: a two-tier community storage network where users keep their data
// blocks on their own computers and spread entangled parity blocks over
// remote storage nodes.
//
// The upper tier is the Broker: it splits files into d-blocks, entangles
// them (keeping the strand heads in memory — the §IV.A footprint of one
// p-block per strand), and uploads the α parities of every block to storage
// nodes chosen by hashing the block key. The lower tier is any set of
// NodeStore implementations — in-memory nodes for tests and simulations, or
// transport.PoolClient values for real TCP storage nodes.
//
// Repair follows Table III: to regenerate a parity lost with a faulty node,
// the broker obtains the dp-tuple ids from the lattice, chooses a p-block
// and computes its location key. Steps 4–5 — fetch the p-block, XOR it
// with the local d-block — run on the node: when the p-block and the lost
// parity share a node, the broker sends that node the d-block and the
// node stores their XOR, so the parity costs one block on the wire. A
// tuple straddling two nodes, or a node without the op, falls back to the
// broker fetching the p-block, XORing and uploading. Data blocks lost
// with the user's machine are regenerated from pp-tuples fetched from two
// nodes. Every repair — of the whole lattice, or of the blocks
// Options.Targets names, one parity being Table III's walk — runs the
// round-based engine of internal/entangle through a network-backed
// BlockStore adapter that is pure routing + batching.
//
// Every bulk operation groups its keys by the NodeStore the Router
// resolves — not by the router's group id, which under cluster.Router is
// a volume, many of which share a node — and runs the per-node exchanges
// concurrently. So under any router the engine's missing-block
// enumeration (once per Repair), each round's GetMany of the tuples it
// chose, and its commit — in-place rebuilds and uploads in flight
// together — cost one batched frame of each kind per storage node touched
// (one per chunkEntries-sized chunk when a batch outgrows a frame), and
// their wall clock is the slowest node's, not the sum. Naming and routing
// cost per group, not per key, where the router names its groups
// (GroupRouter, which cluster.Router implements): a bulk call builds its
// keys as substrings of one allocation, one Read, Repair, Health or
// Missing call routes each volume once, and a Backup routes its α
// parities once. Read decodes a
// lost block from a pp-tuple on the node when it can: when both parities
// share a node that answers XorMany, that node sends their XOR — one
// block on the wire, one exchange. Otherwise the tuple is fetched the
// bulk way: one GetMany frame when both parities share a node, two frames
// in flight together when they do not, XORed by the broker.
package cooperative

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"aecodes/internal/entangle"
	"aecodes/internal/lattice"
	"aecodes/internal/obs"
	"aecodes/internal/store"
	tenantpkg "aecodes/internal/tenant"
	"aecodes/internal/xorblock"
)

// ErrNotFound is returned by NodeStore implementations for missing
// blocks. It wraps the repository-wide store.ErrNotFound sentinel, so
// errors.Is works with either across every backend.
var ErrNotFound = fmt.Errorf("cooperative: %w", store.ErrNotFound)

// How Read served the pp-tuples it tried: answered by one node-side XOR
// exchange, or fetched as two blocks and XORed by the broker (a tuple
// straddling two nodes, a virtual member, a node without XorMany, or a
// node that refused it). A tuple whose XorMany found the node unreachable
// counts in neither. The repair counters split the parities the broker's
// repairs rebuilt the same way: on the node that holds the companion, or
// by the broker, which XORed and uploaded them. route.calls counts the
// broker's Router.Route invocations: one per key under a router without
// groups, one per group and call under a GroupRouter.
var (
	coopScope          = obs.Default.Scope("cooperative")
	obsReadNodeXor     = coopScope.Counter("read.node_xor")
	obsReadPairFetch   = coopScope.Counter("read.pair_fetch")
	obsRepairNodeXor   = coopScope.Counter("repair.node_xor")
	obsRepairPairFetch = coopScope.Counter("repair.pair_fetch")
	obsRouteCalls      = coopScope.Counter("route.calls")
)

// NodeStore is one remote storage node as the broker sees it — the client
// side of store.Keyed, one method per wire operation. transport.PoolClient
// is the TCP implementation; InMemoryNode is a local test double.
//
// Put and PutMany must copy or transmit the data before returning —
// never retain it: the broker recycles its upload frame buffers across
// calls.
type NodeStore interface {
	// Get fetches a block; implementations return ErrNotFound (or any
	// error) when the block is unavailable.
	Get(ctx context.Context, key string) ([]byte, error)
	// Put stores a block.
	Put(ctx context.Context, key string, data []byte) error
	// GetMany returns one entry per key in order; missing blocks are nil.
	// A missing block is not an error.
	GetMany(ctx context.Context, keys []string) ([][]byte, error)
	// PutMany stores all items in one exchange; items are applied in
	// order and the first store error aborts the batch.
	PutMany(ctx context.Context, items []store.KV) error
	// StatMany returns one entry per key in order: true when the node
	// holds the block. No block contents travel, so the repair engine's
	// round prefetch is the only content transfer of a repair round.
	StatMany(ctx context.Context, keys []string) ([]bool, error)
	// Hello switches the connection(s) behind this node to the tenant's
	// namespace, so the broker's keys land in (and read from) it.
	Hello(ctx context.Context, tenant string) error
}

// BatchNodeStore, StatNodeStore and HelloNodeStore were optional
// extensions of NodeStore before it became the union every node already
// implemented. The names survive only because bench/trace.go, which this
// module's PRs may not edit, spells them in compile-time assertions; a
// later benchmark PR drops those assertions and this block with them.
// Nothing in the root module may reference them.
type (
	BatchNodeStore = NodeStore
	StatNodeStore  = NodeStore
	HelloNodeStore = NodeStore
)

// xorNode is a NodeStore that decodes for the reader. XorMany reads keys
// as pairs and returns one entry per pair in order: the XOR of the two
// blocks when the node holds both at equal length, nil otherwise. An
// error wrapping store.ErrUnavailable means the node could not be
// reached; any other error is a refusal — a node that predates the op
// answers "unknown op" — and Read then fetches the pair instead.
// transport.PoolClient and InMemoryNode implement it. It is not a
// NodeStore method only because bench/trace.go asserts at compile time
// that its traced node satisfies NodeStore, and that file changes only in
// a benchmark PR; that PR folds XorMany into NodeStore together with the
// aliases above.
type xorNode interface {
	XorMany(ctx context.Context, keys []string) ([][]byte, error)
}

// xorPutNode is a NodeStore that rebuilds in place. XorPutMany stores
// Dst = Data ⊕ Src for every item whose Src the node holds at len(Data)
// and the batch does not write, and returns one flag per item in order:
// true when Dst was stored. An error wrapping store.ErrUnavailable means
// the node could not be reached and one wrapping store.ErrQuotaExceeded
// that it refused the write; any other error is a refusal of the op — a
// node that predates it answers "unknown op" — and the broker rebuilds
// those parities itself and asks that node no more. Nodes must be
// comparable: the broker keys them in maps, as keysByNode does.
// transport.PoolClient and InMemoryNode implement
// it. It is optional for the reason xorNode is.
type xorPutNode interface {
	XorPutMany(ctx context.Context, items []store.XorKV) ([]bool, error)
}

// batchChunk bounds one GetMany/PutMany call by entry count
// (conservatively below transport.MaxBatchEntries = 4096, without
// importing that package), and batchChunkBytes bounds the expected frame
// size so a chunk of large blocks cannot overflow a transport frame
// (MaxPayloadLen = 64 MiB) and get the whole node misreported as
// unreachable.
const (
	batchChunk      = 1024
	batchChunkBytes = 32 << 20
)

// chunkEntries returns how many blocks of the given size fit one batched
// transfer, always at least 1.
func chunkEntries(blockSize int) int {
	perEntry := blockSize + 64 // content plus generous per-entry framing
	n := batchChunkBytes / perEntry
	if n < 1 {
		return 1
	}
	if n > batchChunk {
		return batchChunk
	}
	return n
}

// InMemoryNode is a NodeStore over one store.Mem, with a switchable
// availability flag to simulate node failures. Each op is one or two
// Keyed calls under the node's lock, by the rules a transport.Server
// applies, so the double answers as a TCP node over a store.Mem would.
// It is safe for concurrent use and counts single-block and batched
// requests in both directions so tests can assert traffic shapes.
type InMemoryNode struct {
	mu            sync.RWMutex
	blocks        *store.Mem
	down          bool
	tenant        string
	getCalls      int
	batchGetCalls int
	putCalls      int
	batchPutCalls int
	statCalls     int
	xorCalls      int
	xorPutCalls   int
}

var (
	_ NodeStore  = (*InMemoryNode)(nil)
	_ xorNode    = (*InMemoryNode)(nil)
	_ xorPutNode = (*InMemoryNode)(nil)
)

// NewInMemoryNode returns an empty, available node.
func NewInMemoryNode() *InMemoryNode {
	return &InMemoryNode{blocks: store.NewMem()}
}

// SetDown toggles the node's availability.
func (n *InMemoryNode) SetDown(down bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.down = down
}

// serve counts one request in *calls and fails it while the node is
// down; the caller holds n.mu.
func (n *InMemoryNode) serve(calls *int) error {
	*calls++
	if n.down {
		return fmt.Errorf("cooperative: %w", store.ErrUnavailable)
	}
	return nil
}

// Get implements NodeStore.
func (n *InMemoryNode) Get(ctx context.Context, key string) ([]byte, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if err := n.serve(&n.getCalls); err != nil {
		return nil, err
	}
	b, ok := n.blocks.Get(key)
	if !ok {
		return nil, ErrNotFound
	}
	return b, nil
}

// GetMany implements NodeStore: one simulated request frame however
// many keys are asked for.
func (n *InMemoryNode) GetMany(ctx context.Context, keys []string) ([][]byte, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if err := n.serve(&n.batchGetCalls); err != nil {
		return nil, err
	}
	out := make([][]byte, len(keys))
	n.blocks.ReadBatch(keys, func(blocks [][]byte) error {
		for i, b := range blocks {
			if b != nil {
				out[i] = bytes.Clone(b)
			}
		}
		return nil
	})
	return out, nil
}

// XorMany decodes on the node: one simulated frame answering, per pair
// of keys, the XOR of the two blocks when both are held at equal length
// and nil otherwise.
func (n *InMemoryNode) XorMany(ctx context.Context, keys []string) ([][]byte, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if err := n.serve(&n.xorCalls); err != nil {
		return nil, err
	}
	if len(keys)%2 != 0 {
		return nil, fmt.Errorf("cooperative: xor of %d keys is not a list of pairs", len(keys))
	}
	out := make([][]byte, len(keys)/2)
	n.blocks.ReadBatch(keys, func(blocks [][]byte) error {
		for k := range out {
			if a, b := blocks[2*k], blocks[2*k+1]; a != nil && b != nil && len(a) == len(b) {
				out[k], _ = xorblock.Xor(a, b)
			}
		}
		return nil
	})
	return out, nil
}

// XorPutMany rebuilds on the node: one simulated frame storing, per
// item, Dst = Data ⊕ Src when the node holds Src at len(Data) and no item
// of the batch writes Src, and answering one flag per item. Every read
// sees the node as it was before the batch.
func (n *InMemoryNode) XorPutMany(ctx context.Context, items []store.XorKV) ([]bool, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if err := n.serve(&n.xorPutCalls); err != nil {
		return nil, err
	}
	srcs := make([]string, len(items))
	written := make(map[string]bool, len(items))
	for k, it := range items {
		srcs[k] = it.Src
		written[it.Dst] = true
	}
	out := make([]bool, len(items))
	var puts []store.KV
	n.blocks.ReadBatch(srcs, func(blocks [][]byte) error {
		for k, src := range blocks {
			if it := items[k]; src != nil && len(src) == len(it.Data) && !written[it.Src] {
				rebuilt, _ := xorblock.Xor(it.Data, src)
				puts = append(puts, store.KV{Key: it.Dst, Data: rebuilt})
				out[k] = true
			}
		}
		return nil
	})
	if err := n.blocks.PutBatch(puts); err != nil {
		return nil, err
	}
	return out, nil
}

// StatMany implements NodeStore: one simulated presence-only frame
// for the whole key list.
func (n *InMemoryNode) StatMany(ctx context.Context, keys []string) ([]bool, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if err := n.serve(&n.statCalls); err != nil {
		return nil, err
	}
	out := make([]bool, len(keys))
	for i, size := range n.blocks.StatBatch(keys) {
		out[i] = size >= 0
	}
	return out, nil
}

// Hello implements NodeStore: the test double just records the
// credential (its one store stands in for one tenant's namespace).
func (n *InMemoryNode) Hello(ctx context.Context, tenant string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.down {
		return fmt.Errorf("cooperative: %w", store.ErrUnavailable)
	}
	n.tenant = tenant
	return nil
}

// Tenant returns the credential the last Hello announced.
func (n *InMemoryNode) Tenant() string {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.tenant
}

// Put implements NodeStore.
func (n *InMemoryNode) Put(ctx context.Context, key string, data []byte) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if err := n.serve(&n.putCalls); err != nil {
		return err
	}
	return n.blocks.Put(key, data)
}

// PutMany implements NodeStore: one simulated request frame for the
// whole batch.
func (n *InMemoryNode) PutMany(ctx context.Context, items []store.KV) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if err := n.serve(&n.batchPutCalls); err != nil {
		return err
	}
	return n.blocks.PutBatch(items)
}

// count reads one request counter.
func (n *InMemoryNode) count(calls *int) int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return *calls
}

// GetCalls returns the number of single-block Get requests served.
func (n *InMemoryNode) GetCalls() int { return n.count(&n.getCalls) }

// BatchCalls returns the number of GetMany requests served.
func (n *InMemoryNode) BatchCalls() int { return n.count(&n.batchGetCalls) }

// PutCalls returns the number of single-block Put requests served.
func (n *InMemoryNode) PutCalls() int { return n.count(&n.putCalls) }

// BatchPutCalls returns the number of PutMany requests served.
func (n *InMemoryNode) BatchPutCalls() int { return n.count(&n.batchPutCalls) }

// BatchStatCalls returns the number of StatMany requests served.
func (n *InMemoryNode) BatchStatCalls() int { return n.count(&n.statCalls) }

// XorCalls returns the number of XorMany requests served.
func (n *InMemoryNode) XorCalls() int { return n.count(&n.xorCalls) }

// XorPutCalls returns the number of XorPutMany requests served.
func (n *InMemoryNode) XorPutCalls() int { return n.count(&n.xorPutCalls) }

// ResetCounters zeroes the request counters.
func (n *InMemoryNode) ResetCounters() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.getCalls, n.batchGetCalls, n.putCalls, n.batchPutCalls, n.statCalls, n.xorCalls, n.xorPutCalls = 0, 0, 0, 0, 0, 0, 0
}

// Len returns the number of blocks held (even while down).
func (n *InMemoryNode) Len() int { return n.blocks.Len() }

// Broker is a user's encoding/decoding agent. The encoder pipeline is
// not safe for concurrent use (serialise Backup/Read/Repair calls
// externally), but the broker's block state is mutex-guarded so the
// repair engine's concurrent planners can drive the netStore adapter
// safely.
type Broker struct {
	user      string
	tenant    string // credential announced via SetCredential
	params    lattice.Params
	blockSize int
	enc       *entangle.Encoder
	rep       *entangle.Repairer
	router    Router

	// parityBufs is the upload frame arena: α blockSize buffers that
	// Backup entangles into and ships, then reuses on the next call.
	// Reuse is safe because the encoder pipeline is externally
	// serialised and the NodeStore contract has every node copy or
	// transmit a block before its Put/PutMany returns — by the time
	// uploadGrouped comes back, no node holds an alias into the arena.
	parityBufs [][]byte

	// noXorPut holds the nodes (xorPutNode keys) that refused an in-place
	// rebuild: the broker rebuilds their parities itself from then on.
	noXorPut sync.Map

	// mu guards the broker's mutable block state. Never held across
	// router, node, or repair-engine calls — the engine calls back into
	// the netStore adapter, which takes it again.
	mu    sync.RWMutex
	local map[int][]byte // the user's own d-blocks; guarded by mu
	count int            // blocks backed up so far; guarded by mu
}

// NewBroker returns a broker for one user's lattice over a fixed node
// list with flat key-hash placement. user namespaces all keys so
// multiple lattices coexist in the system.
func NewBroker(user string, params lattice.Params, blockSize int, nodes []NodeStore) (*Broker, error) {
	if len(nodes) == 0 {
		return nil, errors.New("cooperative: need at least one storage node")
	}
	router, err := newFlatRouter(nodes)
	if err != nil {
		return nil, err
	}
	return NewRoutedBroker(user, params, blockSize, router)
}

// NewRoutedBroker returns a broker whose parity placement is delegated
// to router — the constructor cluster deployments use, with the router
// resolving volume→node through a cluster manager instead of hashing
// over a flat list.
func NewRoutedBroker(user string, params lattice.Params, blockSize int, router Router) (*Broker, error) {
	if user == "" {
		return nil, errors.New("cooperative: empty user")
	}
	if router == nil {
		return nil, errors.New("cooperative: nil router")
	}
	enc, err := entangle.NewEncoder(params, blockSize)
	if err != nil {
		return nil, err
	}
	rep, err := entangle.NewRepairer(params, blockSize)
	if err != nil {
		return nil, err
	}
	return &Broker{
		user:      user,
		params:    params,
		blockSize: blockSize,
		enc:       enc,
		rep:       rep,
		router:    router,
		local:     make(map[int][]byte),
	}, nil
}

// SetCredential validates and announces a tenant credential to every
// node: the broker's uploads then land in — and its reads come from —
// its own namespace on shared storage nodes, under whatever quota the
// node grants that tenant. When any node refuses the credential, the
// nodes already switched are rolled back to the broker's previous
// credential (best-effort — a node that fails the rollback too is left
// to its pool's redial path, which handshakes the current credential)
// and the call fails with the broker's credential unchanged: the lattice is
// never left split across namespaces. An over-quota upload later
// surfaces as an error wrapping store.ErrQuotaExceeded — the broker
// never retries it, because the same write cannot succeed until the
// node frees space.
func (b *Broker) SetCredential(ctx context.Context, tenant string) error {
	if err := tenantpkg.ValidateID(tenant); err != nil {
		return fmt.Errorf("cooperative: %w", err)
	}
	cr, ok := b.router.(CredentialRouter)
	if !ok {
		if tenant == "" {
			return nil // anonymous is every router's default
		}
		return errors.New("cooperative: router does not support credentials")
	}
	if err := cr.SetCredential(ctx, tenant, b.tenant); err != nil {
		return err
	}
	b.tenant = tenant
	return nil
}

// Tenant returns the credential set by SetCredential ("" while
// anonymous).
func (b *Broker) Tenant() string { return b.tenant }

// BlockSize returns the broker's block size.
func (b *Broker) BlockSize() int { return b.blockSize }

// Count returns the number of blocks backed up.
func (b *Broker) Count() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.count
}

// parityKey derives the system-wide block name: "a value derived from
// the node id and the block position in the lattice" (§IV.A) — the
// user's namespace and the parity's store.ParityKey, "<user>/p:…", built
// in one allocation.
func (b *Broker) parityKey(e lattice.Edge) string {
	var buf [64]byte
	prefix := append(append(buf[:0], b.user...), '/')
	return string(store.AppendParityKey(prefix, e))
}

// keyGuess is the expected length of a key after its "<user>" prefix:
// "/p:rh:" and two four-digit positions.
const keyGuess = 16

// parityKeys returns the keys of the n parities edge(0) … edge(n-1),
// built as substrings of one string: a bulk call costs the same few
// allocations whatever its key count.
func (b *Broker) parityKeys(n int, edge func(k int) lattice.Edge) []string {
	var sb strings.Builder
	sb.Grow(n * (len(b.user) + keyGuess))
	var small [8]int // where each key ends; a Backup's fit without an allocation
	ends := small[:0]
	if n > len(small) {
		ends = make([]int, 0, n)
	}
	var buf [48]byte
	for k := 0; k < n; k++ {
		sb.WriteString(b.user)
		sb.WriteByte('/')
		sb.Write(store.AppendParityKey(buf[:0], edge(k)))
		ends = append(ends, sb.Len())
	}
	s := sb.String()
	keys := make([]string, n)
	start := 0
	for k, end := range ends {
		keys[k] = s[start:end]
		start = end
	}
	return keys
}

// route asks the router for the node and group of the parity named key.
// Every Router.Route the broker makes goes through here, and is counted
// in cooperative/route.calls.
func (b *Broker) route(ctx context.Context, key string, e lattice.Edge) (NodeStore, string, error) {
	obsRouteCalls.Inc()
	return b.router.Route(ctx, key, e)
}

// routeGroup is one routing group's pending transfer: the node the
// router resolved, the items headed there, and the group id plus a
// representative edge/key so the group can be re-routed after an
// Invalidate.
type routeGroup struct {
	node   NodeStore
	gid    string
	repE   lattice.Edge // any edge of the group, for re-routing
	repKey string
	items  []store.KV
}

// addToGroup puts one routed parity into its group, creating the group
// on first sight.
func addToGroup(groups map[string]*routeGroup, node NodeStore, gid string, e lattice.Edge, key string, data []byte) {
	g := groups[gid]
	if g == nil {
		g = &routeGroup{node: node, gid: gid, repE: e, repKey: key}
		groups[gid] = g
	}
	g.items = append(g.items, store.KV{Key: key, Data: data})
}

// putGroup ships items to node as one PutMany frame per chunkEntries-sized
// chunk: a single frame for a Backup call and for any repair round of up
// to chunkEntries parities on that node.
func (b *Broker) putGroup(ctx context.Context, node NodeStore, items []store.KV) error {
	step := chunkEntries(b.blockSize)
	for start := 0; start < len(items); start += step {
		chunk := items[start:min(start+step, len(items))]
		if err := node.PutMany(ctx, chunk); err != nil {
			return fmt.Errorf("cooperative: uploading %d blocks: %w", len(chunk), err)
		}
	}
	return nil
}

// fanOut runs fn(0) … fn(n-1) — one call per storage node an operation
// touches, so never per key or per volume — and returns once all have
// returned. A single call runs inline: the one-node case is the clean
// Read and the Backup, where a goroutine hand-off costs more than it
// overlaps. Otherwise the caller's goroutine takes call 0 and n-1
// goroutines take the rest; fn must write only to its own slots.
func fanOut(n int, fn func(i int)) {
	var wg sync.WaitGroup
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i)
		}()
	}
	if n > 0 {
		fn(0)
	}
	wg.Wait()
}

// uploadGrouped ships every storage node its groups as one batched
// transfer, all nodes concurrently: groups are merged by the node they
// routed to, in sorted group order so each node's frame is deterministic.
// The first failure in that order is returned once every node is done.
// rt is the call's route table, nil for a Backup.
func (b *Broker) uploadGrouped(ctx context.Context, rt *routeTable, groups map[string]*routeGroup) error {
	gids := make([]string, 0, len(groups))
	for gid := range groups {
		gids = append(gids, gid)
	}
	sort.Strings(gids)
	var perNode [][]*routeGroup
	slot := make(map[NodeStore]int, 1)
	for _, gid := range gids {
		g := groups[gid]
		k, ok := slot[g.node]
		if !ok {
			k = len(perNode)
			slot[g.node] = k
			perNode = append(perNode, nil)
		}
		perNode[k] = append(perNode[k], g)
	}
	errs := make([]error, len(perNode))
	fanOut(len(perNode), func(i int) {
		errs[i] = b.uploadNode(ctx, rt, perNode[i])
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// uploadNode ships the groups that routed to one node (vols[0].node) as
// one transfer. When the node fails, each of its groups gets exactly one
// second chance through the router: when Invalidate reports the route
// changed (the cluster manager re-placed the volume off a dead node),
// the group is re-routed and retried on the replacement node; a quota
// refusal is never retried — the same write cannot succeed until space
// is freed. The re-route asks the router itself, and once the groups are
// invalidated rt drops every route to the failed node, so the rest of
// the call routes them afresh too.
func (b *Broker) uploadNode(ctx context.Context, rt *routeTable, vols []*routeGroup) error {
	items := vols[0].items
	if len(vols) > 1 {
		total := 0
		for _, g := range vols {
			total += len(g.items)
		}
		items = make([]store.KV, 0, total)
		for _, g := range vols {
			items = append(items, g.items...)
		}
	}
	err := b.putGroup(ctx, vols[0].node, items)
	if err == nil || errors.Is(err, store.ErrQuotaExceeded) {
		return err
	}
	defer rt.forgetNode(vols[0].node)
	for _, g := range vols {
		moved, ierr := b.router.Invalidate(ctx, g.gid)
		if ierr != nil || !moved {
			return err
		}
		node, _, rerr := b.route(ctx, g.repKey, g.repE)
		if rerr != nil {
			return fmt.Errorf("cooperative: re-routing group %s: %w (after %v)", g.gid, rerr, err)
		}
		if err := b.putGroup(ctx, node, g.items); err != nil {
			return err
		}
	}
	return nil
}

// parityArena returns the broker's reusable α-buffer upload frame,
// allocating it on first use as one contiguous backing slab.
func (b *Broker) parityArena() [][]byte {
	if b.parityBufs == nil {
		backing := make([]byte, b.params.Alpha*b.blockSize)
		b.parityBufs = make([][]byte, b.params.Alpha)
		for k := range b.parityBufs {
			b.parityBufs[k] = backing[k*b.blockSize : (k+1)*b.blockSize]
		}
	}
	return b.parityBufs
}

// Backup entangles one data block: the block stays local, its α parities
// are uploaded to their responsible nodes — grouped so every storage node
// receives at most one batched frame per Backup call. It returns the
// lattice position. The parities are encoded into the broker's reusable
// frame arena and recycled after upload, so steady-state backup does not
// allocate per block.
func (b *Broker) Backup(ctx context.Context, data []byte) (int, error) {
	if len(data) != b.blockSize {
		return 0, fmt.Errorf("cooperative: block has %d bytes, want %d", len(data), b.blockSize)
	}
	ent, err := b.enc.EntangleInto(data, b.parityArena())
	if err != nil {
		return 0, err
	}
	if err := b.upload(ctx, ent.Parities); err != nil {
		return 0, err
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	b.mu.Lock()
	b.local[ent.Index] = cp
	b.count = ent.Index
	b.mu.Unlock()
	return ent.Index, nil
}

// upload ships one Backup's parities: Table III step 3, "compute location
// key", then one PutMany per node. The keys are built in one allocation.
// When the router names groups and the parities share one — always under
// cluster.Router, whose volumes hold every class of a position — the block
// is routed once and goes out with no grouping map; otherwise every
// parity is routed and the groups merge per node.
func (b *Broker) upload(ctx context.Context, parities []entangle.Parity) error {
	keys := b.parityKeys(len(parities), func(k int) lattice.Edge { return parities[k].Edge })
	if gr, ok := b.router.(GroupRouter); ok && oneGroup(gr, parities) {
		e := parities[0].Edge
		node, gid, err := b.route(ctx, keys[0], e)
		if err != nil {
			return fmt.Errorf("cooperative: routing %s: %w", keys[0], err)
		}
		items := make([]store.KV, len(parities))
		for k, p := range parities {
			items[k] = store.KV{Key: keys[k], Data: p.Data}
		}
		return b.uploadNode(ctx, nil, []*routeGroup{{node: node, gid: gid, repE: e, repKey: keys[0], items: items}})
	}
	groups := make(map[string]*routeGroup, len(parities))
	for k, p := range parities {
		node, gid, err := b.route(ctx, keys[k], p.Edge)
		if err != nil {
			return fmt.Errorf("cooperative: routing %s: %w", keys[k], err)
		}
		addToGroup(groups, node, gid, p.Edge, keys[k], p.Data)
	}
	return b.uploadGrouped(ctx, nil, groups)
}

// oneGroup reports whether gr puts all of a block's α ≥ 1 parities in one
// group.
func oneGroup(gr GroupRouter, parities []entangle.Parity) bool {
	g := gr.Group(parities[0].Edge)
	for _, p := range parities[1:] {
		if gr.Group(p.Edge) != g {
			return false
		}
	}
	return true
}

// BackupStream splits r into blockSize blocks (zero-padding the tail) and
// backs up each. It returns the positions written and the total bytes read.
func (b *Broker) BackupStream(ctx context.Context, r io.Reader) (positions []int, n int64, err error) {
	buf := make([]byte, b.blockSize)
	for {
		read, rerr := io.ReadFull(r, buf)
		if errors.Is(rerr, io.EOF) {
			return positions, n, nil
		}
		if errors.Is(rerr, io.ErrUnexpectedEOF) {
			for i := read; i < len(buf); i++ {
				buf[i] = 0
			}
			pos, berr := b.Backup(ctx, buf)
			if berr != nil {
				return positions, n, berr
			}
			return append(positions, pos), n + int64(read), nil
		}
		if rerr != nil {
			return positions, n, fmt.Errorf("cooperative: reading stream: %w", rerr)
		}
		pos, berr := b.Backup(ctx, buf)
		if berr != nil {
			return positions, n, berr
		}
		positions = append(positions, pos)
		n += int64(read)
	}
}

// DropLocal simulates the loss of the user's machine: local d-blocks are
// forgotten and must be decoded from remote parities.
func (b *Broker) DropLocal(positions ...int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(positions) == 0 {
		b.local = make(map[int]([]byte))
		return
	}
	for _, i := range positions {
		delete(b.local, i)
	}
}

// Read returns block i: from the local store in the failure-free case
// ("users can access their data directly from their local computers,
// decoding is not required"), otherwise decoded from remote parities via
// the first complete pp-tuple, falling back to multi-round repair. Each
// tuple tried costs one exchange. When both parities live on one node
// that can decode, it is one XorMany frame and the node sends their XOR:
// one block on the wire, and the broker keeps that block as is. Any
// other tuple — straddling two nodes, with a virtual member at the
// lattice head, or on a node without the op or that refuses it — travels
// as its two parities, in one GetMany frame when they share a node and
// in two concurrent frames otherwise, XORed here. A context that ends
// mid-read is returned as is — it is not mistaken for missing parities
// and answered with a repair.
func (b *Broker) Read(ctx context.Context, i int) ([]byte, error) {
	b.mu.RLock()
	count := b.count
	d, held := b.local[i]
	if held {
		out := make([]byte, len(d))
		copy(out, d)
		b.mu.RUnlock()
		return out, nil
	}
	b.mu.RUnlock()
	if i < 1 || i > count {
		return nil, fmt.Errorf("cooperative: position %d out of range [1,%d]", i, count)
	}
	st := b.netStore()
	tuples, err := b.rep.Lattice().Tuples(i)
	if err != nil {
		return nil, err
	}
	for _, t := range tuples {
		data, err := st.decodeTuple(ctx, t)
		if err != nil {
			return nil, err
		}
		if data == nil {
			continue
		}
		out := make([]byte, len(data))
		copy(out, data)
		b.mu.Lock()
		b.local[i] = data
		b.mu.Unlock()
		return out, nil
	}
	// No complete tuple: run rounds over the whole lattice, then retry.
	if _, err := b.rep.Repair(ctx, st, entangle.Options{}); err != nil {
		return nil, err
	}
	b.mu.RLock()
	d, held = b.local[i]
	if held {
		out := make([]byte, len(d))
		copy(out, d)
		b.mu.RUnlock()
		return out, nil
	}
	b.mu.RUnlock()
	return nil, fmt.Errorf("cooperative: block %d is unrecoverable", i)
}

// Missing reports the broker's current loss picture without repairing
// anything: data blocks the user's machine lost, and parities no
// storage node currently serves (enumerated presence-only). It is the
// health probe behind "do I need to run Repair" — cheap enough to poll,
// since no block contents move.
func (b *Broker) Missing(ctx context.Context) (store.Missing, error) {
	return b.netStore().Missing(ctx)
}

// Repair is the broker's unified repair entrypoint: it drives the
// engine over the broker's network view with the caller's options —
// whole-lattice rounds by default, or rounds over opts.Targets with a rate
// limit when background maintenance calls ("all users will be
// interested in the regeneration of their lattices to maintain the same
// level of redundancy", §IV.A). It returns the engine statistics.
func (b *Broker) Repair(ctx context.Context, opts entangle.Options) (entangle.Stats, error) {
	return b.rep.Repair(ctx, b.netStore(), opts)
}

// Health is the broker's single health probe: one Missing enumeration
// scored by lattice geometry (missing blocks, intact repair tuples per
// missing block, urgency score). It replaces ad-hoc Missing+Count
// pairs — cheap enough to poll, since no block contents move.
func (b *Broker) Health(ctx context.Context) (entangle.Health, error) {
	b.mu.RLock()
	count := b.count
	b.mu.RUnlock()
	return b.rep.Health(ctx, b.netStore(), count)
}

// RecoverOptions configures RecoverState.
type RecoverOptions struct {
	// Count is how many blocks had been backed up before the crash.
	Count int
	// Local holds the data blocks still present on the user's machine,
	// keyed by position. The broker copies them.
	Local map[int][]byte
}

// RecoverState rebuilds a broker's encoder state after a crash: the
// strand heads are re-fetched from the storage nodes (§IV.A: "it only
// needs to retrieve the p-blocks from the remote nodes"). opts.Count
// tells the recovered broker how many blocks had been backed up;
// opts.Local holds the data blocks still present on the user's machine.
func (b *Broker) RecoverState(ctx context.Context, opts RecoverOptions) error {
	count, local := opts.Count, opts.Local
	if count < 0 {
		return fmt.Errorf("cooperative: negative count %d", count)
	}
	b.mu.Lock()
	b.count = count
	b.local = make(map[int][]byte, len(local))
	for i, d := range local {
		cp := make([]byte, len(d))
		copy(cp, d)
		b.local[i] = cp
	}
	b.mu.Unlock()
	next := count + 1
	lat := b.enc.Lattice()
	heads := make([]entangle.StrandHead, 0, b.params.StrandCount())
	seen := make(map[int]bool, b.params.StrandCount())
	// The head of a strand is the out-edge of the last node ≤ count on it;
	// scan backwards until every strand is covered or positions run out.
	for i := count; i >= 1 && len(seen) < b.params.StrandCount(); i-- {
		for _, class := range lat.Classes() {
			sid, err := lat.StrandID(class, i)
			if err != nil {
				return err
			}
			if seen[sid] {
				continue
			}
			seen[sid] = true
			out, err := lat.OutEdge(class, i)
			if err != nil {
				return err
			}
			key := b.parityKey(out)
			node, _, err := b.route(ctx, key, out)
			if err != nil {
				return fmt.Errorf("cooperative: routing head %s: %w", key, err)
			}
			data, err := node.Get(ctx, key)
			if err != nil {
				return fmt.Errorf("cooperative: recovering head %s: %w", key, err)
			}
			heads = append(heads, entangle.StrandHead{StrandID: sid, Data: data})
		}
	}
	// Strands never touched (count small) keep their zero seed.
	return b.enc.RestoreHeads(next, heads)
}

// netStore adapts the broker's view of the network to the unified
// BlockStore dialect so the generic repair engine can drive repairs. It
// is pure routing and batching: refs and keys map to responsible nodes,
// and bulk operations group by node — whatever routing groups the router
// reports — and reach all nodes concurrently, one batched frame per node
// and chunk. It keeps no block cache — round-based repair's read locality
// lives in the engine's own round prefetch, which arrives here as one
// GetMany over the tuples the round chose — only the call's routes.
type netStore struct {
	b      *Broker // block state accessed under b.mu (the broker's own lock)
	routes routeTable
}

var (
	_ store.BlockStore = (*netStore)(nil)
	_ store.XorPutter  = (*netStore)(nil)
)

// netStore returns the view of one broker call, with a route table of
// its own.
func (b *Broker) netStore() *netStore {
	s := &netStore{b: b}
	s.routes.b = b
	s.routes.gr, _ = b.router.(GroupRouter)
	return s
}

// GetData implements store.Source: the user's local block store.
func (s *netStore) GetData(ctx context.Context, i int) ([]byte, error) {
	s.b.mu.RLock()
	defer s.b.mu.RUnlock()
	d, ok := s.b.local[i]
	if !ok {
		return nil, fmt.Errorf("cooperative: d%d: %w", i, store.ErrNotFound)
	}
	return d, nil
}

// GetParity implements store.Source: a remote fetch from the responsible
// node (Table III step 4). A block that is not blockSize long is missing.
func (s *netStore) GetParity(ctx context.Context, e lattice.Edge) ([]byte, error) {
	if e.IsVirtual() {
		return store.ZeroBlock(s.b.blockSize), nil
	}
	s.b.mu.RLock()
	count := s.b.count
	s.b.mu.RUnlock()
	if e.Left > count {
		return nil, fmt.Errorf("cooperative: parity %v never created: %w", e, store.ErrNotFound)
	}
	key := s.b.parityKey(e)
	node, _, err := s.routes.route(ctx, e, key)
	if err != nil {
		return nil, fmt.Errorf("cooperative: routing %s: %w", key, err)
	}
	data, err := node.Get(ctx, key)
	if errors.Is(err, store.ErrUnavailable) {
		s.routes.forgetNode(node)
	}
	if err == nil && len(data) != s.b.blockSize {
		return nil, fmt.Errorf("cooperative: %s holds %d bytes, want %d: %w", key, len(data), s.b.blockSize, store.ErrNotFound)
	}
	return data, err
}

// PutData implements store.BlockStore: repaired data returns to the user.
func (s *netStore) PutData(ctx context.Context, i int, b []byte) error {
	cp := make([]byte, len(b))
	copy(cp, b)
	s.b.mu.Lock()
	s.b.local[i] = cp
	s.b.mu.Unlock()
	return nil
}

// PutParity implements store.BlockStore: repaired parities are re-uploaded
// (Table III step 5). The node transmits or copies before returning, so
// callers may recycle the slice after return.
func (s *netStore) PutParity(ctx context.Context, e lattice.Edge, data []byte) error {
	key := s.b.parityKey(e)
	node, _, err := s.routes.route(ctx, e, key)
	if err != nil {
		return fmt.Errorf("cooperative: routing %s: %w", key, err)
	}
	err = node.Put(ctx, key, data)
	if errors.Is(err, store.ErrUnavailable) {
		s.routes.forgetNode(node)
	}
	return err
}

// fetchFromNode fetches keys from one node, one GetMany frame per
// chunkEntries-sized chunk. The result has one entry per key; a nil entry
// means the block is missing, is not blockSize long (no XOR could use
// it), or the node was unreachable for its chunk.
func (s *netStore) fetchFromNode(ctx context.Context, node NodeStore, keys []string) [][]byte {
	out := make([][]byte, len(keys))
	step := chunkEntries(s.b.blockSize)
	for start := 0; start < len(keys); start += step {
		end := min(start+step, len(keys))
		blocks, err := node.GetMany(ctx, keys[start:end])
		if errors.Is(err, store.ErrUnavailable) {
			s.routes.forgetNode(node)
		}
		if err != nil || len(blocks) != end-start {
			continue // node unreachable (or confused): chunk stays nil
		}
		for j, blk := range blocks {
			if len(blk) == s.b.blockSize {
				out[start+j] = blk
			}
		}
	}
	return out
}

// nodeKeys is one storage node's share of a bulk read: the keys it is
// responsible for and, per key, the caller's result slot it answers.
type nodeKeys struct {
	node  NodeStore
	keys  []string
	slots []int
}

// keysByNode groups routed keys by the NodeStore serving them, in order
// of first appearance. Routers hand out one comparable NodeStore value
// per node (a client pointer), which is what makes it a map key.
type keysByNode struct {
	index map[NodeStore]int
	nodes []nodeKeys
}

func (g *keysByNode) add(node NodeStore, key string, slot int) {
	k := g.nodeIndex(node)
	g.nodes[k].keys = append(g.nodes[k].keys, key)
	g.nodes[k].slots = append(g.nodes[k].slots, slot)
}

// nodeIndex returns node's place in g.nodes, adding it on first sight.
func (g *keysByNode) nodeIndex(node NodeStore) int {
	k, ok := g.index[node]
	if !ok {
		if g.index == nil {
			g.index = make(map[NodeStore]int)
		}
		k = len(g.nodes)
		g.index[node] = k
		g.nodes = append(g.nodes, nodeKeys{node: node})
	}
	return k
}

// fill hands keys[k] with slot k to the node at index owner[k] — none
// when it is negative — sizing each node's lists exactly, so a sweep
// over many keys allocates per node, not per key. The nodes come from
// nodeIndex and hold no keys yet.
func (g *keysByNode) fill(owner []int, keys []string) {
	counts := make([]int, len(g.nodes))
	for _, o := range owner {
		if o >= 0 {
			counts[o]++
		}
	}
	for k, c := range counts {
		g.nodes[k].keys = make([]string, 0, c)
		g.nodes[k].slots = make([]int, 0, c)
	}
	for k, o := range owner {
		if o >= 0 {
			g.nodes[o].keys = append(g.nodes[o].keys, keys[k])
			g.nodes[o].slots = append(g.nodes[o].slots, k)
		}
	}
}

// GetMany implements store.BlockStore: data refs are served from the
// user's machine, parity refs are grouped by responsible node and fetched
// from all nodes concurrently, one batched frame per node and chunk. This
// is the path the repair engine's round prefetch travels, and Read's
// pp-tuple fetch when no one node can decode the tuple. A context that
// ends during the fetch is an error, not a batch of missing blocks.
func (s *netStore) GetMany(ctx context.Context, refs []store.Ref) ([][]byte, error) {
	out, groups := s.resolve(ctx, refs)
	s.fetchGroups(ctx, &groups, out)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// decodeTuple returns the data block a pp-tuple decodes to, t.In ⊕
// t.Out, or nil when a member is missing. When one node serves both
// parities and can decode, it is asked for their XOR, and the block it
// sends is the result; otherwise both parities are fetched as GetMany
// would and XORed here.
func (s *netStore) decodeTuple(ctx context.Context, t lattice.Tuple) ([]byte, error) {
	pair, groups := s.resolve(ctx, []store.Ref{store.ParityRef(t.In), store.ParityRef(t.Out)})
	if len(groups.nodes) == 1 && len(groups.nodes[0].keys) == 2 {
		if xn, ok := groups.nodes[0].node.(xorNode); ok {
			res, err := xn.XorMany(ctx, groups.nodes[0].keys)
			if cerr := ctx.Err(); cerr != nil {
				return nil, cerr
			}
			switch {
			case err == nil && len(res) == 1:
				obsReadNodeXor.Inc()
				if len(res[0]) != s.b.blockSize {
					return nil, nil // a member is missing or of the wrong size
				}
				return res[0], nil
			case errors.Is(err, store.ErrUnavailable):
				s.routes.forgetNode(groups.nodes[0].node)
				return nil, nil // as a failed GetMany: the members are missing
			}
			// A refusal: fetch the pair instead.
		}
	}
	obsReadPairFetch.Inc()
	s.fetchGroups(ctx, &groups, pair)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if pair[0] == nil || pair[1] == nil {
		return nil, nil
	}
	return xorblock.Xor(pair[0], pair[1])
}

// resolve answers what the broker holds itself — the user's data blocks
// and virtual parities — into a result with one entry per ref, and
// groups every other parity by the node serving it. A parity never
// created or not routable joins no group and stays nil.
func (s *netStore) resolve(ctx context.Context, refs []store.Ref) ([][]byte, keysByNode) {
	out := make([][]byte, len(refs))
	// Partition refs: local data and virtual parities answer under the
	// lock, real parities collect for routing (the router may do I/O, so
	// it runs outside the lock).
	type pending struct {
		pos  int
		edge lattice.Edge
	}
	var remote []pending
	s.b.mu.RLock()
	count := s.b.count
	for idx, r := range refs {
		if !r.Parity {
			if d, ok := s.b.local[r.Index]; ok {
				out[idx] = d
			}
			continue
		}
		if r.Edge.IsVirtual() {
			out[idx] = store.ZeroBlock(s.b.blockSize)
			continue
		}
		if r.Edge.Left > count {
			continue // never created
		}
		remote = append(remote, pending{pos: idx, edge: r.Edge})
	}
	s.b.mu.RUnlock()
	keys := s.b.parityKeys(len(remote), func(k int) lattice.Edge { return remote[k].edge })
	var groups keysByNode
	for k, p := range remote {
		node, _, err := s.routes.route(ctx, p.edge, keys[k])
		if err != nil {
			continue // unroutable this round: the block stays missing
		}
		groups.add(node, keys[k], p.pos)
	}
	return out, groups
}

// fetchGroups fetches every group from its node, all nodes concurrently,
// into the result slots the groups name.
func (s *netStore) fetchGroups(ctx context.Context, groups *keysByNode, out [][]byte) {
	fanOut(len(groups.nodes), func(i int) {
		g := &groups.nodes[i]
		for j, blk := range s.fetchFromNode(ctx, g.node, g.keys) {
			out[g.slots[j]] = blk
		}
	})
}

// PutMany implements store.BlockStore: repaired data blocks return to the
// user's machine, repaired parities are grouped by responsible node and
// re-uploaded to all nodes concurrently, one batched frame per node and
// chunk — the commit half of the one-frame-per-node-per-round traffic
// shape. Its only caller is repair, so every parity it uploads counts as
// one the broker rebuilt.
func (s *netStore) PutMany(ctx context.Context, blocks []store.Block) error {
	var parities []int // the blocks that go to nodes
	for k, blk := range blocks {
		if !blk.Ref.Parity {
			if err := s.PutData(ctx, blk.Ref.Index, blk.Data); err != nil {
				return err
			}
			continue
		}
		parities = append(parities, k)
	}
	keys := s.b.parityKeys(len(parities), func(k int) lattice.Edge { return blocks[parities[k]].Ref.Edge })
	groups := make(map[string]*routeGroup)
	for k, idx := range parities {
		// blocks[idx].Data stays valid for the whole call (the engine
		// recycles it only after PutMany returns), and the NodeStore
		// contract has each node copy or transmit before its Put/PutMany
		// returns — so no extra copy is needed here.
		e := blocks[idx].Ref.Edge
		node, gid, err := s.routes.route(ctx, e, keys[k])
		if err != nil {
			return fmt.Errorf("cooperative: routing %s: %w", keys[k], err)
		}
		addToGroup(groups, node, gid, e, keys[k], blocks[idx].Data)
	}
	if err := s.b.uploadGrouped(ctx, &s.routes, groups); err != nil {
		return err
	}
	obsRepairPairFetch.Add(int64(len(parities)))
	return nil
}

// InPlace implements store.XorPutter: the parity dst can be rebuilt on
// the node its companion src lives on when both route to one node that
// implements the op and has not refused it.
func (s *netStore) InPlace(ctx context.Context, dst, src store.Ref) bool {
	_, ok := s.inPlace(ctx, dst, src)
	return ok
}

// inPlace resolves an in-place rebuild: the node dst and src both route
// to. Under a GroupRouter both routes come from the call's table; no key
// is named unless the router must be asked.
func (s *netStore) inPlace(ctx context.Context, dst, src store.Ref) (xorPutNode, bool) {
	if !dst.Parity || !src.Parity || src.Edge.IsVirtual() {
		return nil, false
	}
	dn, _, err := s.routes.route(ctx, dst.Edge, "")
	if err != nil {
		return nil, false
	}
	sn, _, err := s.routes.route(ctx, src.Edge, "")
	if err != nil || sn != dn {
		return nil, false
	}
	xn, ok := dn.(xorPutNode)
	if !ok {
		return nil, false
	}
	if _, refused := s.b.noXorPut.Load(xn); refused {
		return nil, false
	}
	return xn, true
}

// XorPutMany implements store.XorPutter, Table III steps 4–5 on the node:
// the items go to the node InPlace found them on, all nodes concurrently,
// one XorPutMany frame per node and chunkEntries-sized chunk, and the
// node stores Data ⊕ Src. An unreachable node answers false for its
// items, as its GetMany leaves them nil; a quota refusal or a context
// that ends is the batch's error. A node that refuses the op — one that
// predates it answers "unknown op" — is not asked again, and the items
// it refused, like any whose route has moved off one node since InPlace,
// are rebuilt by the broker.
func (s *netStore) XorPutMany(ctx context.Context, items []store.XorPut) ([]bool, error) {
	type nodeItems struct {
		node  xorPutNode
		items []store.XorKV
		slots []int
	}
	var here []int         // the items the broker rebuilds
	var sent []int         // the items a node rebuilds,
	var nodes []xorPutNode // and the node each goes to
	for k, it := range items {
		node, ok := s.inPlace(ctx, it.Dst, it.Src)
		if !ok {
			here = append(here, k)
			continue
		}
		sent = append(sent, k)
		nodes = append(nodes, node)
	}
	// Item m's dst and src keys are keys[2m] and keys[2m+1].
	keys := s.b.parityKeys(2*len(sent), func(m int) lattice.Edge {
		it := items[sent[m/2]]
		if m%2 == 0 {
			return it.Dst.Edge
		}
		return it.Src.Edge
	})
	var groups []nodeItems
	index := make(map[xorPutNode]int)
	for m, k := range sent {
		g, seen := index[nodes[m]]
		if !seen {
			g = len(groups)
			index[nodes[m]] = g
			groups = append(groups, nodeItems{node: nodes[m]})
		}
		groups[g].items = append(groups[g].items, store.XorKV{Dst: keys[2*m], Src: keys[2*m+1], Data: items[k].Data})
		groups[g].slots = append(groups[g].slots, k)
	}
	applied := make([]bool, len(items))
	refused := make([][]int, len(groups))
	errs := make([]error, len(groups))
	fanOut(len(groups), func(i int) {
		refused[i], errs[i] = s.pushToNode(ctx, groups[i].node, groups[i].items, groups[i].slots, applied)
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	for _, r := range refused {
		here = append(here, r...)
	}
	if len(here) > 0 {
		if err := s.rebuildHere(ctx, items, here, applied); err != nil {
			return nil, err
		}
	}
	return applied, nil
}

// pushToNode sends one node its items, one XorPutMany frame per
// chunkEntries-sized chunk, and marks the slots of the parities it stored
// in applied. A chunk the node could not be reached for stays false, and
// a quota refusal is the error. When the node refuses the op it is
// remembered as refusing, and the slots of the chunk and of every chunk
// after it are returned unsent for the broker to rebuild.
func (s *netStore) pushToNode(ctx context.Context, node xorPutNode, items []store.XorKV, slots []int, applied []bool) ([]int, error) {
	step := chunkEntries(s.b.blockSize)
	for start := 0; start < len(items); start += step {
		end := min(start+step, len(items))
		res, err := node.XorPutMany(ctx, items[start:end])
		switch {
		case err == nil && len(res) == end-start:
			for m, k := range slots[start:end] {
				if res[m] {
					applied[k] = true
					obsRepairNodeXor.Inc()
				}
			}
		case errors.Is(err, store.ErrQuotaExceeded):
			return nil, fmt.Errorf("cooperative: rebuilding %d parities: %w", end-start, err)
		case errors.Is(err, store.ErrUnavailable):
			// As a failed GetMany: the companions are missing this round.
			s.routes.forgetNode(node)
		case ctx.Err() != nil:
			// The caller gave up; the node refused nothing.
		default: // a refusal, or an answer of the wrong length
			s.b.noXorPut.Store(node, true)
			return slots[start:], nil
		}
	}
	return nil, nil
}

// rebuildHere is Table III steps 4–5 on the broker for the items at
// slots: their companions in one GetMany, the XOR here, the results in
// one PutMany, as a repair round without in-place rebuilds does. An item
// whose companion does not arrive stays false.
func (s *netStore) rebuildHere(ctx context.Context, items []store.XorPut, slots []int, applied []bool) error {
	srcs := make([]store.Ref, len(slots))
	for m, k := range slots {
		srcs[m] = items[k].Src
	}
	companions, err := s.GetMany(ctx, srcs)
	if err != nil {
		return err
	}
	var rebuilt []store.Block
	var done []int
	for m, k := range slots {
		if c := companions[m]; c != nil && len(c) == len(items[k].Data) {
			x, err := xorblock.Xor(items[k].Data, c)
			if err != nil {
				return err
			}
			rebuilt = append(rebuilt, store.Block{Ref: items[k].Dst, Data: x})
			done = append(done, k)
		}
	}
	if err := s.PutMany(ctx, rebuilt); err != nil {
		return err
	}
	for _, k := range done {
		applied[k] = true
	}
	return nil
}

// heldOnNode answers the enumeration question for one node — which of
// these keys do you hold — in presence-only StatMany frames. One entry
// per key; an unreachable node holds nothing this round.
func (s *netStore) heldOnNode(ctx context.Context, node NodeStore, keys []string) []bool {
	held := make([]bool, len(keys))
	// Presence flags are one byte per key, so the chunking that keeps
	// content batches under the frame limit is only needed for the entry
	// count, not the byte budget.
	for start := 0; start < len(keys); start += batchChunk {
		end := min(start+batchChunk, len(keys))
		flags, err := node.StatMany(ctx, keys[start:end])
		if errors.Is(err, store.ErrUnavailable) {
			s.routes.forgetNode(node)
		}
		if err != nil || len(flags) != end-start {
			continue // node unreachable (or confused): chunk stays false
		}
		copy(held[start:end], flags)
	}
	return held
}

// Missing implements store.BlockStore: every data block the user's machine
// lost, and every parity the lattice says should exist but no node
// serves, asked of all nodes concurrently. Nodes answer with StatMany
// flags — no block contents cross the wire for enumeration, and the
// engine asks once per Repair, so the round prefetch is the only content
// transfer of a repair run.
// A context that ends during the enumeration is an error, not a lattice
// with everything missing.
func (s *netStore) Missing(ctx context.Context) (store.Missing, error) {
	if err := ctx.Err(); err != nil {
		return store.Missing{}, err
	}
	var m store.Missing
	s.b.mu.RLock()
	count := s.b.count
	for i := 1; i <= count; i++ {
		if _, ok := s.b.local[i]; !ok {
			m.Data = append(m.Data, i)
		}
	}
	s.b.mu.RUnlock()

	lat := s.b.rep.Lattice()
	// expected lists every parity that should exist; held[k] turns true
	// when the node responsible for expected[k] reports it. An unroutable
	// parity joins no group and so stays missing: repair keeps trying
	// once routes come back. The keys are one allocation and, under a
	// GroupRouter, the routes one per volume.
	expected := make([]lattice.Edge, 0, count*len(lat.Classes()))
	for i := 1; i <= count; i++ {
		for _, class := range lat.Classes() {
			if e, err := lat.OutEdge(class, i); err == nil {
				expected = append(expected, e)
			}
		}
	}
	keys := s.b.parityKeys(len(expected), func(k int) lattice.Edge { return expected[k] })
	var groups keysByNode
	owner := make([]int, len(expected))
	for k, e := range expected {
		owner[k] = -1
		if node, _, err := s.routes.route(ctx, e, keys[k]); err == nil {
			owner[k] = groups.nodeIndex(node)
		}
	}
	groups.fill(owner, keys)
	held := make([]bool, len(expected))
	fanOut(len(groups.nodes), func(i int) {
		g := &groups.nodes[i]
		// A false entry covers both "node answered: not held" and "node
		// unreachable" — either way the block is missing this round.
		for j, ok := range s.heldOnNode(ctx, g.node, g.keys) {
			held[g.slots[j]] = ok
		}
	})
	if err := ctx.Err(); err != nil {
		return store.Missing{}, err
	}
	for k, e := range expected {
		if !held[k] {
			m.Parities = append(m.Parities, e)
		}
	}
	sort.Slice(m.Parities, func(a, b int) bool {
		if m.Parities[a].Class != m.Parities[b].Class {
			return m.Parities[a].Class < m.Parities[b].Class
		}
		return m.Parities[a].Left < m.Parities[b].Left
	})
	return m, nil
}
