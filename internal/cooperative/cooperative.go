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
// the broker obtains the dp-tuple ids from the lattice, chooses a p-block,
// computes its location key, fetches it from the responsible node, and
// XORs it with the local d-block. Data blocks lost with the user's machine
// are regenerated from pp-tuples fetched from two nodes. Whole-lattice
// repair reuses the round-based engine of internal/entangle through a
// network-backed BlockStore adapter that is pure routing + batching.
//
// Every bulk operation groups its keys by the NodeStore the Router
// resolves — not by the router's group id, which under cluster.Router is
// a volume, many of which share a node — and runs the per-node exchanges
// concurrently. So under any router the engine's missing-block
// enumeration (once per Repair), each round's GetMany of the tuples it
// chose and each round's commit cost one batched frame per storage node
// touched (one per chunkEntries-sized chunk when a batch outgrows a
// frame), and their wall clock is the slowest node's, not the sum. Read fetches a pp-tuple the same way: one
// GetMany frame when both parities share a node, two frames in flight
// together when they do not.
package cooperative

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"aecodes/internal/blockstore"
	"aecodes/internal/entangle"
	"aecodes/internal/lattice"
	"aecodes/internal/store"
	tenantpkg "aecodes/internal/tenant"
	"aecodes/internal/xorblock"
)

// ErrNotFound is returned by NodeStore implementations for missing
// blocks. It wraps the repository-wide store.ErrNotFound sentinel, so
// errors.Is works with either across every backend.
var ErrNotFound = fmt.Errorf("cooperative: %w", store.ErrNotFound)

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

// InMemoryNode is a NodeStore backed by a map, with a switchable
// availability flag to simulate node failures. It is safe for concurrent
// use and counts single-block and batched requests in both directions so
// tests can assert traffic shapes.
type InMemoryNode struct {
	mu            sync.RWMutex
	blocks        map[string][]byte
	down          bool
	tenant        string
	getCalls      int
	batchGetCalls int
	putCalls      int
	batchPutCalls int
	statCalls     int
}

var _ NodeStore = (*InMemoryNode)(nil)

// NewInMemoryNode returns an empty, available node.
func NewInMemoryNode() *InMemoryNode {
	return &InMemoryNode{blocks: make(map[string][]byte)}
}

// SetDown toggles the node's availability.
func (n *InMemoryNode) SetDown(down bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.down = down
}

// Get implements NodeStore.
func (n *InMemoryNode) Get(ctx context.Context, key string) ([]byte, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.getCalls++
	if n.down {
		return nil, fmt.Errorf("cooperative: %w", store.ErrUnavailable)
	}
	b, ok := n.blocks[key]
	if !ok {
		return nil, ErrNotFound
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out, nil
}

// GetMany implements NodeStore: one simulated request frame however
// many keys are asked for.
func (n *InMemoryNode) GetMany(ctx context.Context, keys []string) ([][]byte, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.batchGetCalls++
	if n.down {
		return nil, fmt.Errorf("cooperative: %w", store.ErrUnavailable)
	}
	out := make([][]byte, len(keys))
	for i, key := range keys {
		if b, ok := n.blocks[key]; ok {
			cp := make([]byte, len(b))
			copy(cp, b)
			out[i] = cp
		}
	}
	return out, nil
}

// StatMany implements NodeStore: one simulated presence-only frame
// for the whole key list.
func (n *InMemoryNode) StatMany(ctx context.Context, keys []string) ([]bool, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.statCalls++
	if n.down {
		return nil, fmt.Errorf("cooperative: %w", store.ErrUnavailable)
	}
	out := make([]bool, len(keys))
	for i, key := range keys {
		_, out[i] = n.blocks[key]
	}
	return out, nil
}

// Hello implements NodeStore: the test double just records the
// credential (its flat map stands in for one tenant's namespace).
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
	n.putCalls++
	if n.down {
		return fmt.Errorf("cooperative: %w", store.ErrUnavailable)
	}
	n.storeLocked(key, data)
	return nil
}

// PutMany implements NodeStore: one simulated request frame for the
// whole batch.
func (n *InMemoryNode) PutMany(ctx context.Context, items []store.KV) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.batchPutCalls++
	if n.down {
		return fmt.Errorf("cooperative: %w", store.ErrUnavailable)
	}
	for _, it := range items {
		n.storeLocked(it.Key, it.Data)
	}
	return nil
}

func (n *InMemoryNode) storeLocked(key string, data []byte) {
	cp := make([]byte, len(data))
	copy(cp, data)
	n.blocks[key] = cp
}

// GetCalls returns the number of single-block Get requests served.
func (n *InMemoryNode) GetCalls() int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.getCalls
}

// BatchCalls returns the number of GetMany requests served.
func (n *InMemoryNode) BatchCalls() int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.batchGetCalls
}

// PutCalls returns the number of single-block Put requests served.
func (n *InMemoryNode) PutCalls() int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.putCalls
}

// BatchPutCalls returns the number of PutMany requests served.
func (n *InMemoryNode) BatchPutCalls() int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.batchPutCalls
}

// BatchStatCalls returns the number of StatMany requests served.
func (n *InMemoryNode) BatchStatCalls() int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.statCalls
}

// ResetCounters zeroes the request counters.
func (n *InMemoryNode) ResetCounters() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.getCalls, n.batchGetCalls, n.putCalls, n.batchPutCalls, n.statCalls = 0, 0, 0, 0, 0
}

// Len returns the number of blocks held (even while down).
func (n *InMemoryNode) Len() int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return len(n.blocks)
}

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
	rep, err := entangle.NewRepairer(params)
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
// the node id and the block position in the lattice" (§IV.A).
func (b *Broker) parityKey(e lattice.Edge) string {
	return b.user + "/" + blockstore.ParityKey(e)
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

// groupParity routes one parity into its group, creating the group on
// first sight (Table III step 3, "compute location key").
func (b *Broker) groupParity(ctx context.Context, groups map[string]*routeGroup, e lattice.Edge, data []byte) error {
	key := b.parityKey(e)
	node, gid, err := b.router.Route(ctx, key, e)
	if err != nil {
		return fmt.Errorf("cooperative: routing %s: %w", key, err)
	}
	g := groups[gid]
	if g == nil {
		g = &routeGroup{node: node, gid: gid, repE: e, repKey: key}
		groups[gid] = g
	}
	g.items = append(g.items, store.KV{Key: key, Data: data})
	return nil
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
func (b *Broker) uploadGrouped(ctx context.Context, groups map[string]*routeGroup) error {
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
		errs[i] = b.uploadNode(ctx, perNode[i])
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
// is freed.
func (b *Broker) uploadNode(ctx context.Context, vols []*routeGroup) error {
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
	for _, g := range vols {
		moved, ierr := b.router.Invalidate(ctx, g.gid)
		if ierr != nil || !moved {
			return err
		}
		node, _, rerr := b.router.Route(ctx, g.repKey, g.repE)
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
	groups := make(map[string]*routeGroup, len(ent.Parities))
	for _, p := range ent.Parities {
		if err := b.groupParity(ctx, groups, p.Edge, p.Data); err != nil {
			return 0, err
		}
	}
	if err := b.uploadGrouped(ctx, groups); err != nil {
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
// tuple tried costs one exchange: both parities travel in one GetMany
// frame when they share a node, in two concurrent frames otherwise. A
// context that ends mid-read is returned as is — it is not mistaken for
// missing parities and answered with a repair.
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
		pair, err := st.GetMany(ctx, []store.Ref{store.ParityRef(t.In), store.ParityRef(t.Out)})
		if err != nil {
			return nil, err
		}
		if pair[0] == nil || pair[1] == nil {
			continue
		}
		data, err := xorblock.Xor(pair[0], pair[1])
		if err != nil {
			return nil, err
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

// RepairParity regenerates one parity block following the Table III steps
// and re-uploads it. It returns the routing group (node ordinal in flat
// mode, volume ID in cluster mode) now holding the block.
func (b *Broker) RepairParity(ctx context.Context, e lattice.Edge) (string, error) {
	data, err := b.rep.RepairParity(ctx, b.netStore(), e)
	if err != nil {
		return "", err
	}
	key := b.parityKey(e)
	node, gid, err := b.router.Route(ctx, key, e)
	if err != nil {
		return "", fmt.Errorf("cooperative: routing %s: %w", key, err)
	}
	if err := node.Put(ctx, key, data); err != nil {
		return "", fmt.Errorf("cooperative: re-uploading %s: %w", key, err)
	}
	return gid, nil
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
			node, _, err := b.router.Route(ctx, key, out)
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
// and chunk. It keeps no cache — round-based repair's read locality lives
// in the engine's own round prefetch, which arrives here as one GetMany
// over the tuples the round chose.
type netStore struct {
	b *Broker // block state accessed under b.mu (the broker's own lock)
}

var _ store.BlockStore = (*netStore)(nil)

func (b *Broker) netStore() *netStore { return &netStore{b: b} }

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
// node (Table III step 4).
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
	node, _, err := s.b.router.Route(ctx, key, e)
	if err != nil {
		return nil, fmt.Errorf("cooperative: routing %s: %w", key, err)
	}
	return node.Get(ctx, key)
}

// PutData implements store.Single: repaired data returns to the user.
func (s *netStore) PutData(ctx context.Context, i int, b []byte) error {
	cp := make([]byte, len(b))
	copy(cp, b)
	s.b.mu.Lock()
	s.b.local[i] = cp
	s.b.mu.Unlock()
	return nil
}

// PutParity implements store.Single: repaired parities are re-uploaded
// (Table III step 5). The node transmits or copies before returning, so
// callers may recycle the slice after return.
func (s *netStore) PutParity(ctx context.Context, e lattice.Edge, data []byte) error {
	key := s.b.parityKey(e)
	node, _, err := s.b.router.Route(ctx, key, e)
	if err != nil {
		return fmt.Errorf("cooperative: routing %s: %w", key, err)
	}
	return node.Put(ctx, key, data)
}

// fetchFromNode fetches keys from one node, one GetMany frame per
// chunkEntries-sized chunk. The result has one entry per key; a nil entry
// means the block is missing or the node was unreachable for its chunk.
func (s *netStore) fetchFromNode(ctx context.Context, node NodeStore, keys []string) [][]byte {
	out := make([][]byte, len(keys))
	step := chunkEntries(s.b.blockSize)
	for start := 0; start < len(keys); start += step {
		end := min(start+step, len(keys))
		blocks, err := node.GetMany(ctx, keys[start:end])
		if err != nil || len(blocks) != end-start {
			continue // node unreachable (or confused): chunk stays nil
		}
		copy(out[start:end], blocks)
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
	k, ok := g.index[node]
	if !ok {
		if g.index == nil {
			g.index = make(map[NodeStore]int)
		}
		k = len(g.nodes)
		g.index[node] = k
		g.nodes = append(g.nodes, nodeKeys{node: node})
	}
	g.nodes[k].keys = append(g.nodes[k].keys, key)
	g.nodes[k].slots = append(g.nodes[k].slots, slot)
}

// GetMany implements store.BlockStore: data refs are served from the
// user's machine, parity refs are grouped by responsible node and fetched
// from all nodes concurrently, one batched frame per node and chunk. This
// is the path the repair engine's round prefetch and Read's pp-tuple fetch
// travel. A context that ends during
// the fetch is an error, not a batch of missing blocks.
func (s *netStore) GetMany(ctx context.Context, refs []store.Ref) ([][]byte, error) {
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
	var groups keysByNode
	for _, p := range remote {
		key := s.b.parityKey(p.edge)
		node, _, err := s.b.router.Route(ctx, key, p.edge)
		if err != nil {
			continue // unroutable this round: the block stays missing
		}
		groups.add(node, key, p.pos)
	}
	fanOut(len(groups.nodes), func(i int) {
		g := &groups.nodes[i]
		for j, blk := range s.fetchFromNode(ctx, g.node, g.keys) {
			out[g.slots[j]] = blk
		}
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// PutMany implements store.BlockStore: repaired data blocks return to the
// user's machine, repaired parities are grouped by responsible node and
// re-uploaded to all nodes concurrently, one batched frame per node and
// chunk — the commit half of the one-frame-per-node-per-round traffic
// shape.
func (s *netStore) PutMany(ctx context.Context, blocks []store.Block) error {
	groups := make(map[string]*routeGroup)
	for _, blk := range blocks {
		if !blk.Ref.Parity {
			if err := s.PutData(ctx, blk.Ref.Index, blk.Data); err != nil {
				return err
			}
			continue
		}
		// blk.Data stays valid for the whole call (the engine recycles it
		// only after PutMany returns), and the NodeStore contract has each
		// node copy or transmit before its Put/PutMany returns — so no
		// extra copy is needed here.
		if err := s.b.groupParity(ctx, groups, blk.Ref.Edge, blk.Data); err != nil {
			return err
		}
	}
	return s.b.uploadGrouped(ctx, groups)
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
		if err != nil || len(flags) != end-start {
			continue // node unreachable (or confused): chunk stays false
		}
		copy(held[start:end], flags)
	}
	return held
}

// Missing implements store.Single: every data block the user's machine
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
	// once routes come back.
	expected := make([]lattice.Edge, 0, count*len(lat.Classes()))
	var groups keysByNode
	for i := 1; i <= count; i++ {
		for _, class := range lat.Classes() {
			e, err := lat.OutEdge(class, i)
			if err != nil {
				continue
			}
			key := s.b.parityKey(e)
			if node, _, rerr := s.b.router.Route(ctx, key, e); rerr == nil {
				groups.add(node, key, len(expected))
			}
			expected = append(expected, e)
		}
	}
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
