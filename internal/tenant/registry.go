package tenant

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"aecodes/internal/obs"
	"aecodes/internal/store"
)

// Backing is the store a Registry wraps: the store.Keyed contract plus
// the index reads quota accounting needs. transport.MemStore and
// segstore.Store both implement it.
type Backing interface {
	store.Keyed
	// Size returns the byte length of the block under key from the
	// backing's index, without reading it: StatBatch's answer for one
	// key, without a slice per call.
	Size(key string) (int64, bool)
	// Each calls fn for every live key with its block size until fn
	// returns false — how the registry rebuilds per-tenant accounting on
	// reopen and finds a victim's keys during eviction. The walk runs
	// under the backing's lock: fn must not call back into the store.
	Each(fn func(key string, size int64) bool)
	// Dropped counts the keys the backing has dropped on its own, not
	// through Del — a segstore drops a record a read, scrub or
	// compaction finds corrupt. The registry rebuilds its accounting
	// with one Each walk when the count moves.
	Dropped() uint64
}

// Usage is one tenant's live footprint.
type Usage struct {
	// Bytes is the sum of the tenant's live block payload sizes (keying
	// and record framing overhead is not charged).
	Bytes int64
	// Blocks is the number of live keys.
	Blocks int64
}

// usage is the internal accounting record. Records are never removed
// from the registry, so a Store handle keeps a pointer to its tenant's.
type usage struct {
	quota  Quota
	bytes  int64
	blocks int64
	// lastUse is the registry clock at the tenant's last read or write;
	// larger = hotter. Atomic: a read stamps it without the registry
	// lock, which a writer holds across its whole backing append.
	lastUse atomic.Int64

	// gBytes and gBlocks are the tenant's footprint gauges, resolved
	// once at record creation so accounting updates never format
	// strings; written only under the registry lock.
	gBytes  *obs.Gauge
	gBlocks *obs.Gauge
}

// Registry multiplexes one backing store between tenants: it hands out
// namespaced, quota-enforcing Store views and runs the eviction policy.
// All methods are safe for concurrent use; writes serialise through the
// registry lock so quota admission, the backing write and the accounting
// update are one atomic step.
type Registry struct {
	backing Backing // write-guarded by mu: mutations must stay atomic with quota accounting
	cfg     Config

	mu        sync.Mutex
	tenants   map[string]*usage // guarded by mu
	handles   map[string]*Store // guarded by mu
	total     int64             // Σ tenants' bytes; guarded by mu
	evictions int64             // tenants evicted so far; guarded by mu
	dropped   uint64            // backing.Dropped() when accounting was last rebuilt; guarded by mu

	clock atomic.Int64 // logical LRU clock; atomic, so reads advance it without mu
}

// NewRegistry wraps backing. The existing keys are walked once to rebuild
// per-tenant accounting — reopening a durable segment store restores
// every tenant's usage without any side file.
//
//lint:ignore lockscope r is unpublished until NewRegistry returns; no other goroutine can hold mu yet
func NewRegistry(backing Backing, cfg Config) (*Registry, error) {
	if backing == nil {
		return nil, fmt.Errorf("tenant: nil backing store")
	}
	r := &Registry{
		backing: backing,
		cfg:     cfg,
		tenants: make(map[string]*usage),
		handles: make(map[string]*Store),
		dropped: backing.Dropped(),
	}
	r.rebuildLocked()
	return r, nil
}

// rebuildLocked recomputes every tenant's accounting from the backing
// with one Each walk and publishes it. Callers hold r.mu (or are inside
// NewRegistry).
func (r *Registry) rebuildLocked() {
	r.total = 0
	for _, u := range r.tenants {
		u.bytes, u.blocks = 0, 0
	}
	r.backing.Each(func(key string, size int64) bool {
		id, ok := tenantOfKey(key)
		if !ok {
			return true // reserved internal key: charged to nobody
		}
		u := r.useLocked(id)
		u.bytes += size
		u.blocks++
		r.total += size
		return true
	})
	for _, u := range r.tenants {
		r.publishUsageLocked(u)
	}
}

// resyncLocked rebuilds the accounting when the backing has dropped keys
// on its own since the last look, so a dropped key stops being charged
// and rewriting it charges it once. The count is read before the walk: a
// drop racing the walk moves it again and the next write rebuilds once
// more. Every write calls this first. Callers hold r.mu.
func (r *Registry) resyncLocked() {
	if dropped := r.backing.Dropped(); dropped != r.dropped {
		r.dropped = dropped
		r.rebuildLocked()
	}
}

// tenantOfKey attributes a backing-store key: tenant-prefixed keys to
// their tenant, other reserved ('!'-prefixed) keys to nobody, everything
// else to the anonymous tenant.
func tenantOfKey(key string) (string, bool) {
	if rest, ok := strings.CutPrefix(key, Prefix); ok {
		idx := strings.IndexByte(rest, '/')
		if idx <= 0 || ValidateID(rest[:idx]) != nil {
			return "", false // malformed; not reachable through a Store view
		}
		return rest[:idx], true
	}
	if strings.HasPrefix(key, "!") {
		return "", false
	}
	return Anonymous, true
}

// useLocked returns (creating if needed) a tenant's accounting record.
// Unknown tenants are admitted here even on strict nodes — accounting
// must cover whatever data already exists; Open is where strictness
// refuses new handshakes. Callers hold r.mu (or are inside NewRegistry).
func (r *Registry) useLocked(id string) *usage {
	u, ok := r.tenants[id]
	if !ok {
		q, err := r.cfg.quotaFor(id)
		if err != nil {
			q = r.cfg.Default
		}
		u = &usage{quota: q}
		u.gBytes, u.gBlocks = usageGauges(id)
		r.tenants[id] = u
		obsTenants.Set(int64(len(r.tenants)))
	}
	return u
}

// Open returns the namespaced, quota-enforcing view of one tenant,
// validating the ID (and, on strict nodes, its enrollment). Handles are
// cached: two Opens of the same tenant share accounting.
func (r *Registry) Open(id string) (*Store, error) {
	if err := ValidateID(id); err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.handles[id]; ok {
		return h, nil
	}
	if _, ok := r.tenants[id]; !ok {
		// A brand-new tenant: strictness applies.
		if _, err := r.cfg.quotaFor(id); err != nil {
			return nil, err
		}
	}
	h := &Store{reg: r, id: id, use: r.useLocked(id)}
	r.handles[id] = h
	return h, nil
}

// Usage returns a tenant's current footprint.
func (r *Registry) Usage(id string) (Usage, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	u, ok := r.tenants[id]
	if !ok {
		return Usage{}, false
	}
	return Usage{Bytes: u.bytes, Blocks: u.blocks}, true
}

// IDUsage pairs a tenant ID with its footprint — the bulk-export shape
// cluster heartbeats and the OpUsage stats op carry.
type IDUsage struct {
	// ID is the tenant ID ("" = anonymous).
	ID string
	Usage
}

// Usages returns every known tenant's current footprint, sorted by ID
// so wire frames and snapshots are deterministic.
func (r *Registry) Usages() []IDUsage {
	r.mu.Lock()
	out := make([]IDUsage, 0, len(r.tenants))
	for id, u := range r.tenants {
		out = append(out, IDUsage{ID: id, Usage: Usage{Bytes: u.bytes, Blocks: u.blocks}})
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// TotalBytes returns the node-wide live payload bytes across tenants.
func (r *Registry) TotalBytes() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Evictions returns how many tenant lattices have been shed so far.
func (r *Registry) Evictions() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.evictions
}

func (r *Registry) policy() Policy {
	if r.cfg.Policy != nil {
		return r.cfg.Policy
	}
	return LRU{}
}

// touch advances the LRU clock and stamps a tenant with it. It takes no
// lock: reads must not queue behind another tenant's write.
func (r *Registry) touch(u *usage) {
	u.stamp(r.clock.Add(1))
}

// stamp raises lastUse to tick. The clock's Add and the stamp are two
// atomic steps, so racing touches can arrive out of order; the stamp
// only moves forward, so the older tick never overwrites the newer.
func (u *usage) stamp(tick int64) {
	for old := u.lastUse.Load(); tick > old && !u.lastUse.CompareAndSwap(old, tick); old = u.lastUse.Load() {
	}
}

// admitLocked charges a write delta against a tenant's quota, returning
// store.ErrQuotaExceeded without touching accounting when it does not
// fit. Callers hold r.mu.
func (r *Registry) admitLocked(u *usage, id string, dBytes, dBlocks int64) error {
	if u.quota.MaxBytes > 0 && u.bytes+dBytes > u.quota.MaxBytes {
		obsQuotaRefused.Inc()
		return fmt.Errorf("tenant: %s over byte quota (%d + %d > %d): %w",
			displayID(id), u.bytes, dBytes, u.quota.MaxBytes, store.ErrQuotaExceeded)
	}
	if u.quota.MaxBlocks > 0 && u.blocks+dBlocks > u.quota.MaxBlocks {
		obsQuotaRefused.Inc()
		return fmt.Errorf("tenant: %s over block quota (%d + %d > %d): %w",
			displayID(id), u.blocks, dBlocks, u.quota.MaxBlocks, store.ErrQuotaExceeded)
	}
	return nil
}

func displayID(id string) string {
	if id == Anonymous {
		return "anonymous tenant"
	}
	return "tenant " + id
}

// applyLocked updates accounting after a successful backing write or
// delete. Callers hold r.mu.
func (r *Registry) applyLocked(u *usage, dBytes, dBlocks int64) {
	u.bytes += dBytes
	u.blocks += dBlocks
	r.total += dBytes
	r.touch(u)
	r.publishUsageLocked(u)
}

// maybeEvictLocked sheds cold tenant lattices after a write pushed the
// node over its high-water mark. writer is exempt this round — evicting
// the lattice a tenant is actively writing would fight its own upload.
// Callers hold r.mu.
func (r *Registry) maybeEvictLocked(writer string) {
	if r.cfg.HighWater <= 0 || r.total <= r.cfg.HighWater {
		return
	}
	need := r.total - r.cfg.HighWater
	var cands []Candidate
	for id, u := range r.tenants {
		if id == writer || u.bytes == 0 || u.bytes <= u.quota.Reservation {
			continue
		}
		cands = append(cands, Candidate{ID: id, Bytes: u.bytes, LastUse: u.lastUse.Load()})
	}
	for _, id := range r.policy().Victims(cands, need) {
		if r.total <= r.cfg.HighWater {
			break
		}
		// Re-verify against a misbehaving custom policy: the floor and
		// the writer exemption hold whatever Victims returned.
		u, ok := r.tenants[id]
		if !ok || id == writer || u.bytes == 0 || u.bytes <= u.quota.Reservation {
			continue
		}
		r.evictTenantLocked(id, u)
	}
}

// evictTenantLocked sheds one whole tenant lattice. Callers hold r.mu.
func (r *Registry) evictTenantLocked(id string, u *usage) {
	pfx := Prefix + id + "/"
	var keys []string
	r.backing.Each(func(key string, _ int64) bool {
		if id == Anonymous {
			if !strings.HasPrefix(key, "!") {
				keys = append(keys, key)
			}
		} else if strings.HasPrefix(key, pfx) {
			keys = append(keys, key)
		}
		return true
	})
	for _, k := range keys {
		r.backing.Del(k)
	}
	obsEvictedBytes.Add(u.bytes)
	obsEvictions.Inc()
	r.total -= u.bytes
	u.bytes, u.blocks = 0, 0
	r.evictions++
	r.publishUsageLocked(u)
}

// Store is one tenant's namespaced, quota-enforcing view of the backing
// store. It is a store.Keyed like the backing, so a transport.Server can
// serve it directly. Safe for concurrent use.
type Store struct {
	reg *Registry
	id  string
	use *usage // the tenant's accounting record; reads only stamp its lastUse
}

var _ store.Keyed = (*Store)(nil)

// ID returns the tenant this view serves.
func (h *Store) ID() string { return h.id }

// Usage returns the tenant's current footprint.
func (h *Store) Usage() Usage {
	u, _ := h.reg.Usage(h.id)
	return u
}

// key maps a caller key into the tenant's namespace.
func (h *Store) key(key string) string {
	if h.id == Anonymous {
		return key
	}
	return Prefix + h.id + "/" + key
}

// reserved reports whether a caller key is unaddressable through this
// view. Only the anonymous view needs the gate: its keys pass through
// unprefixed, so a '!'-prefixed caller key would land in reserved
// keyspace — '!tenant/alice/…' would read or tamper with another
// tenant's blocks, '!segstore/…' with store internals. Named tenants'
// keys are always prefixed into their own namespace, so any caller key
// is safe there.
func (h *Store) reserved(key string) bool {
	return h.id == Anonymous && strings.HasPrefix(key, "!")
}

// errReservedKey is the refusal for writes through the anonymous view
// into reserved keyspace.
func errReservedKey(key string) error {
	return fmt.Errorf("tenant: key %q addresses reserved keyspace", key)
}

// Get returns the block and whether it exists, touching the tenant's LRU
// clock: a lattice being read is not cold.
func (h *Store) Get(key string) ([]byte, bool) {
	if h.reserved(key) {
		return nil, false
	}
	h.reg.touch(h.use)
	return h.reg.backing.Get(h.key(key))
}

// Put stores a block, charging the size delta against the tenant's quota
// first: admission, the backing write and the accounting update are one
// atomic step under the registry lock, so two racing writers cannot both
// squeeze through the last bytes of budget. Over-quota writes return an
// error wrapping store.ErrQuotaExceeded and leave the store untouched.
func (h *Store) Put(key string, data []byte) error {
	if h.reserved(key) {
		return errReservedKey(key)
	}
	full := h.key(key)
	r := h.reg
	r.mu.Lock()
	r.resyncLocked()
	u := r.useLocked(h.id)
	old, had := r.backing.Size(full)
	dBytes := int64(len(data))
	var dBlocks int64 = 1
	if had {
		dBytes -= old
		dBlocks = 0
	}
	if err := r.admitLocked(u, h.id, dBytes, dBlocks); err != nil {
		r.mu.Unlock()
		return err
	}
	if err := r.backing.Put(full, data); err != nil {
		r.mu.Unlock()
		return err
	}
	r.applyLocked(u, dBytes, dBlocks)
	r.maybeEvictLocked(h.id)
	r.mu.Unlock()
	return nil
}

// Del removes a block. Reserved keys are untouchable through the
// anonymous view, so deleting one is a no-op.
func (h *Store) Del(key string) {
	if h.reserved(key) {
		return
	}
	full := h.key(key)
	r := h.reg
	r.mu.Lock()
	r.resyncLocked()
	u := r.useLocked(h.id)
	if old, had := r.backing.Size(full); had {
		r.backing.Del(full)
		r.applyLocked(u, -old, -1)
	}
	r.mu.Unlock()
}

// ReadBatch implements store.Keyed: the backing lends the blocks under
// the tenant's keys, and reserved keys read as missing.
func (h *Store) ReadBatch(keys []string, fn func(blocks [][]byte) error) error {
	h.reg.touch(h.use)
	return h.reg.backing.ReadBatch(h.keys(keys), func(blocks [][]byte) error {
		for i, k := range keys {
			if h.reserved(k) {
				blocks[i] = nil
			}
		}
		return fn(blocks)
	})
}

// PutBatch stores all items with one atomic quota admission for the
// whole batch: the batch either fits the tenant's remaining budget as a
// whole or is refused up front with store.ErrQuotaExceeded — a broker's
// round commit never half-lands because of quota. Errors from the
// backing itself follow the backing's partial-application contract; the
// tenant's accounting is rebuilt from the store on that path.
func (h *Store) PutBatch(items []store.KV) error {
	r := h.reg
	full := make([]store.KV, len(items))
	for i, it := range items {
		if h.reserved(it.Key) {
			return errReservedKey(it.Key)
		}
		full[i] = store.KV{Key: h.key(it.Key), Data: it.Data}
	}
	r.mu.Lock()
	r.resyncLocked()
	u := r.useLocked(h.id)
	// Final-state delta: the last write of a key wins; duplicate keys in
	// one batch charge only their final size.
	oldSize := make(map[string]int64, len(full))
	newSize := make(map[string]int64, len(full))
	for _, it := range full {
		if _, seen := newSize[it.Key]; !seen {
			if old, had := r.backing.Size(it.Key); had {
				oldSize[it.Key] = old
			}
		}
		newSize[it.Key] = int64(len(it.Data))
	}
	var dBytes, dBlocks int64
	for key, size := range newSize {
		if old, had := oldSize[key]; had {
			dBytes += size - old
		} else {
			dBytes += size
			dBlocks++
		}
	}
	if err := r.admitLocked(u, h.id, dBytes, dBlocks); err != nil {
		r.mu.Unlock()
		return err
	}
	if err := r.backing.PutBatch(full); err != nil {
		// The backing may have applied a prefix of the batch; recount
		// from the store instead of guessing.
		r.rebuildLocked()
		r.mu.Unlock()
		return err
	}
	r.applyLocked(u, dBytes, dBlocks)
	r.maybeEvictLocked(h.id)
	r.mu.Unlock()
	return nil
}

// StatBatch probes presence: one entry per key in order, the block's
// byte length when present, -1 otherwise.
func (h *Store) StatBatch(keys []string) []int {
	h.reg.touch(h.use)
	out := h.reg.backing.StatBatch(h.keys(keys))
	for i, k := range keys {
		if h.reserved(k) {
			out[i] = -1
		}
	}
	return out
}

// keys returns the backing keys of a read's key list. The prefixed keys
// are substrings of one string, so a read costs the same allocations
// whatever its key count; the backing keeps no key it was only asked to
// read, so none pins that string.
func (h *Store) keys(keys []string) []string {
	if h.id == Anonymous {
		return keys
	}
	prefix := len(Prefix) + len(h.id) + 1
	size := 0
	for _, k := range keys {
		size += prefix + len(k)
	}
	var b strings.Builder
	b.Grow(size)
	for _, k := range keys {
		b.WriteString(Prefix)
		b.WriteString(h.id)
		b.WriteByte('/')
		b.WriteString(k)
	}
	all := b.String()
	full := make([]string, len(keys))
	off := 0
	for i, k := range keys {
		end := off + prefix + len(k)
		full[i] = all[off:end]
		off = end
	}
	return full
}
