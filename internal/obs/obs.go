// Package obs is the repo's zero-dependency metrics subsystem: sharded
// lock-free counters and gauges, fixed-bucket log-scale latency
// histograms, and a process-global registry that layers (transport,
// segstore, tenant, maintain, cluster, entangle) write into and that
// the OpMetrics transport frame and the -metricsaddr HTTP endpoint
// read out of.
//
// Design constraints, in order:
//
//  1. Hot-path cost. Counter.Add and Histogram.Record must stay cheap
//     enough (~a few ns, ≤ ~20ns worst case; see this package's
//     benchmarks) that instrumentation is always on — no sampling, no
//     build tags.
//     Both are one or two uncontended atomic adds on a per-P-ish
//     shard; no locks, no maps, no string formatting. Instrumented
//     code resolves its handles once (package init or construction)
//     and holds the pointers.
//  2. Zero dependencies. Standard library only, and nothing heavier
//     than encoding/json — the packages that import obs (transport,
//     segstore, ...) sit under everything else in the tree.
//  3. Mergeable snapshots. Reading a metric never stops writers;
//     snapshots are sums over shards, and histogram snapshots merge by
//     bucket-wise addition so multi-node rollups are exact.
//
// Naming scheme: metrics are grouped into scopes (one per subsystem:
// "transport", "segstore", ...) and flattened into "scope/name" keys
// in snapshots, with dotted names inside a scope ("get.latency",
// "framepool.hit"). Keys never embed unbounded cardinality (tenant ids
// are the one deliberate exception, bounded by the registry's tenant
// cap).
package obs

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"
)

// cacheLine is the assumed coherence-granule size. 64 bytes is right
// for amd64 and most arm64; being wrong only costs a little padding.
const cacheLine = 64

// cell is one padded shard of a Counter or Gauge. The padding keeps
// adjacent shards on distinct cache lines so concurrent writers on
// different Ps never ping-pong a line between cores.
type cell struct {
	n atomic.Int64
	_ [cacheLine - 8]byte
}

// maxShards caps the shard count so snapshot cost and footprint stay
// bounded on very wide boxes.
const maxShards = 64

// numShards is the shard count for counters and gauges: the power of
// two covering four shards per unit of the machine's parallelism,
// capped at maxShards. The head room is for the hash: with one shard
// per core, even a perfect hash puts two of two running goroutines on
// one shard half the time.
var numShards = func() int {
	n := runtime.GOMAXPROCS(0)
	if c := runtime.NumCPU(); c > n {
		n = c
	}
	p := 1
	for p < 4*n {
		p <<= 1
	}
	return min(p, maxShards)
}()

// shardIndex picks the calling goroutine's shard among n. Go offers no
// portable per-P identifier, so we hash the goroutine's stack address:
// stacks live in distinct spans, so goroutines running concurrently
// (necessarily on distinct Ps) land on different shards with high
// probability, which is all the false-sharing argument needs. The
// address is used only as an integer — never dereferenced — so this is
// safe under any GC behaviour, and a goroutine migrating or growing
// its stack merely switches shards.
func shardIndex(n int) int {
	var marker byte
	return shardOf(uintptr(unsafe.Pointer(&marker)), n)
}

// shardOf hashes a stack address to one of n shards, n a power of two.
// Stacks are at least 2 KiB and aligned to their size, so the bits below
// 11 are an offset inside the stack, the same for every goroutine at the
// same call depth: the hash drops them and mixes all the bits above
// (multiplicative hashing, keeping the product's top log2(n) bits).
func shardOf(addr uintptr, n int) int {
	return int(uint64(addr>>11) * 0x9e3779b97f4a7c15 >> (64 - bits.TrailingZeros(uint(n))))
}

// A Counter is a monotonically-increasing sum, sharded across padded
// per-P cells. Add is lock-free and allocation-free.
type Counter struct {
	cells []cell // fixed at construction; cells are individually atomic
}

func newCounter() *Counter { return &Counter{cells: make([]cell, numShards)} }

// Add adds n to the counter. Negative n is legal (some callers account
// refunds) but Value should stay ≥ 0 for the result to mean anything.
func (c *Counter) Add(n int64) { c.cells[shardIndex(len(c.cells))].n.Add(n) }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value sums the shards. The read is not a consistent cut across
// shards — concurrent Adds may or may not be included — which is the
// standard monitoring trade: monotone and eventually exact.
func (c *Counter) Value() int64 {
	var total int64
	for i := range c.cells {
		total += c.cells[i].n.Load()
	}
	return total
}

// A Gauge is an instantaneous value. Two usage styles, which callers
// must not mix on one gauge:
//
//   - Delta style (Add/Sub from any goroutine): sharded and lock-free,
//     e.g. transport inflight. Value is the sum of deltas.
//   - Set style (Set from a single writer, typically under the owning
//     subsystem's mutex): e.g. segstore dead-bytes, cluster epoch.
//
// Set stores into a dedicated base slot and clears the delta shards;
// racing Set with Add loses deltas, which is why the styles are
// exclusive per gauge.
type Gauge struct {
	base  atomic.Int64
	_     [cacheLine - 8]byte
	cells []cell // fixed at construction; cells are individually atomic
}

func newGauge() *Gauge { return &Gauge{cells: make([]cell, numShards)} }

// Add adds n to the gauge (delta style).
func (g *Gauge) Add(n int64) { g.cells[shardIndex(len(g.cells))].n.Add(n) }

// Sub subtracts n from the gauge (delta style).
func (g *Gauge) Sub(n int64) { g.Add(-n) }

// Set replaces the gauge's value (set style; single writer).
func (g *Gauge) Set(v int64) {
	for i := range g.cells {
		g.cells[i].n.Store(0)
	}
	g.base.Store(v)
}

// Value reports the current value: the set base plus outstanding
// deltas.
func (g *Gauge) Value() int64 {
	v := g.base.Load()
	for i := range g.cells {
		v += g.cells[i].n.Load()
	}
	return v
}

// A Scope is a named group of metrics ("transport", "segstore", ...).
// Handle lookup (Counter/Gauge/Histogram) takes the scope lock and may
// allocate, so callers resolve handles once at init and keep the
// pointers; the handles themselves are lock-free.
type Scope struct {
	name string

	mu       sync.Mutex
	counters map[string]*Counter   // guarded by mu
	gauges   map[string]*Gauge     // guarded by mu
	hists    map[string]*Histogram // guarded by mu
}

// Counter returns the scope's counter with the given name, creating it
// on first use. Subsequent calls with the same name return the same
// handle.
func (s *Scope) Counter(name string) *Counter {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.counters[name]
	if !ok {
		c = newCounter()
		s.counters[name] = c
	}
	return c
}

// Gauge returns the scope's gauge with the given name, creating it on
// first use.
func (s *Scope) Gauge(name string) *Gauge {
	s.mu.Lock()
	defer s.mu.Unlock()
	g, ok := s.gauges[name]
	if !ok {
		g = newGauge()
		s.gauges[name] = g
	}
	return g
}

// Histogram returns the scope's histogram with the given name,
// creating it on first use.
func (s *Scope) Histogram(name string) *Histogram {
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.hists[name]
	if !ok {
		h = newHistogram()
		s.hists[name] = h
	}
	return h
}

// A Registry owns a set of scopes and can snapshot them all at once.
// The zero value is not usable; use NewRegistry or the package-level
// Default.
type Registry struct {
	mu     sync.Mutex
	scopes map[string]*Scope // guarded by mu
}

// NewRegistry returns an empty registry. Most code uses Default; tests
// that need isolation construct their own.
func NewRegistry() *Registry {
	return &Registry{scopes: make(map[string]*Scope)}
}

// Default is the process-global registry every instrumented subsystem
// writes into, and the one OpMetrics and -metricsaddr expose.
var Default = NewRegistry()

// Scope returns the registry's scope with the given name, creating it
// on first use.
func (r *Registry) Scope(name string) *Scope {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.scopes[name]
	if !ok {
		s = &Scope{
			name:     name,
			counters: make(map[string]*Counter),
			gauges:   make(map[string]*Gauge),
			hists:    make(map[string]*Histogram),
		}
		r.scopes[name] = s
	}
	return s
}
