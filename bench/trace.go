package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"aecodes/internal/cluster"
	"aecodes/internal/cooperative"
	"aecodes/internal/lattice"
	"aecodes/internal/store"
	"aecodes/internal/transport"
)

// Span names. The prefix is the module whose public function the span
// wraps; an op span is the call the benchmark itself makes, a child span
// a call the layer below received while that op was running.
const (
	spanBackup  = "cooperative.backup"
	spanRead    = "cooperative.read"
	spanRepair  = "cooperative.repair"
	spanWrite   = "archive.write"
	spanAread   = "archive.read"
	spanArepair = "archive.repair"

	spanRoute    = "cluster.route"
	spanGet      = "transport.get"
	spanPut      = "transport.put"
	spanGetMany  = "transport.getmany"
	spanPutMany  = "transport.putmany"
	spanStatMany = "transport.statmany"

	spanStoreGet  = "segstore.get"
	spanStorePut  = "segstore.put"
	spanStoreStat = "segstore.stat"
)

// span is one timed call at a layer seam. Times are nanoseconds since the
// tracer's epoch. Parent is 0 for an op span; a child span carries the ID
// of the op that was running on its client when it started, and Op is
// that same ID (the op's own ID on an op span), so one request's spans
// share an identifier. A child that starts while no op is running — a
// pipeline worker still storing after Write returned — has Parent -1.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Phase  string `json:"phase"`
	Client int    `json:"client"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer collects the spans of one client in memory. A nil tracer is the
// untraced run: the decorators below are not installed at all, and the
// op helpers cost one nil check.
type tracer struct {
	client int
	epoch  time.Time

	mu    sync.Mutex
	next  int64
	curOp int64
	phase string
	spans []span
}

func newTracer(client int, epoch time.Time) *tracer {
	return &tracer{client: client, epoch: epoch}
}

func (t *tracer) setPhase(p string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.phase = p
	t.mu.Unlock()
}

// begin opens a span and returns the function that closes it. An op span
// (op true) becomes the parent of every span begun before it closes.
func (t *tracer) begin(name string, op bool) func() {
	start := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.next++
	id := t.next
	parent := t.curOp
	switch {
	case op:
		parent = 0
		t.curOp = id
	case parent == 0:
		parent = -1 // a call no op was waiting on
	}
	phase := t.phase
	t.mu.Unlock()
	return func() {
		end := time.Since(t.epoch).Nanoseconds()
		opID := parent
		if op {
			opID = id
		}
		t.mu.Lock()
		t.spans = append(t.spans, span{ID: id, Parent: parent, Op: opID, Name: name, Phase: phase, Client: t.client, Start: start, End: end})
		if op {
			t.curOp = 0
		}
		t.mu.Unlock()
	}
}

// op wraps one benchmark-issued call; with a nil tracer it is free.
func (t *tracer) op(name string) func() {
	if t == nil {
		return func() {}
	}
	return t.begin(name, true)
}

func (t *tracer) take() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// tracedRouter times Router.Route. It forwards every capability of the
// cluster router the broker uses, so no fallback path is taken.
type tracedRouter struct {
	inner *cluster.Router
	t     *tracer
}

var (
	_ cooperative.Router           = (*tracedRouter)(nil)
	_ cooperative.CredentialRouter = (*tracedRouter)(nil)
)

func (r *tracedRouter) Route(ctx context.Context, key string, e lattice.Edge) (cooperative.NodeStore, string, error) {
	defer r.t.begin(spanRoute, false)()
	return r.inner.Route(ctx, key, e)
}

func (r *tracedRouter) Invalidate(ctx context.Context, group string) (bool, error) {
	return r.inner.Invalidate(ctx, group)
}

func (r *tracedRouter) SetCredential(ctx context.Context, tenant, previous string) error {
	return r.inner.SetCredential(ctx, tenant, previous)
}

// tracedNode times every call a broker makes on one storage node's pool
// client. It forwards the batch, stat and handshake extensions, so the
// broker takes the same paths as over a bare PoolClient.
type tracedNode struct {
	inner *transport.PoolClient
	t     *tracer
}

var (
	_ cooperative.BatchNodeStore = (*tracedNode)(nil)
	_ cooperative.StatNodeStore  = (*tracedNode)(nil)
	_ cooperative.HelloNodeStore = (*tracedNode)(nil)
	_ nodeAdmin                  = (*tracedNode)(nil)
	_ nodeAdmin                  = (*transport.PoolClient)(nil)
)

// nodeAdmin is what the benchmark itself needs from the node handle
// Router.Route returns, traced or not: deleting blocks for the damage
// phase, presence checks for the durability check, and the pool's health
// after a node restart.
type nodeAdmin interface {
	Del(ctx context.Context, key string) error
	GetMany(ctx context.Context, keys []string) ([][]byte, error)
	StatMany(ctx context.Context, keys []string) ([]bool, error)
	Live() int
}

func (n *tracedNode) Get(ctx context.Context, key string) ([]byte, error) {
	defer n.t.begin(spanGet, false)()
	return n.inner.Get(ctx, key)
}

func (n *tracedNode) Put(ctx context.Context, key string, data []byte) error {
	defer n.t.begin(spanPut, false)()
	return n.inner.Put(ctx, key, data)
}

func (n *tracedNode) GetMany(ctx context.Context, keys []string) ([][]byte, error) {
	defer n.t.begin(spanGetMany, false)()
	return n.inner.GetMany(ctx, keys)
}

func (n *tracedNode) PutMany(ctx context.Context, items []store.KV) error {
	defer n.t.begin(spanPutMany, false)()
	return n.inner.PutMany(ctx, items)
}

func (n *tracedNode) StatMany(ctx context.Context, keys []string) ([]bool, error) {
	defer n.t.begin(spanStatMany, false)()
	return n.inner.StatMany(ctx, keys)
}

func (n *tracedNode) Hello(ctx context.Context, tenant string) error {
	return n.inner.Hello(ctx, tenant)
}

func (n *tracedNode) Del(ctx context.Context, key string) error { return n.inner.Del(ctx, key) }
func (n *tracedNode) Live() int                                 { return n.inner.Live() }
func (n *tracedNode) Close() error                              { return n.inner.Close() }

// tracedStore times every call the archive API and the repair engine
// make on the BlockStore under them. Calls arrive from the encode
// pipeline's worker goroutines, so spans of one op may overlap.
type tracedStore struct {
	inner store.BlockStore
	t     *tracer
}

var _ store.BlockStore = (*tracedStore)(nil)

func (s *tracedStore) GetData(ctx context.Context, i int) ([]byte, error) {
	defer s.t.begin(spanStoreGet, false)()
	return s.inner.GetData(ctx, i)
}

func (s *tracedStore) GetParity(ctx context.Context, e lattice.Edge) ([]byte, error) {
	defer s.t.begin(spanStoreGet, false)()
	return s.inner.GetParity(ctx, e)
}

func (s *tracedStore) PutData(ctx context.Context, i int, b []byte) error {
	defer s.t.begin(spanStorePut, false)()
	return s.inner.PutData(ctx, i, b)
}

func (s *tracedStore) PutParity(ctx context.Context, e lattice.Edge, b []byte) error {
	defer s.t.begin(spanStorePut, false)()
	return s.inner.PutParity(ctx, e, b)
}

func (s *tracedStore) Missing(ctx context.Context) (store.Missing, error) {
	defer s.t.begin(spanStoreStat, false)()
	return s.inner.Missing(ctx)
}

func (s *tracedStore) GetMany(ctx context.Context, refs []store.Ref) ([][]byte, error) {
	defer s.t.begin(spanStoreGet, false)()
	return s.inner.GetMany(ctx, refs)
}

func (s *tracedStore) PutMany(ctx context.Context, blocks []store.Block) error {
	defer s.t.begin(spanStorePut, false)()
	return s.inner.PutMany(ctx, blocks)
}

// phaseTrace is what the spans of one phase say once folded: per span
// name, how many there were and how long they ran; per op name, the
// op's self time — its duration minus the part child spans cover.
type phaseTrace struct {
	count map[string]int
	total map[string]int64     // summed durations, ns
	self  map[string]int64     // op spans only: duration no child covers, ns
	durs  map[string][]float64 // every duration, ns
	// opsWith counts op spans that have at least one child of the keyed
	// name.
	opsWith map[string]int
}

// opTime is the time the phase's clients spent inside ops, ns.
func (pt phaseTrace) opTime() int64 {
	var sum int64
	for name := range pt.self {
		sum += pt.total[name]
	}
	return sum
}

type interval struct{ lo, hi int64 }

// foldPhase computes counts, totals and self times over the spans of one
// phase. The covered part of an op is the union of its client's child
// spans clipped to the op's interval, so overlapping children (pipeline
// workers) are not counted twice and a child that outlives its op counts
// toward the op it runs into.
func foldPhase(spans []span, phase string) phaseTrace {
	pt := phaseTrace{
		count:   map[string]int{},
		total:   map[string]int64{},
		self:    map[string]int64{},
		durs:    map[string][]float64{},
		opsWith: map[string]int{},
	}
	var ops []span
	kids := map[int][]interval{} // per client
	type opChild struct {
		client int
		op     int64
		name   string
	}
	seen := map[opChild]bool{}
	for _, s := range spans {
		if s.Phase != phase {
			continue
		}
		pt.count[s.Name]++
		pt.total[s.Name] += s.dur()
		pt.durs[s.Name] = append(pt.durs[s.Name], float64(s.dur()))
		if s.Parent == 0 {
			ops = append(ops, s)
			continue
		}
		kids[s.Client] = append(kids[s.Client], interval{s.Start, s.End})
		if k := (opChild{s.Client, s.Parent, s.Name}); s.Parent > 0 && !seen[k] {
			seen[k] = true
			pt.opsWith[s.Name]++
		}
	}
	for client, iv := range kids {
		sort.Slice(iv, func(a, b int) bool { return iv[a].lo < iv[b].lo })
		merged := iv[:0]
		for _, x := range iv {
			if n := len(merged); n > 0 && x.lo <= merged[n-1].hi {
				merged[n-1].hi = max(merged[n-1].hi, x.hi)
			} else {
				merged = append(merged, x)
			}
		}
		kids[client] = merged
	}
	for _, op := range ops {
		iv := kids[op.Client]
		var covered int64
		for i := sort.Search(len(iv), func(i int) bool { return iv[i].hi > op.Start }); i < len(iv) && iv[i].lo < op.End; i++ {
			covered += min(iv[i].hi, op.End) - max(iv[i].lo, op.Start)
		}
		pt.self[op.Name] += op.dur() - covered
	}
	return pt
}

// writeSpans writes the spans as one JSON array to dir/<workload>.spans.json
// and returns the path.
func writeSpans(dir, workload string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".spans.json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
