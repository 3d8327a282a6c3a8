package entangle

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"aecodes/internal/lattice"
	"aecodes/internal/store"
	"aecodes/internal/xorblock"
)

// xorPutStore rebuilds parities in place over a lyingStore: XorPutMany
// reads each Src from the backing store the way GetMany does — a ref the
// lyingStore lies about is refused, on both paths — and writes the applied
// items with one logged PutMany, so checkAgainstOracle sees them as
// written. Like a node, it applies no item whose Src the batch writes.
type xorPutStore struct {
	*lyingStore

	mu      sync.Mutex
	calls   int
	pushed  int
	refused int
}

var _ store.XorPutter = (*xorPutStore)(nil)

// InPlace reports about three pairs in four in place; the engine rebuilds
// the rest from its fetch, as the broker does a tuple straddling two
// nodes.
func (x *xorPutStore) InPlace(ctx context.Context, dst, src store.Ref) bool {
	return (dst.Edge.Left+3*src.Edge.Left)%4 != 0
}

func (x *xorPutStore) XorPutMany(ctx context.Context, items []store.XorPut) ([]bool, error) {
	srcs := make([]store.Ref, len(items))
	written := make(map[store.Ref]bool, len(items))
	for k, it := range items {
		srcs[k] = it.Src
		written[it.Dst] = true
	}
	blocks, err := x.inner.GetMany(ctx, srcs)
	if err != nil {
		return nil, err
	}
	out := make([]bool, len(items))
	var puts []store.Block
	for k, it := range items {
		src := blocks[k]
		if src == nil || len(src) != len(it.Data) || x.lies[it.Src] || written[it.Src] {
			continue
		}
		rebuilt, err := xorblock.Xor(it.Data, src)
		if err != nil {
			return nil, err
		}
		puts = append(puts, store.Block{Ref: it.Dst, Data: rebuilt})
		out[k] = true
	}
	x.mu.Lock()
	x.calls++
	x.pushed += len(items)
	x.refused += len(items) - len(puts)
	x.mu.Unlock()
	if err := x.countingStore.PutMany(ctx, puts); err != nil {
		return nil, err
	}
	return out, nil
}

// samePlan fails unless two runs over equally damaged stores ended alike:
// the same blocks with the same bytes and the same residue — and, when
// exact is set, the same rounds, repairs and BytesRead. The first run is
// a's, the second b's.
func samePlan(t testing.TB, a, b *MemoryStore, sa, sb Stats, exact bool) {
	t.Helper()
	if !slices.Equal(sa.UnrepairedData, sb.UnrepairedData) || !slices.Equal(sa.UnrepairedParities, sb.UnrepairedParities) {
		t.Fatalf("residue differs: first %v %v, second %v %v", sa.UnrepairedData, sa.UnrepairedParities, sb.UnrepairedData, sb.UnrepairedParities)
	}
	if exact && (sa.Rounds != sb.Rounds || !slices.Equal(sa.PerRound, sb.PerRound) || sa.FirstRoundData != sb.FirstRoundData) {
		t.Fatalf("rounds differ: first %d %+v, second %d %+v", sa.Rounds, sa.PerRound, sb.Rounds, sb.PerRound)
	}
	if exact && sa.BytesRead != sb.BytesRead {
		t.Fatalf("BytesRead differs: first %d, second %d", sa.BytesRead, sb.BytesRead)
	}
	if !maps.Equal(a.known, b.known) || !maps.EqualFunc(contents(a), contents(b), bytes.Equal) {
		t.Fatal("blocks differ after the two runs")
	}
}

// contents returns every block m holds, by key.
func contents(m *MemoryStore) map[string][]byte {
	out := make(map[string][]byte)
	m.mem.Each(func(key string, _ int64) bool {
		out[key] = nil
		return true
	})
	for key := range out {
		out[key], _ = m.mem.Get(key)
	}
	return out
}

// chargeLog is a Limiter that sums what it is charged.
type chargeLog struct {
	mu         sync.Mutex
	ops, bytes int64
}

func (c *chargeLog) Acquire(ctx context.Context, ops int, bytes int64) error {
	c.mu.Lock()
	c.ops += int64(ops)
	c.bytes += bytes
	c.mu.Unlock()
	return nil
}

// TestRepairPushMatchesFetch is the differential test of the in-place
// rebuild: over every evaluated code setting and several damages, a store
// that rebuilds parities in place — and refuses a seeded subset of the
// parities it is asked to read, as a store with rot it has not yet found
// would — ends exactly as a plain store that refuses the same fetches:
// the same bytes, rounds, reads and residue. Without refusals the rate
// limiter is charged the same operations and bytes on both.
func TestRepairPushMatchesFetch(t *testing.T) {
	const n, blockSize = 120, 16
	refused, byEngine := 0, 0
	for _, params := range soundnessSettings {
		for _, damage := range []float64{0.1, 0.3, 0.5} {
			for _, refuse := range []float64{0, 0.1} {
				t.Run(fmt.Sprintf("%v/damage=%v/refuse=%v", params, damage, refuse), func(t *testing.T) {
					seed := int64(damage*100 + refuse*10)
					var stores [2]*MemoryStore
					var stats [2]Stats
					var limits [2]chargeLog
					var pushes *xorPutStore
					for k, push := range []bool{false, true} {
						ref := buildReference(t, params, n, blockSize, seed)
						rng := rand.New(rand.NewSource(seed))
						lies := make(map[store.Ref]bool)
						for b, r := range ref.ordered {
							if rng.Float64() < damage {
								ref.lose(b)
							} else if r.Parity && rng.Float64() < refuse {
								lies[r] = true
							}
						}
						var st Store = &lyingStore{countingStore: &countingStore{inner: ref.st}, lies: lies}
						if push {
							pushes = &xorPutStore{lyingStore: st.(*lyingStore)}
							st = pushes
						}
						rep, err := NewRepairer(params, blockSize)
						if err != nil {
							t.Fatal(err)
						}
						if stats[k], err = rep.Repair(bg, st, Options{RateLimit: &limits[k]}); err != nil {
							t.Fatal(err)
						}
						stores[k] = ref.st
					}
					samePlan(t, stores[0], stores[1], stats[0], stats[1], true)
					if stats[1].ParityRepaired > 0 && pushes.calls == 0 {
						t.Fatal("no parity was rebuilt in place")
					}
					refused += pushes.refused
					byEngine += stats[1].ParityRepaired - (pushes.pushed - pushes.refused)
					if refuse == 0 && (limits[0].ops != limits[1].ops || limits[0].bytes != limits[1].bytes) {
						t.Fatalf("limiter charged %d ops / %d bytes for the fetch, %d / %d for the push",
							limits[0].ops, limits[0].bytes, limits[1].ops, limits[1].bytes)
					}
				})
			}
		}
	}
	if refused == 0 || byEngine == 0 {
		t.Fatalf("%d refused in-place rebuilds, %d parities the engine rebuilt beside them: a path went unchecked", refused, byEngine)
	}
}

// quotaStore refuses every in-place rebuild as over quota.
type quotaStore struct{ *countingStore }

func (q quotaStore) InPlace(ctx context.Context, dst, src store.Ref) bool { return true }

func (q quotaStore) XorPutMany(ctx context.Context, items []store.XorPut) ([]bool, error) {
	return nil, fmt.Errorf("node: %w", store.ErrQuotaExceeded)
}

// TestRepairPushQuotaRefusal: a store that refuses the in-place rebuild as
// over quota fails the run with an error wrapping ErrQuotaExceeded, the
// way a refused commit does, and writes nothing.
func TestRepairPushQuotaRefusal(t *testing.T) {
	params := lattice.Params{Alpha: 3, S: 2, P: 5}
	st, _ := buildDamagedStore(t, params, 60, 16, 0, 5)
	e, err := mustRepairer(t, params).Lattice().OutEdge(lattice.Horizontal, 30)
	if err != nil {
		t.Fatal(err)
	}
	st.LoseParity(e)
	cs := &countingStore{inner: st}
	if _, err := mustRepairer(t, params).Repair(bg, quotaStore{cs}, Options{}); !errors.Is(err, store.ErrQuotaExceeded) {
		t.Fatalf("Repair = %v, want an error wrapping ErrQuotaExceeded", err)
	}
	if len(cs.written) != 0 || len(st.MissingParities()) != 1 {
		t.Fatalf("a refused rebuild wrote %d batches; %d parities missing, want 1", len(cs.written), len(st.MissingParities()))
	}
}

// inPlaceStore is an xorPutStore that reports every pair in place.
type inPlaceStore struct{ *xorPutStore }

func (s inPlaceStore) InPlace(ctx context.Context, dst, src store.Ref) bool { return true }

// budget is a Limiter that grants its first n charges and refuses the
// rest.
type budget struct {
	mu sync.Mutex
	n  int
}

var errSpent = errors.New("budget spent")

func (b *budget) Acquire(ctx context.Context, ops int, bytes int64) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.n == 0 {
		return errSpent
	}
	b.n--
	return nil
}

// TestRepairPushChargesBeforeWriting: an in-place rebuild is charged to
// the rate limiter before the store is asked for it, as a commit is. A
// budget the round's fetch spent stops the push unsent, and nothing is
// written.
func TestRepairPushChargesBeforeWriting(t *testing.T) {
	params := lattice.Params{Alpha: 3, S: 2, P: 5}
	st, _ := buildDamagedStore(t, params, 60, 16, 0, 5)
	e, err := mustRepairer(t, params).Lattice().OutEdge(lattice.Horizontal, 30)
	if err != nil {
		t.Fatal(err)
	}
	st.LoseParity(e)
	x := &xorPutStore{lyingStore: &lyingStore{countingStore: &countingStore{inner: st}}}
	if _, err := mustRepairer(t, params).Repair(bg, inPlaceStore{x}, Options{RateLimit: &budget{n: 1}}); !errors.Is(err, errSpent) {
		t.Fatalf("Repair = %v, want the limiter's refusal", err)
	}
	if x.calls != 0 || len(x.written) != 0 || len(st.MissingParities()) != 1 {
		t.Fatalf("a push over budget was sent %d times and wrote %d batches; %d parities missing, want 1",
			x.calls, len(x.written), len(st.MissingParities()))
	}
}
