package entangle

import (
	"bytes"
	"context"
	"math/rand"
	"sync"
	"testing"

	"aecodes/internal/lattice"
	"aecodes/internal/store"
)

// countingStore wraps a BlockStore, counts every call per method and
// keeps the refs of every batch, so tests can pin the engine's traffic
// shape exactly.
type countingStore struct {
	inner store.BlockStore

	mu        sync.Mutex
	getData   int
	getParity int
	getMany   int
	putMany   int
	missing   int
	fetched   [][]store.Ref // one entry per GetMany call, in order
	written   [][]store.Ref // one entry per PutMany call, in order
}

var _ store.BlockStore = (*countingStore)(nil)

func (c *countingStore) bump(n *int) {
	c.mu.Lock()
	*n++
	c.mu.Unlock()
}

func (c *countingStore) GetData(ctx context.Context, i int) ([]byte, error) {
	c.bump(&c.getData)
	return c.inner.GetData(ctx, i)
}

func (c *countingStore) GetParity(ctx context.Context, e lattice.Edge) ([]byte, error) {
	c.bump(&c.getParity)
	return c.inner.GetParity(ctx, e)
}

func (c *countingStore) PutData(ctx context.Context, i int, b []byte) error {
	return c.inner.PutData(ctx, i, b)
}

func (c *countingStore) PutParity(ctx context.Context, e lattice.Edge, b []byte) error {
	return c.inner.PutParity(ctx, e, b)
}

func (c *countingStore) GetMany(ctx context.Context, refs []store.Ref) ([][]byte, error) {
	c.mu.Lock()
	c.getMany++
	c.fetched = append(c.fetched, append([]store.Ref(nil), refs...))
	c.mu.Unlock()
	return c.inner.GetMany(ctx, refs)
}

func (c *countingStore) PutMany(ctx context.Context, blocks []store.Block) error {
	refs := make([]store.Ref, len(blocks))
	for i, b := range blocks {
		refs[i] = b.Ref
	}
	c.mu.Lock()
	c.putMany++
	c.written = append(c.written, refs)
	c.mu.Unlock()
	return c.inner.PutMany(ctx, blocks)
}

func (c *countingStore) Missing(ctx context.Context) (store.Missing, error) {
	c.bump(&c.missing)
	return c.inner.Missing(ctx)
}

func (c *countingStore) counts() (getData, getParity, getMany, putMany, missing int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.getData, c.getParity, c.getMany, c.putMany, c.missing
}

// buildDamagedStore entangles n random blocks into a MemoryStore and marks
// a fraction of data and parity blocks lost. It returns the store and the
// originals (1-based).
func buildDamagedStore(t *testing.T, params lattice.Params, n, blockSize int, lossFrac float64, seed int64) (*MemoryStore, [][]byte) {
	t.Helper()
	enc, err := NewEncoder(params, blockSize)
	if err != nil {
		t.Fatal(err)
	}
	st := NewMemoryStore(blockSize)
	rng := rand.New(rand.NewSource(seed))
	originals := make([][]byte, n+1)
	for i := 1; i <= n; i++ {
		data := make([]byte, blockSize)
		rng.Read(data)
		originals[i] = data
		ent, err := enc.Entangle(data)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.PutData(context.Background(), ent.Index, data); err != nil {
			t.Fatal(err)
		}
		for _, p := range ent.Parities {
			if err := st.PutParity(context.Background(), p.Edge, p.Data); err != nil {
				t.Fatal(err)
			}
		}
	}
	lat := enc.Lattice()
	for i := 1; i <= n; i++ {
		if rng.Float64() < lossFrac {
			st.LoseData(i)
		}
		for _, class := range lat.Classes() {
			if rng.Float64() < lossFrac {
				if e, err := lat.OutEdge(class, i); err == nil {
					st.LoseParity(e)
				}
			}
		}
	}
	return st, originals
}

// TestRepairRoundPrefetchShape pins the engine-level traffic shape on any
// stable backend: one Missing enumeration per Repair however many rounds
// it runs, one GetMany and one PutMany per productive round, no
// single-block reads, and a fetch list that is exactly the chosen tuples
// — nothing the enumeration listed as missing, at most two refs per block
// the round repairs.
func TestRepairRoundPrefetchShape(t *testing.T) {
	const n = 150
	params := lattice.Params{Alpha: 3, S: 2, P: 5}
	for _, workers := range []int{1, 4} {
		st, originals := buildDamagedStore(t, params, n, 64, 0.3, int64(41+workers))
		enumerated, err := st.Missing(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		listed := make(map[store.Ref]bool) // the missing set, kept in step with the engine's
		// A missing tail parity whose left dp-tuple is broken gets planned
		// once over its right one, which lies beyond the lattice: two refs
		// fetched (and answered nil) for a block that round cannot repair.
		tailAllowance := 0
		for _, i := range enumerated.Data {
			listed[store.DataRef(i)] = true
		}
		for _, e := range enumerated.Parities {
			listed[store.ParityRef(e)] = true
			if e.Right > n {
				tailAllowance += 2
			}
		}

		cs := &countingStore{inner: st}
		rep, err := NewRepairer(params)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := rep.Repair(context.Background(), cs, Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(stats.UnrepairedData) != 0 || len(stats.UnrepairedParities) != 0 {
			t.Fatalf("workers=%d: %d data + %d parity blocks unrepaired", workers,
				len(stats.UnrepairedData), len(stats.UnrepairedParities))
		}
		if stats.Rounds < 2 {
			t.Fatalf("workers=%d: %d rounds, want a multi-round run to pin per-run enumeration", workers, stats.Rounds)
		}
		getData, getParity, getMany, putMany, missing := cs.counts()
		if missing != 1 {
			t.Errorf("workers=%d: %d Missing calls over %d rounds, want exactly one per Repair",
				workers, missing, stats.Rounds)
		}
		if getMany != stats.Rounds {
			t.Errorf("workers=%d: %d GetMany prefetches over %d productive rounds, want exactly one per round",
				workers, getMany, stats.Rounds)
		}
		if putMany != stats.Rounds {
			t.Errorf("workers=%d: %d PutMany commits over %d rounds, want exactly one per round",
				workers, putMany, stats.Rounds)
		}
		if getData != 0 || getParity != 0 {
			t.Errorf("workers=%d: planning read %d data + %d parity single blocks from the store, want 0 (round cache bypassed)",
				workers, getData, getParity)
		}
		for k, refs := range cs.fetched {
			seen := make(map[store.Ref]bool, len(refs))
			for _, ref := range refs {
				if listed[ref] {
					t.Errorf("workers=%d round %d: fetched %v, which is still missing", workers, k+1, ref)
				}
				if seen[ref] {
					t.Errorf("workers=%d round %d: fetched %v twice in one batch", workers, k+1, ref)
				}
				seen[ref] = true
			}
			if k >= len(cs.written) {
				continue
			}
			if limit := 2*len(cs.written[k]) + tailAllowance; len(refs) > limit {
				t.Errorf("workers=%d round %d: fetched %d refs to repair %d blocks, want ≤ %d (two per repair)",
					workers, k+1, len(refs), len(cs.written[k]), limit)
			}
			// What the round committed is what later rounds may read.
			for _, ref := range cs.written[k] {
				delete(listed, ref)
			}
		}
		for i := 1; i <= n; i++ {
			got, err := st.GetData(context.Background(), i)
			if err != nil {
				t.Fatalf("workers=%d: d%d unavailable after repair: %v", workers, i, err)
			}
			if !bytes.Equal(got, originals[i]) {
				t.Fatalf("workers=%d: d%d corrupted by repair", workers, i)
			}
		}
	}
}

// TestRepairPrefetchSnapshotIsolation pins that planning reads only the
// prefetched snapshot: blocks lost after the prefetch (mid-round faults)
// do not change what the round's planners see, so the round still commits
// what the frozen pre-round state allowed.
func TestRepairPrefetchSnapshotIsolation(t *testing.T) {
	params := lattice.Params{Alpha: 3, S: 2, P: 5}
	st, _ := buildDamagedStore(t, params, 60, 32, 0, 9)
	st.LoseData(10)

	// losingStore drops a parity from the backend the moment the round's
	// prefetch completes; a snapshot-reading planner must not notice.
	ls := &losingStore{MemoryStore: st, lose: func() {
		lat, _ := lattice.New(params)
		for _, class := range lat.Classes() {
			if e, err := lat.OutEdge(class, 10); err == nil {
				st.LoseParity(e)
			}
		}
	}}
	rep, err := NewRepairer(params)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := rep.Repair(context.Background(), ls, Options{MaxRounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if stats.DataRepaired != 1 {
		t.Fatalf("repaired %d data blocks, want 1 (snapshot should shield planning from the mid-round loss)", stats.DataRepaired)
	}
}

// losingStore triggers lose once, after the first GetMany returns.
type losingStore struct {
	*MemoryStore
	once sync.Once
	lose func()
}

func (l *losingStore) GetMany(ctx context.Context, refs []store.Ref) ([][]byte, error) {
	blocks, err := l.MemoryStore.GetMany(ctx, refs)
	l.once.Do(l.lose)
	return blocks, err
}
