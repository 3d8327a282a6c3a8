package entangle

// Tests of the windows a repair round runs in: a round holds at most one
// window of blocks however much it plans, and a round stopped partway
// still counts what its earlier windows committed.

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"aecodes/internal/lattice"
	"aecodes/internal/segstore"
	"aecodes/internal/store"
	"aecodes/internal/store/storetest"
)

// TestRepairWindowBoundsHeldBlocks repairs a segstore Lattice whose first
// round plans more than five windows' worth of blocks, through the
// use-after-release guard: the most fetched blocks held at once stays
// within one window, every block comes back byte-exact, and the windows
// counter moves by the windows the rounds ran.
func TestRepairWindowBoundsHeldBlocks(t *testing.T) {
	params := lattice.Params{Alpha: 3, S: 2, P: 5}
	const n, blockSize, window = 200, 4 << 10, 16
	seg, err := segstore.Open(t.TempDir(), segstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { seg.Close() })
	lat, err := segstore.NewLattice(seg, segstore.Shape{Params: params, Blocks: n, BlockSize: blockSize})
	if err != nil {
		t.Fatal(err)
	}
	enc, err := NewEncoder(params, blockSize)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	orig := make(map[store.Ref][]byte)
	var refs []store.Ref
	for i := 1; i <= n; i++ {
		data := make([]byte, blockSize)
		rng.Read(data)
		ent, err := enc.Entangle(data)
		if err != nil {
			t.Fatal(err)
		}
		blocks := []store.Block{{Ref: store.DataRef(ent.Index), Data: data}}
		for _, p := range ent.Parities {
			blocks = append(blocks, store.Block{Ref: store.ParityRef(p.Edge), Data: bytes.Clone(p.Data)})
		}
		for _, b := range blocks {
			refs = append(refs, b.Ref)
			orig[b.Ref] = b.Data
		}
		if err := lat.PutMany(bg, blocks); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range refs {
		if rng.Float64() < 0.3 {
			seg.Del(r.String())
		}
	}

	rep, err := NewRepairer(params, blockSize)
	if err != nil {
		t.Fatal(err)
	}
	rep.window = window
	loss, err := seedLoss(bg, lat, Options{}, &Stats{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := rep.chooseTuples(bg, loss, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	planned := len(p.refs) + len(p.jobs)
	if planned <= 5*window {
		t.Fatalf("round 1 plans %d blocks, want more than five windows of %d", planned, window)
	}

	st := storetest.NewPoisoned(t, lat)
	counter := entangleScope.Counter("repair.lattice.normal.windows")
	before := counter.Value()
	stats, err := rep.Repair(bg, st, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if left := len(stats.UnrepairedData) + len(stats.UnrepairedParities); left > 0 || stats.Rounds < 2 {
		t.Fatalf("%d blocks left unrepaired after %d rounds, want a full repair over several", left, stats.Rounds)
	}
	t.Logf("round 1 planned %d blocks; %d rounds held at most %d fetched blocks at once in windows of %d",
		planned, stats.Rounds, st.Peak(), window)
	if st.Peak() > window {
		t.Errorf("the rounds held %d fetched blocks at once, want at most one window of %d", st.Peak(), window)
	}
	// Pinned for this damage: the rounds ran 97 windows — a round cut
	// into several runs them two deep, each of half a window — round 1 at
	// least planned/window of them.
	if got := counter.Value() - before; got != 97 || got < int64(planned/window) {
		t.Errorf("the windows counter moved by %d, want 97 (round 1 alone plans %d blocks in windows of %d)", got, planned, window)
	}
	got, err := lat.GetMany(bg, refs)
	if err != nil {
		t.Fatal(err)
	}
	for k, r := range refs {
		if !bytes.Equal(got[k], orig[r]) {
			t.Fatalf("%v differs from the original after repair", r)
		}
	}
}

// stoppingStore fails its second PutMany, or cancels the run's context as
// its second GetMany is asked for. landed lists the refs of every PutMany
// that returned nil. A commit runs beside the next window's fetch, so
// both read the counts under the counting store's lock.
type stoppingStore struct {
	*countingStore
	cancel context.CancelFunc // nil: fail the second PutMany
	landed []store.Ref        // read and written holding countingStore.mu
}

var errSecondPut = errors.New("second PutMany refused")

func (s *stoppingStore) GetMany(ctx context.Context, refs []store.Ref) ([][]byte, error) {
	s.mu.Lock()
	second := len(s.fetched) == 1
	s.mu.Unlock()
	if s.cancel != nil && second {
		s.cancel()
	}
	return s.countingStore.GetMany(ctx, refs)
}

func (s *stoppingStore) PutMany(ctx context.Context, blocks []store.Block) error {
	s.mu.Lock()
	second := len(s.written) == 1
	s.mu.Unlock()
	if s.cancel == nil && second {
		return errSecondPut
	}
	err := s.countingStore.PutMany(ctx, blocks)
	if err == nil {
		s.mu.Lock()
		s.landed = append(s.landed, blockRefs(blocks)...)
		s.mu.Unlock()
	}
	return err
}

// TestRepairStoppedRoundCountsCommittedWindows stops a windowed round in
// its second window — its PutMany fails, or the context ends as it
// fetches — and wants the statistics and the repair counters to count
// exactly what landed, as the partial round 1: the first window's commit
// when the second window's fails, and when the context ends beside the
// first window's commit, that commit if it returned nil.
func TestRepairStoppedRoundCountsCommittedWindows(t *testing.T) {
	params := lattice.Params{Alpha: 3, S: 2, P: 5}
	const blockSize = 32
	for _, cancelled := range []bool{false, true} {
		st, _ := buildDamagedStore(t, params, 80, blockSize, 0.3, 17)
		ctx, cancel := context.WithCancel(bg)
		defer cancel()
		ss := &stoppingStore{countingStore: &countingStore{inner: st}}
		if cancelled {
			ss.cancel = cancel
		}
		rep, err := NewRepairer(params, blockSize)
		if err != nil {
			t.Fatal(err)
		}
		rep.window = 9
		counter := func(field string) int64 {
			return entangleScope.Counter("repair.lattice.normal." + field).Value()
		}
		dataBefore, parBefore, readBefore := counter("data_repaired"), counter("parity_repaired"), counter("bytes_read")
		stats, err := rep.Repair(ctx, ss, Options{})
		want := errSecondPut
		if cancelled {
			want = context.Canceled
		}
		if !errors.Is(err, want) {
			t.Fatalf("cancelled=%v: Repair = %v, want the second window's failure", cancelled, err)
		}
		if len(ss.written) != 1 {
			t.Fatalf("cancelled=%v: %d commits, want the first window's alone", cancelled, len(ss.written))
		}
		committed := ss.written[0]
		if cancelled {
			committed = ss.landed
		}
		if len(committed) == 0 {
			// The context ended before the first window's commit landed.
			if stats.Rounds != 0 || len(stats.PerRound) != 0 || stats.DataRepaired+stats.ParityRepaired != 0 {
				t.Fatalf("cancelled=%v: stats %+v, want no round: no commit landed", cancelled, stats)
			}
		} else {
			var first RoundStats
			for _, r := range committed {
				if r.Parity {
					first.ParityRepaired++
				} else {
					first.DataRepaired++
				}
			}
			first.Round = 1
			if stats.Rounds != 1 || len(stats.PerRound) != 1 || stats.PerRound[0] != first ||
				stats.DataRepaired != first.DataRepaired || stats.ParityRepaired != first.ParityRepaired ||
				stats.FirstRoundData != first.DataRepaired {
				t.Fatalf("cancelled=%v: stats %+v, want the first window's %+v as round 1", cancelled, stats, first)
			}
			// Every repair read at least one real block.
			if repairs := first.DataRepaired + first.ParityRepaired; stats.BytesRead < int64(repairs*blockSize) {
				t.Fatalf("cancelled=%v: BytesRead = %d for %d repairs of %d-byte blocks", cancelled, stats.BytesRead, repairs, blockSize)
			}
		}
		if counter("data_repaired")-dataBefore != int64(stats.DataRepaired) ||
			counter("parity_repaired")-parBefore != int64(stats.ParityRepaired) ||
			counter("bytes_read")-readBefore != stats.BytesRead {
			t.Fatalf("cancelled=%v: the repair counters disagree with the returned stats %+v", cancelled, stats)
		}
	}
}

// pipeStore holds the first PutMany until the second GetMany is asked
// for, so the first window's commit is in flight while the next window
// fetches, and stops the run one way or another (see
// TestRepairPipelineStopsWithCommitInFlight). landed lists the refs of
// every PutMany that returned nil.
type pipeStore struct {
	store.BlockStore
	stop     string
	cancel   context.CancelFunc
	fetching chan struct{} // closed as the second GetMany is asked for

	mu      sync.Mutex
	gets    int         // guarded by mu
	puts    int         // guarded by mu
	landed  []store.Ref // guarded by mu
	overlap bool        // the first commit waited for the second fetch; guarded by mu
}

var errFetch = errors.New("fetch refused")

func (s *pipeStore) GetMany(ctx context.Context, refs []store.Ref) ([][]byte, error) {
	s.mu.Lock()
	s.gets++
	n := s.gets
	s.mu.Unlock()
	if n == 2 {
		if strings.HasPrefix(s.stop, "ctx") {
			s.cancel()
		}
		close(s.fetching)
	}
	if n >= 2 && s.stop == "fetch" {
		return nil, errFetch
	}
	return s.BlockStore.GetMany(ctx, refs)
}

func (s *pipeStore) PutMany(ctx context.Context, blocks []store.Block) error {
	s.mu.Lock()
	s.puts++
	n := s.puts
	s.mu.Unlock()
	if n == 1 {
		select {
		case <-s.fetching:
			s.mu.Lock()
			s.overlap = true
			s.mu.Unlock()
		case <-time.After(5 * time.Second):
		}
		if s.stop == "ctx, commit lands" {
			ctx = context.WithoutCancel(ctx) // a write already on its way
		}
	}
	if n == 2 && s.stop == "put" {
		return errSecondPut
	}
	err := s.BlockStore.PutMany(ctx, blocks)
	if err == nil {
		s.mu.Lock()
		s.landed = append(s.landed, blockRefs(blocks)...)
		s.mu.Unlock()
	}
	return err
}

// TestRepairPipelineStopsWithCommitInFlight stops a round cut into many
// windows while the first window's commit runs beside the second
// window's fetch: the second commit fails, every fetch from the second on
// fails, or the second fetch ends the context — with the commit in flight
// landing or refused. Whatever stops it, the run waits for the commit in
// flight, the statistics, PerRound and the repair counters count exactly
// the commits that returned nil, and no goroutine outlives Repair.
func TestRepairPipelineStopsWithCommitInFlight(t *testing.T) {
	params := lattice.Params{Alpha: 3, S: 2, P: 5}
	const blockSize = 32
	cases := []struct {
		stop string
		want error
	}{
		{"put", errSecondPut},
		{"fetch", errFetch},
		{"ctx, commit lands", context.Canceled},
		{"ctx, commit refused", context.Canceled},
	}
	for _, tc := range cases {
		t.Run(tc.stop, func(t *testing.T) {
			st, _ := buildDamagedStore(t, params, 80, blockSize, 0.3, 17)
			ctx, cancel := context.WithCancel(bg)
			defer cancel()
			ps := &pipeStore{BlockStore: st, stop: tc.stop, cancel: cancel, fetching: make(chan struct{})}
			rep, err := NewRepairer(params, blockSize)
			if err != nil {
				t.Fatal(err)
			}
			rep.window = 9
			counter := func(field string) int64 {
				return entangleScope.Counter("repair.lattice.normal." + field).Value()
			}
			dataBefore, parBefore, readBefore := counter("data_repaired"), counter("parity_repaired"), counter("bytes_read")
			goroutines := runtime.NumGoroutine()
			stats, err := rep.Repair(ctx, ps, Options{RetryDelay: -1})
			if !errors.Is(err, tc.want) {
				t.Fatalf("Repair = %v, want %v", err, tc.want)
			}
			for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > goroutines; {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after Repair returned, %d before", runtime.NumGoroutine(), goroutines)
				}
				time.Sleep(time.Millisecond)
			}
			ps.mu.Lock()
			landed, overlap := ps.landed, ps.overlap
			ps.mu.Unlock()
			if !overlap {
				t.Fatal("the first window's commit was not in flight beside the second window's fetch")
			}
			if (len(landed) > 0) != (tc.stop != "ctx, commit refused") {
				t.Fatalf("%d repairs landed", len(landed))
			}
			var first RoundStats
			for _, r := range landed {
				if r.Parity {
					first.ParityRepaired++
				} else {
					first.DataRepaired++
				}
			}
			var want []RoundStats
			if len(landed) > 0 {
				first.Round = 1
				want = []RoundStats{first}
			}
			if stats.Rounds != len(want) || !slices.Equal(stats.PerRound, want) ||
				stats.DataRepaired != first.DataRepaired || stats.ParityRepaired != first.ParityRepaired ||
				stats.FirstRoundData != first.DataRepaired {
				t.Fatalf("stats %+v, want exactly the landed commits %+v", stats, want)
			}
			if counter("data_repaired")-dataBefore != int64(stats.DataRepaired) ||
				counter("parity_repaired")-parBefore != int64(stats.ParityRepaired) ||
				counter("bytes_read")-readBefore != stats.BytesRead {
				t.Fatalf("the repair counters disagree with the returned stats %+v", stats)
			}
		})
	}
}
