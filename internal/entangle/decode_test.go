package entangle

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"aecodes/internal/lattice"
	"aecodes/internal/store"
	"aecodes/internal/xorblock"
)

// readOnlyStore fails every write: DecodeData is a round that does not
// commit.
type readOnlyStore struct {
	*countingStore
	t testing.TB
}

var errReadOnly = errors.New("write to a read-only store")

func (s *readOnlyStore) PutData(ctx context.Context, i int, b []byte) error {
	s.t.Errorf("DecodeData wrote d%d", i)
	return errReadOnly
}

func (s *readOnlyStore) PutParity(ctx context.Context, e lattice.Edge, b []byte) error {
	s.t.Errorf("DecodeData wrote parity %v", e)
	return errReadOnly
}

func (s *readOnlyStore) PutMany(ctx context.Context, blocks []store.Block) error {
	s.t.Errorf("DecodeData wrote a batch of %d blocks", len(blocks))
	return errReadOnly
}

// TestDecodeDataMatchesSetOracle pins the uncommitted round against the
// set oracle over every evaluated code setting and light to catastrophic
// damage: DecodeData rebuilds exactly the missing data blocks that have a
// complete pp-tuple in the pre-call state (data repairs read parities
// only, so under DataOnly the oracle's closure is its first round), with
// original content, in at most α store calls, fetching no block twice,
// never a virtual edge, and writing nothing. Positions past the end of
// the lattice come back nil: their out-edges were never written.
func TestDecodeDataMatchesSetOracle(t *testing.T) {
	const n, blockSize = 150, 8
	for _, params := range soundnessSettings {
		t.Run(params.String(), func(t *testing.T) {
			rep, err := NewRepairer(params)
			if err != nil {
				t.Fatal(err)
			}
			for _, damage := range []float64{0.1, 0.3, 0.5, 0.7} {
				ref := buildReference(t, params, n, blockSize, int64(damage*100))
				rng := rand.New(rand.NewSource(int64(damage * 1000)))
				for k := range ref.ordered {
					if rng.Float64() < damage {
						ref.lose(k)
					}
				}
				missing, err := ref.st.Missing(bg)
				if err != nil {
					t.Fatal(err)
				}
				want := setOracle(t, ref.lat, n, missing, true, nil)
				if len(want.perRound) > 1 {
					t.Fatalf("oracle took %d rounds over data alone", len(want.perRound))
				}

				positions := append(slices.Clone(missing.Data), n+1, n+2, n+params.S+params.P+1)
				st := &readOnlyStore{countingStore: &countingStore{inner: ref.st}, t: t}
				got, err := rep.DecodeData(bg, st, positions)
				if err != nil {
					t.Fatalf("damage %.1f: DecodeData: %v", damage, err)
				}
				if len(got) != len(positions) {
					t.Fatalf("damage %.1f: %d results for %d positions", damage, len(got), len(positions))
				}
				for k, pos := range positions {
					switch {
					case pos > n:
						if got[k] != nil {
							t.Fatalf("damage %.1f: rebuilt d%d, beyond the lattice's %d blocks", damage, pos, n)
						}
					case slices.Contains(want.data, pos):
						if got[k] != nil {
							t.Fatalf("damage %.1f: rebuilt d%d, which the oracle calls unrepairable", damage, pos)
						}
					case got[k] == nil:
						t.Fatalf("damage %.1f: d%d not rebuilt although a tuple of it is complete", damage, pos)
					case !bytes.Equal(got[k], ref.data[pos]):
						t.Fatalf("damage %.1f: d%d rebuilt with wrong content", damage, pos)
					}
				}

				getData, getParity, getMany, _, enumerations := st.counts()
				if getData+getParity+enumerations != 0 {
					t.Fatalf("damage %.1f: %d single reads and %d enumerations, want batches only", damage, getData+getParity, enumerations)
				}
				if getMany > params.Alpha {
					t.Fatalf("damage %.1f: %d store calls, want at most α = %d", damage, getMany, params.Alpha)
				}
				seen := make(map[store.Ref]bool)
				for _, batch := range st.fetched {
					for _, r := range batch {
						if !r.Parity || r.Edge.IsVirtual() {
							t.Fatalf("damage %.1f: fetched %v, not a stored parity", damage, r)
						}
						if seen[r] {
							t.Fatalf("damage %.1f: fetched %v twice", damage, r)
						}
						seen[r] = true
					}
				}
			}
		})
	}
}

// TestDecodeDataBeyondTheEnd asks for nothing but positions the lattice
// never reached, on an undamaged store: every one comes back nil.
func TestDecodeDataBeyondTheEnd(t *testing.T) {
	const n = 40
	params := lattice.Params{Alpha: 3, S: 2, P: 5}
	ref := buildReference(t, params, n, 8, 1)
	rep, err := NewRepairer(params)
	if err != nil {
		t.Fatal(err)
	}
	positions := make([]int, 16)
	for k := range positions {
		positions[k] = n + 1 + k
	}
	got, err := rep.DecodeData(bg, ref.st, positions)
	if err != nil {
		t.Fatal(err)
	}
	for k, b := range got {
		if b != nil {
			t.Fatalf("rebuilt d%d of a %d-block lattice", positions[k], n)
		}
	}
}

func TestDecodeDataCancelled(t *testing.T) {
	params := lattice.Params{Alpha: 3, S: 2, P: 5}
	ref := buildReference(t, params, 20, 8, 1)
	ref.st.LoseData(7)
	rep, err := NewRepairer(params)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(bg)
	cancel()
	if _, err := rep.DecodeData(ctx, ref.st, []int{7}); !errors.Is(err, context.Canceled) {
		t.Fatalf("DecodeData under a cancelled context: %v, want context.Canceled", err)
	}
}

// TestXorRoundReturnsBuffersOnError fails one job of a round (its two
// members differ in length) and looks for the other job's output in the
// pool: the buffers a failed round drew go back, they are not dropped.
// The pool may shed a buffer on its own, so the round is repeated.
func TestXorRoundReturnsBuffersOnError(t *testing.T) {
	const size = 72 // a block size nothing else in the package uses
	pool := xorblock.PoolFor(size)
	a, b := bytes.Repeat([]byte{0xA5}, size), bytes.Repeat([]byte{0x0F}, size)
	want := bytes.Repeat([]byte{0xA5 ^ 0x0F}, size)
	jobs := []job{
		{ref: store.DataRef(1), a: 0, b: 1},
		{ref: store.DataRef(2), a: 0, b: 2},
	}
	blocks := [][]byte{a, b, make([]byte, size-1)}
	for attempt := 0; attempt < 50; attempt++ {
		if fixes, err := xorRound(jobs, blocks, 1); err == nil {
			t.Fatalf("round with a short member succeeded: %d fixes", len(fixes))
		}
		for draw := 0; draw < 4; draw++ {
			if bytes.Equal(pool.Get(), want) {
				return
			}
		}
	}
	t.Fatal("no buffer of a failed round ever came back from the pool")
}
