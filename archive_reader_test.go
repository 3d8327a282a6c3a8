package aecodes

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aecodes/internal/lattice"
	"aecodes/internal/obs"
	"aecodes/internal/segstore"
	"aecodes/internal/store/storetest"
	"aecodes/internal/xorblock"
)

var testArchiveParams = Params{Alpha: 3, S: 2, P: 5}

// testArchive is a payload streamed into a MemoryStore, ready to damage.
type testArchive struct {
	code    *Code
	st      *MemoryStore
	blocks  int
	payload []byte
}

func newTestArchive(t testing.TB, blockSize int, payload []byte) *testArchive {
	t.Helper()
	code, err := New(testArchiveParams, blockSize)
	if err != nil {
		t.Fatal(err)
	}
	st := NewMemoryStore(blockSize)
	w, err := NewArchiveWriter(code, st, ArchiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return &testArchive{code: code, st: st, blocks: w.Blocks(), payload: payload}
}

// randomPayload fills blocks−1 full blocks and part of a last one.
func randomPayload(rng *rand.Rand, blockSize, blocks int) []byte {
	payload := make([]byte, (blocks-1)*archiveCapacity(blockSize)+1+rng.Intn(archiveCapacity(blockSize)))
	rng.Read(payload)
	return payload
}

// tuples returns the pp-tuples of position i in the order repair tries
// them.
func (a *testArchive) tuples(t testing.TB, i int) []lattice.Tuple {
	t.Helper()
	tuples, err := a.code.Lattice().Tuples(i)
	if err != nil {
		t.Fatal(err)
	}
	return tuples
}

// corrupt XORs mask into byte at of stored data block i, leaving it
// served: at-rest corruption the store's own checks did not catch.
func (a *testArchive) corrupt(t testing.TB, i, at int, mask byte) {
	t.Helper()
	raw, err := a.st.GetData(context.Background(), i)
	if err != nil {
		t.Fatal(err)
	}
	bad := bytes.Clone(raw)
	bad[at] ^= mask
	if err := a.st.CorruptData(i, bad); err != nil {
		t.Fatal(err)
	}
}

// destroy loses every pp-tuple of position i.
func (a *testArchive) destroy(t testing.TB, i int) {
	t.Helper()
	for _, tu := range a.tuples(t, i) {
		a.st.LoseParity(tu.In)
		a.st.LoseParity(tu.Out)
	}
}

// referenceRead is the synchronous reader ArchiveReader was before it
// grew a fetch stage, kept as the reference the pipelined one is compared
// with: one position at a time, a serial RepairData for a block that is
// missing or fails validation, the same framing, version-lock and
// checksum rules. It returns the payload up to the first error.
func referenceRead(ctx context.Context, code *Code, st BlockStore) ([]byte, error) {
	var out []byte
	locked := 0
	parse := func(raw []byte) ([]byte, bool, int, error) {
		payload, last, ver, err := parseArchiveBlock(raw, code.BlockSize())
		if err == nil && locked != 0 && ver != locked {
			err = fmt.Errorf("block framed as v%d inside a v%d archive", ver, locked)
		}
		return payload, last, ver, err
	}
	for pos := 1; ; pos++ {
		raw, err := st.GetData(ctx, pos)
		repaired := false
		if err != nil {
			if raw, err = code.RepairData(ctx, st, pos); err != nil {
				return out, fmt.Errorf("d%d unreadable: %w", pos, err)
			}
			repaired = true
		}
		payload, last, ver, err := parse(raw)
		if err != nil && !repaired {
			if rep, rerr := code.RepairData(ctx, st, pos); rerr == nil {
				payload, last, ver, err = parse(rep)
			}
		}
		if err == nil && ver == 1 && locked == 0 && !repaired {
			if rep, rerr := code.RepairData(ctx, st, pos); rerr == nil && !xorblock.Equal(rep, raw) {
				payload, last, ver, err = parse(rep)
			}
		}
		if err != nil {
			return out, fmt.Errorf("d%d corrupt beyond degraded repair: %w", pos, err)
		}
		locked = ver
		out = append(out, payload...)
		if last {
			return out, nil
		}
	}
}

// errClass names what kind of failure ended a stream.
func errClass(err error) string {
	switch {
	case err == nil:
		return "none"
	case errors.Is(err, ErrUnrepairable):
		return "unreadable"
	case strings.Contains(err.Error(), "corrupt beyond degraded repair"):
		return "corrupt"
	default:
		return "other: " + err.Error()
	}
}

// readInCalls drains r with Read calls of the given sizes, repeated.
func readInCalls(r io.Reader, sizes []int) ([]byte, error) {
	var out []byte
	buf := make([]byte, slices.Max(sizes))
	for k := 0; ; k++ {
		n, err := r.Read(buf[:sizes[k%len(sizes)]])
		out = append(out, buf[:n]...)
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return out, err
		}
	}
}

// checkAgainstReference reads the archive in st through ArchiveReader —
// by Read in calls of the given sizes, and by WriteTo — and fails unless
// both deliver want, the bytes the reference reader delivered, and end in
// the class of error it ended in after them.
func checkAgainstReference(t testing.TB, code *Code, st BlockStore, window int, sizes []int, want []byte, wantClass string) {
	t.Helper()
	compare := func(how string, got []byte, err error) {
		t.Helper()
		if !bytes.Equal(got, want) {
			t.Fatalf("window %d, %s: delivered %d bytes, the reference %d (or they differ)", window, how, len(got), len(want))
		}
		if errClass(err) != wantClass {
			t.Fatalf("window %d, %s: after %d bytes ended with %q (%v), the reference with %q",
				window, how, len(got), errClass(err), err, wantClass)
		}
	}
	// Whatever the window holds, with the fetch stage working ahead and
	// with it running in line.
	for _, ahead := range []bool{true, false} {
		r := OpenArchiveOptions(code, st, ArchiveOptions{Window: window})
		r.readAhead = ahead
		got, err := readInCalls(r, sizes)
		compare(fmt.Sprintf("Read (ahead %v)", ahead), got, err)
		r = OpenArchiveOptions(code, st, ArchiveOptions{Window: window})
		r.readAhead = ahead
		var sink bytes.Buffer
		_, err = r.WriteTo(&sink)
		compare(fmt.Sprintf("WriteTo (ahead %v)", ahead), sink.Bytes(), err)
	}
}

// onSegstore copies every block a's store serves — a corrupted block as
// it is served — into a segstore.Lattice in a fresh directory, and
// returns that behind the use-after-release guard: the same archive, read
// through pooled blocks that are poisoned the moment they are released.
func (a *testArchive) onSegstore(t testing.TB) *storetest.Poisoned {
	t.Helper()
	seg, err := segstore.Open(t.TempDir(), segstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { seg.Close() })
	view, err := segstore.NewLattice(seg, segstore.Shape{Params: testArchiveParams, Blocks: a.blocks, BlockSize: a.code.BlockSize()})
	if err != nil {
		t.Fatal(err)
	}
	var blocks []Block
	for i := 1; i <= a.blocks; i++ {
		if b, ok := a.st.Data(i); ok {
			blocks = append(blocks, Block{Ref: DataRef(i), Data: b})
		}
	}
	for _, e := range a.code.Lattice().RealOutEdges(a.blocks) {
		if b, ok := a.st.Parity(e); ok {
			blocks = append(blocks, Block{Ref: ParityRef(e), Data: b})
		}
	}
	if err := view.PutMany(context.Background(), blocks); err != nil {
		t.Fatal(err)
	}
	return storetest.NewPoisoned(t, view)
}

// reference runs the reference reader over the archive as it is now.
func (a *testArchive) reference(t testing.TB) (delivered []byte, class string) {
	t.Helper()
	delivered, err := referenceRead(context.Background(), a.code, a.st)
	if err == nil && !bytes.Equal(delivered, a.payload) {
		t.Fatal("the reference reader returned a wrong payload without an error")
	}
	return delivered, errClass(err)
}

// TestArchiveReaderMatchesSynchronousReader is the equivalence property:
// over 4 KiB, 64 KiB and 1 MiB blocks, windows of 1, 2, 16 and more than
// the archive, read calls that straddle blocks, each kind of damage, and
// the fetch stage both ahead and in line, the reader delivers what the
// synchronous reader delivered and fails where and how it failed.
func TestArchiveReaderMatchesSynchronousReader(t *testing.T) {
	damages := []struct {
		name  string
		apply func(t testing.TB, a *testArchive, rng *rand.Rand)
		want  string
	}{
		{"clean", func(testing.TB, *testArchive, *rand.Rand) {}, "none"},
		{"missing data", func(t testing.TB, a *testArchive, rng *rand.Rand) {
			a.st.LoseData(1)
			a.st.LoseData(a.blocks)
			for i := 2; i < a.blocks; i++ {
				if rng.Float64() < 0.25 {
					a.st.LoseData(i)
				}
			}
		}, "none"},
		{"second and third tuple", func(t testing.TB, a *testArchive, rng *rand.Rand) {
			second, third := 2+rng.Intn(2), a.blocks-1-rng.Intn(2)
			a.st.LoseData(second)
			a.st.LoseParity(a.tuples(t, second)[0].Out)
			a.st.LoseData(third)
			a.st.LoseParity(a.tuples(t, third)[0].Out)
			a.st.LoseParity(a.tuples(t, third)[1].Out)
		}, "none"},
		{"corruption at rest", func(t testing.TB, a *testArchive, rng *rand.Rand) {
			a.corrupt(t, 2, 0, 0x80)        // an interior block claims to be final
			a.st.LoseData(3)                // and a block the fetch stage then leaves alone
			a.corrupt(t, 4, 0, 0x40)        // version bit
			a.corrupt(t, 5, 20, 0x01)       // payload
			a.corrupt(t, a.blocks, 0, 0x80) // the final block says it is not
		}, "none"},
		{"first block's version bit", func(t testing.TB, a *testArchive, rng *rand.Rand) {
			a.corrupt(t, 1, 0, 0x40)
		}, "none"},
		{"missing beyond repair", func(t testing.TB, a *testArchive, rng *rand.Rand) {
			a.st.LoseData(2)
			victim := 3 + rng.Intn(a.blocks-3)
			a.st.LoseData(victim)
			a.destroy(t, victim)
		}, "unreadable"},
		{"corrupt beyond repair", func(t testing.TB, a *testArchive, rng *rand.Rand) {
			victim := 3 + rng.Intn(a.blocks-3)
			a.corrupt(t, victim, 20, 0x01)
			a.destroy(t, victim)
		}, "corrupt"},
	}
	for _, size := range []struct {
		name              string
		blockSize, blocks int
		windows           []int
	}{
		{"4KiB", 4 << 10, 37, []int{1, 2, 16, 46}},
		{"64KiB", 64 << 10, 19, []int{1, 2, 16, 28}},
		{"1MiB", 1 << 20, 6, []int{2, 16}}, // fewer: the race detector pays for every byte copied
	} {
		for seed, damage := range damages {
			t.Run(size.name+"/"+damage.name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(seed)))
				a := newTestArchive(t, size.blockSize, randomPayload(rng, size.blockSize, size.blocks))
				damage.apply(t, a, rng)
				capacity := archiveCapacity(size.blockSize)
				sizes := []int{1, capacity - 1, 2, capacity + 1, 3*capacity + 5, capacity / 3}
				want, wantClass := a.reference(t)
				if wantClass != damage.want {
					t.Fatalf("the damage ended the reference stream with %q, meant to produce %q", wantClass, damage.want)
				}
				for _, window := range size.windows {
					checkAgainstReference(t, a.code, a.st, window, sizes, want, wantClass)
				}
			})
		}
	}
}

// TestArchiveReaderReleasesIntoPoison streams archives out of a
// segstore.Lattice behind the use-after-release guard — 4 KiB and 1 MiB
// blocks, windows of 1 and 16, clean and damaged, by Read and WriteTo,
// ahead and in line — and wants every stream byte-exact: no block the
// reader released, to the store or to the pool, is read again.
func TestArchiveReaderReleasesIntoPoison(t *testing.T) {
	for _, size := range []struct {
		name              string
		blockSize, blocks int
	}{{"4KiB", 4 << 10, 40}, {"1MiB", 1 << 20, 12}} {
		for _, damaged := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/damaged=%v", size.name, damaged), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(size.blocks)))
				a := newTestArchive(t, size.blockSize, randomPayload(rng, size.blockSize, size.blocks))
				if damaged {
					for i := 1; i <= a.blocks; i++ {
						switch roll := rng.Float64(); {
						case roll < 0.2:
							a.st.LoseData(i)
						case roll < 0.3:
							a.corrupt(t, i, rng.Intn(size.blockSize), 1<<rng.Intn(8))
						case roll < 0.4:
							a.st.LoseParity(a.tuples(t, i)[0].Out)
						}
					}
				}
				want, wantClass := a.reference(t)
				if wantClass != "none" {
					t.Fatalf("the damage ended the reference stream with %q", wantClass)
				}
				st := a.onSegstore(t)
				capacity := archiveCapacity(size.blockSize)
				for _, window := range []int{1, 16} {
					checkAgainstReference(t, a.code, st, window, []int{capacity - 1, 3*capacity + 5}, want, wantClass)
				}
				if st.Released() == 0 {
					t.Fatal("the reader released nothing: the guard guarded nothing")
				}
			})
		}
	}
}

// TestArchiveRestoreRecyclesBlocks pins what the release buys: once a
// restore has warmed the pool, a second one reads every block into a
// block an earlier read handed back, and xorblock/pool.fresh stays flat.
func TestArchiveRestoreRecyclesBlocks(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops what it is handed")
	}
	const blockSize, blocks = 64 << 10, 96
	rng := rand.New(rand.NewSource(5))
	a := newTestArchive(t, blockSize, randomPayload(rng, blockSize, blocks))
	st := a.onSegstore(t)
	restore := func() {
		got, err := io.ReadAll(OpenArchive(a.code, st))
		if err != nil || !bytes.Equal(got, a.payload) {
			t.Fatalf("restore: %d bytes, %v", len(got), err)
		}
	}
	restore()
	before := obs.Default.Snapshot().Counters["xorblock/pool.fresh"]
	restore()
	// A window of 16 is fetched at a time; a GC cycle in between may
	// take a window's worth from the pool, never a block per block read.
	if fresh := obs.Default.Snapshot().Counters["xorblock/pool.fresh"] - before; fresh > 16 {
		t.Fatalf("a warm restore of %d blocks allocated %d fresh ones", blocks, fresh)
	}
}

// openReadingAhead opens a reader whose fetch stage works ahead however
// little a window holds.
func openReadingAhead(ctx context.Context, code *Code, st BlockStore, window int) *ArchiveReader {
	r := OpenArchiveContext(ctx, code, st, ArchiveOptions{Window: window})
	r.readAhead = true
	return r
}

// windowStore is a BlockStore whose window fetches — GetMany calls for
// data blocks — wait at a gate, are counted, and can be made to fail from
// a position on. The decode's GetMany calls, for parities, pass.
type windowStore struct {
	BlockStore
	gate     chan struct{} // a fetch takes one token, or passes once closed; nil: no gate
	failFrom int           // window fetches starting at or past this position fail; 0: none
	check    func(first int)

	inFlight, maxInFlight atomic.Int32
	mu                    sync.Mutex
	firsts                []int // first position of every window fetch
}

func (s *windowStore) starts() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Clone(s.firsts)
}

var errWindowStore = errors.New("windowStore: injected fetch failure")

func (s *windowStore) GetMany(ctx context.Context, refs []BlockRef) ([][]byte, error) {
	if len(refs) == 0 || refs[0].Parity {
		return s.BlockStore.GetMany(ctx, refs)
	}
	first := refs[0].Index
	n := s.inFlight.Add(1)
	defer s.inFlight.Add(-1)
	for max := s.maxInFlight.Load(); n > max && !s.maxInFlight.CompareAndSwap(max, n); max = s.maxInFlight.Load() {
	}
	s.mu.Lock()
	s.firsts = append(s.firsts, first)
	s.mu.Unlock()
	if s.check != nil {
		s.check(first)
	}
	if s.gate != nil {
		<-s.gate // deaf to ctx on purpose: Read must come back without the store's help
	}
	if s.failFrom > 0 && first >= s.failFrom {
		return nil, errWindowStore
	}
	return s.BlockStore.GetMany(ctx, refs)
}

// TestArchiveReaderOneFetchInFlight streams an archive of ten windows
// through a store that holds every window fetch at a gate until the test
// lets it through: no fetch ever starts while another is in flight, and
// when the fetch of window k starts every byte of window k−2 has been
// delivered, so at most 2 × Window blocks are resident.
func TestArchiveReaderOneFetchInFlight(t *testing.T) {
	const blockSize, window, windows = 64, 4, 10
	capacity := archiveCapacity(blockSize)
	rng := rand.New(rand.NewSource(1))
	a := newTestArchive(t, blockSize, randomPayload(rng, blockSize, window*windows))

	var delivered atomic.Int64
	var resident atomic.Int64 // the most blocks ever held: fetched or being fetched, minus fully delivered
	st := &windowStore{BlockStore: a.st, gate: make(chan struct{})}
	st.check = func(first int) {
		held := int64(first-1+window) - delivered.Load()/int64(capacity)
		for max := resident.Load(); held > max && !resident.CompareAndSwap(max, held); max = resident.Load() {
		}
	}
	done := make(chan error, 1)
	var got bytes.Buffer
	go func() {
		_, err := openReadingAhead(context.Background(), a.code, st, window).WriteTo(writerFunc(func(p []byte) (int, error) {
			delivered.Add(int64(len(p)))
			return got.Write(p)
		}))
		done <- err
	}()
	for released := 0; released < windows; released++ {
		// Let the reader run into the gate, and give it time to start a
		// second fetch if it is ever going to.
		for st.inFlight.Load() == 0 {
			runtime.Gosched()
		}
		time.Sleep(time.Millisecond)
		st.gate <- struct{}{}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), a.payload) {
		t.Fatal("payload mismatch")
	}
	if max := st.maxInFlight.Load(); max != 1 {
		t.Fatalf("%d window fetches in flight at once, want 1", max)
	}
	if max := resident.Load(); max > 2*window {
		t.Fatalf("%d blocks resident, want at most 2 × Window = %d", max, 2*window)
	}
	if starts := st.starts(); len(starts) != windows {
		t.Fatalf("window fetches started at %v: want %d, none past the final block", starts, windows)
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// waitForGoroutines waits for the goroutine count to fall back to base.
func waitForGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left, %d before the reader was opened", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestArchiveReaderCancelAndDrop holds the fetch of window 2 at the gate
// for good. A cancelled reader delivers all of window 1 and then returns
// ctx.Err() without waiting for the store; a reader that is dropped
// mid-stream, or was cancelled, leaves no goroutine behind once the store
// call it abandoned returns.
func TestArchiveReaderCancelAndDrop(t *testing.T) {
	const blockSize, window = 64, 4
	rng := rand.New(rand.NewSource(2))
	a := newTestArchive(t, blockSize, randomPayload(rng, blockSize, 5*window))
	firstWindow := a.payload[:window*archiveCapacity(blockSize)]
	base := runtime.NumGoroutine()

	for _, cancelled := range []bool{true, false} {
		st := &windowStore{BlockStore: a.st, gate: make(chan struct{}, 1)}
		st.gate <- struct{}{} // window 1 passes, window 2 waits
		ctx, cancel := context.WithCancel(context.Background())
		r := openReadingAhead(ctx, a.code, st, window)
		got := make([]byte, len(firstWindow))
		if _, err := io.ReadFull(r, got); err != nil || !bytes.Equal(got, firstWindow) {
			t.Fatalf("reading window 1: %v", err)
		}
		for st.inFlight.Load() == 0 {
			runtime.Gosched() // the fetch of window 2 reaches the gate
		}
		if cancelled {
			time.AfterFunc(10*time.Millisecond, cancel)
			start := time.Now()
			n, err := r.Read(make([]byte, 1))
			if n != 0 || !errors.Is(err, context.Canceled) {
				t.Fatalf("Read past window 1 under a cancelled context = %d, %v; want 0, context.Canceled", n, err)
			}
			if waited := time.Since(start); waited > 2*time.Second {
				t.Fatalf("Read took %v to notice the cancellation", waited)
			}
			if _, err := r.Read(make([]byte, 1)); !errors.Is(err, context.Canceled) {
				t.Fatalf("the error did not stick: %v", err)
			}
		}
		// The reader is dropped here, the fetch of window 2 still waiting
		// in the store.
		close(st.gate)
		waitForGoroutines(t, base)
		cancel()
	}
}

// TestArchiveReaderStreamOrderErrors pins the order of data and errors.
// A fetch that fails surfaces only after every byte of the windows before
// it. A fetch past the final block is speculative — it happens only when
// that block's own header hides that it is final, at most once — and its
// failure does not turn a complete restore into an error; with an intact
// final block nothing past it is asked for at all.
func TestArchiveReaderStreamOrderErrors(t *testing.T) {
	const blockSize, window = 64, 4
	capacity := archiveCapacity(blockSize)
	rng := rand.New(rand.NewSource(3))
	a := newTestArchive(t, blockSize, randomPayload(rng, blockSize, 3*window)) // ends with window 3

	t.Run("failed fetch", func(t *testing.T) {
		st := &windowStore{BlockStore: a.st, failFrom: 2*window + 1}
		for _, sizes := range [][]int{{1}, {capacity + 3}, {len(a.payload)}} {
			got, err := readInCalls(openReadingAhead(context.Background(), a.code, st, window), sizes)
			if !errors.Is(err, errWindowStore) {
				t.Fatalf("reads of %d: ended with %v, want the injected fetch failure", sizes[0], err)
			}
			if want := a.payload[:2*window*capacity]; !bytes.Equal(got, want) {
				t.Fatalf("reads of %d: %d bytes before the error, want all %d of windows 1 and 2", sizes[0], len(got), len(want))
			}
		}
	})
	t.Run("nothing past an intact final block", func(t *testing.T) {
		st := &windowStore{BlockStore: a.st, failFrom: a.blocks + 1}
		got, err := io.ReadAll(openReadingAhead(context.Background(), a.code, st, window))
		if err != nil || !bytes.Equal(got, a.payload) {
			t.Fatalf("restore: %d bytes, %v", len(got), err)
		}
		if starts := st.starts(); len(starts) != 3 {
			t.Fatalf("window fetches started at %v, want the archive's three", starts)
		}
	})
	t.Run("speculative window fails", func(t *testing.T) {
		a.corrupt(t, a.blocks, 0, 0x80) // the stored final block says it is not
		st := &windowStore{BlockStore: a.st, failFrom: a.blocks + 1}
		r := openReadingAhead(context.Background(), a.code, st, window)
		got, err := io.ReadAll(r)
		if err != nil || !bytes.Equal(got, a.payload) {
			t.Fatalf("restore with a failing speculative window: %d bytes, %v", len(got), err)
		}
		if n, err := r.Read(make([]byte, 1)); n != 0 || !errors.Is(err, io.EOF) {
			t.Fatalf("Read after the end = %d, %v; want 0, io.EOF", n, err)
		}
		// Nobody waits for the speculative fetch, so it may still be on
		// its way into the store.
		want := []int{1, window + 1, 2*window + 1, 3*window + 1}
		for deadline := time.Now().Add(5 * time.Second); len(st.starts()) < len(want) && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		if starts := st.starts(); !slices.Equal(starts, want) {
			t.Fatalf("window fetches started at %v, want %v: one speculative window", starts, want)
		}
	})
}

// TestArchiveReaderDecodesWindowInBatches counts store calls on a
// damaged archive: a window's missing blocks cost at most α GetMany calls
// together, and no single-block read is made at all.
func TestArchiveReaderDecodesWindowInBatches(t *testing.T) {
	const blockSize, window = 64, 16
	rng := rand.New(rand.NewSource(4))
	a := newTestArchive(t, blockSize, randomPayload(rng, blockSize, 4*window))
	lost := 0
	for i := 1; i <= a.blocks; i++ {
		if i%3 == 0 {
			a.st.LoseData(i)
			lost++
		}
	}
	a.st.LoseParity(a.tuples(t, 9)[0].Out) // d9 needs its second tuple
	st := &callCounter{BlockStore: a.st}
	got, err := io.ReadAll(OpenArchiveOptions(a.code, st, ArchiveOptions{Window: window}))
	if err != nil || !bytes.Equal(got, a.payload) {
		t.Fatalf("degraded restore: %d bytes, %v", len(got), err)
	}
	if singles := st.singles.Load(); singles != 0 {
		t.Fatalf("%d single-block reads, want none", singles)
	}
	// Four window fetches, one decode pass for each, one more for d9.
	if batches := st.batches.Load(); batches != 4+4+1 {
		t.Fatalf("%d GetMany calls for %d missing blocks in 4 windows, want 9", batches, lost)
	}
}

// callCounter counts the reads a reader makes.
type callCounter struct {
	BlockStore
	singles, batches atomic.Int32
}

func (c *callCounter) GetData(ctx context.Context, i int) ([]byte, error) {
	c.singles.Add(1)
	return c.BlockStore.GetData(ctx, i)
}

func (c *callCounter) GetParity(ctx context.Context, e Edge) ([]byte, error) {
	c.singles.Add(1)
	return c.BlockStore.GetParity(ctx, e)
}

func (c *callCounter) GetMany(ctx context.Context, refs []BlockRef) ([][]byte, error) {
	c.batches.Add(1)
	return c.BlockStore.GetMany(ctx, refs)
}
