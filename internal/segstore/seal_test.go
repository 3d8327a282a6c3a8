//go:build unix

package segstore

// Tests of the seal job and of fail-stop, through the fsync seam: the
// order in which flushes reach the disk relative to what the store has
// told its callers, and what a flush that fails does to it. (unix only:
// elsewhere syncDir issues no flush to observe.)

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aecodes/internal/entangle"
	"aecodes/internal/obs"
	"aecodes/internal/store"
)

// dirEvent is how the log names a flush of the store directory; segment
// files go by their base name.
const dirEvent = "dir"

func segName(id int) string { return fmt.Sprintf("%08d%s", id, segExt) }

// syncLog records every flush the store issues, in completion order,
// between marks the test adds itself.
type syncLog struct {
	mu       sync.Mutex
	events   []string
	inFlight int
	overlap  bool // two flushes were in flight at once
}

func (l *syncLog) mark(event string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events, event)
}

// reset forgets what has been logged: the directory sync of an Open that
// created the store.
func (l *syncLog) reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = nil
}

func (l *syncLog) snapshot() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Clone(l.events)
}

// hookFsync swaps the package's fsync seam for the duration of the test.
// before, when non-nil, runs ahead of each flush with the event's name:
// it may block (to hold a seal job in flight) or return an error (which
// the flush then reports instead of reaching the disk).
func hookFsync(t *testing.T, before func(event string) error) *syncLog {
	t.Helper()
	l := &syncLog{}
	real := fsync
	fsync = func(f *os.File) error {
		event := filepath.Base(f.Name())
		if !strings.HasSuffix(event, segExt) {
			event = dirEvent
		}
		l.mu.Lock()
		l.inFlight++
		if l.inFlight > 1 {
			l.overlap = true
		}
		l.mu.Unlock()
		var err error
		if before != nil {
			err = before(event)
		}
		if err == nil {
			err = real(f)
		}
		l.mu.Lock()
		l.inFlight--
		if err == nil {
			l.events = append(l.events, event)
		}
		l.mu.Unlock()
		return err
	}
	t.Cleanup(func() { fsync = real })
	return l
}

// gate holds the first flush of one event until opened. Tests defer
// open, so a failing test does not leave its store's Close waiting.
type gate struct {
	event     string
	once      sync.Once
	reached   chan struct{}
	release   chan struct{}
	releasing sync.Once
}

func newGate(event string) *gate {
	return &gate{event: event, reached: make(chan struct{}), release: make(chan struct{})}
}

func (g *gate) open() { g.releasing.Do(func() { close(g.release) }) }

func (g *gate) before(event string) error {
	if event == g.event {
		g.once.Do(func() {
			close(g.reached)
			<-g.release
		})
	}
	return nil
}

// rec is a 64-byte block; with a 3-byte key a record is 77 bytes, so a
// 256-byte segment holds exactly three.
func rec(i int) (string, []byte) {
	return fmt.Sprintf("k%02d", i), bytes.Repeat([]byte{byte(i)}, 64)
}

// recs is records from..to-1 as one batch.
func recs(from, to int) []store.KV {
	var items []store.KV
	for i := from; i < to; i++ {
		key, data := rec(i)
		items = append(items, store.KV{Key: key, Data: data})
	}
	return items
}

func mustPut(t *testing.T, s *Store, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		key, data := rec(i)
		if err := s.Put(key, data); err != nil {
			t.Fatalf("Put(%s): %v", key, err)
		}
	}
}

// stillBlocked fails the test when done fires although the seal job is
// held: the call it stands for returned ahead of the job.
func stillBlocked(t *testing.T, done <-chan error, what string) {
	t.Helper()
	select {
	case err := <-done:
		t.Fatalf("%s returned (%v) while the seal job was still in flight", what, err)
	case <-time.After(30 * time.Millisecond):
	}
}

// TestBarriersWaitForTheSeal pins the two halves of the seal job for each
// kind of barrier. The append that rotates does not wait for the disk:
// it returns (or, as a barrier itself, reaches its wait) while segment
// 1's fsync is held. The barrier returns only after fsync(1), the
// directory sync and fsync(2), in that order — under Options.Sync that
// is a PutBatch which starts in segment 1 and ends in segment 2.
func TestBarriersWaitForTheSeal(t *testing.T) {
	cases := []struct {
		name    string
		opts    Options
		prefill int // records put before the barrier; the fourth rotates
		barrier func(s *Store) error
	}{
		{"Sync", Options{SegmentSize: 256}, 5, (*Store).Sync},
		{"Close", Options{SegmentSize: 256}, 5, (*Store).Close},
		{"PutBatch under Options.Sync", Options{SegmentSize: 256, Sync: true}, 0,
			func(s *Store) error { return s.PutBatch(recs(0, 5)) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := newGate(segName(1))
			defer g.open()
			log := hookFsync(t, g.before)
			s := mustOpen(t, t.TempDir(), tc.opts)
			log.reset()
			mustPut(t, s, 0, tc.prefill)
			done := make(chan error, 1)
			go func() {
				err := tc.barrier(s)
				log.mark("returned")
				done <- err
			}()
			<-g.reached
			stillBlocked(t, done, tc.name)
			if got := log.snapshot(); len(got) != 0 {
				t.Fatalf("flushes completed while the seal is held: %v", got)
			}
			g.open()
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			want := []string{segName(1), dirEvent, segName(2), "returned"}
			if got := log.snapshot(); !slices.Equal(got, want) {
				t.Fatalf("flush order = %v, want %v", got, want)
			}
		})
	}
}

// TestReadsDoNotWaitForTheDisk holds a seal job's fsync while a writer
// waits for it — a second rotation, a Sync, a PutBatch under
// Options.Sync — and wants every read path to serve a key written
// earlier before the fsync is released: the writer waits holding the
// writers' lock alone, so no read waits on the disk.
func TestReadsDoNotWaitForTheDisk(t *testing.T) {
	cases := []struct {
		name    string
		opts    Options
		held    int                  // the segment whose seal is held
		prefill int                  // records put before the writer starts
		writer  func(s *Store) error // waits for the held seal
	}{
		// Put 3 rotates (segment 1 holds three records) and starts the
		// seal of 1; record 6 rotates again and must wait for it.
		{"second rotation", Options{SegmentSize: 256}, 1, 5,
			func(s *Store) error { return s.PutBatch(recs(5, 7)) }},
		{"Sync", Options{SegmentSize: 256}, 1, 5, (*Store).Sync},
		// The batch rotates twice: the seal of 2 is held and its barrier
		// waits for it.
		{"PutBatch under Options.Sync", Options{SegmentSize: 256, Sync: true}, 2, 3,
			func(s *Store) error { return s.PutBatch(recs(3, 7)) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := mustOpen(t, t.TempDir(), tc.opts)
			g := newGate(segName(tc.held))
			defer g.open()
			hookFsync(t, g.before)
			t.Cleanup(func() { s.Close() }) // ahead of the hook's removal: Close waits for the last seal
			mustPut(t, s, 0, tc.prefill)
			done := make(chan error, 1)
			go func() { done <- tc.writer(s) }()
			<-g.reached
			stillBlocked(t, done, tc.name)

			key, data := rec(0)
			reads := []struct {
				name string
				read func() bool
			}{
				{"Get", func() bool {
					got, ok := s.Get(key)
					return ok && bytes.Equal(got, data)
				}},
				{"ReadBatch", func() bool {
					var ok bool
					s.ReadBatch([]string{key}, func(blocks [][]byte) error {
						ok = bytes.Equal(blocks[0], data)
						return nil
					})
					return ok
				}},
				{"ReadInto", func() bool { return bytes.Equal(ReadSized(s, []string{key})[0], data) }},
				{"StatBatch", func() bool { return s.StatBatch([]string{key})[0] == len(data) }},
				{"ScrubStep", func() bool { return s.ScrubStep("", 1<<20).Scanned > 0 }},
			}
			for _, r := range reads {
				served := make(chan bool, 1)
				start := time.Now()
				go func() { served <- r.read() }()
				select {
				case ok := <-served:
					if !ok {
						t.Errorf("%s of %s served the wrong answer while the writer waited", r.name, key)
					}
				case <-time.After(2 * time.Second):
					t.Fatalf("%s still waiting after %v: the read waits for the held fsync", r.name, time.Since(start))
				}
			}
			select {
			case err := <-done:
				t.Fatalf("the writer returned (%v) while the seal was held", err)
			default:
			}
			g.open()
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestEveryRotationSealedInOrder walks a store through many rotations
// with a barrier now and then and checks the log as a whole: after each
// Sync, every sealed segment N has fsync(N) followed by a directory sync,
// the Sync's last flush is the active segment, and no two flushes were
// ever in flight together — which, with barriers issuing theirs only
// after the job, is what "at most one seal job" looks like from outside.
func TestEveryRotationSealedInOrder(t *testing.T) {
	log := hookFsync(t, nil)
	s := mustOpen(t, t.TempDir(), Options{SegmentSize: 256})
	for i := 0; i < 60; i++ {
		mustPut(t, s, i, i+1)
		if i%7 != 6 {
			continue
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		events := log.snapshot()
		active := s.Stats().Segments
		if last := events[len(events)-1]; last != segName(active) {
			t.Fatalf("after put %d: Sync's last flush was %s, want the active segment %s", i, last, segName(active))
		}
		for n := 1; n < active; n++ {
			// The last flush of a sealed segment is its seal: earlier ones
			// are barriers from when it was the active segment.
			at := len(events) - 1
			for at >= 0 && events[at] != segName(n) {
				at--
			}
			if at < 0 {
				t.Fatalf("after put %d: Sync returned with sealed segment %d never flushed: %v", i, n, events)
			}
			if at+1 >= len(events) || events[at+1] != dirEvent {
				t.Fatalf("after put %d: fsync(%d) not followed by the directory sync: %v", i, n, events)
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if log.overlap {
		t.Fatal("two flushes were in flight at once: a second seal job, or a barrier that did not wait")
	}
}

// TestCompactUnlinksNothingAheadOfTheSeal holds the seal job of the last
// rotation while Compact runs: no file may disappear before the job, and
// then compaction's own flush of the copies, have completed.
func TestCompactUnlinksNothingAheadOfTheSeal(t *testing.T) {
	dir := t.TempDir()
	g := newGate(segName(4))
	defer g.open()
	var (
		mu      sync.Mutex
		atFlush [][]string // segment files on disk as each segment flush began
	)
	log := hookFsync(t, func(event string) error {
		if event != dirEvent {
			names, err := filepath.Glob(filepath.Join(dir, "*"+segExt))
			if err != nil {
				return err
			}
			mu.Lock()
			atFlush = append(atFlush, names)
			mu.Unlock()
		}
		return g.before(event)
	})
	s := mustOpen(t, dir, Options{SegmentSize: 256})
	mustPut(t, s, 0, 9) // segments 1–3, three records each
	mustPut(t, s, 0, 6) // overwritten into 4 and 5: segments 1 and 2 are dead weight
	<-g.reached         // the seal of segment 4, held; 5 is active and full
	mu.Lock()
	before := len(atFlush)
	mu.Unlock()
	done := make(chan error, 1)
	go func() { done <- s.Compact() }()
	stillBlocked(t, done, "Compact")
	g.open()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, names := range atFlush[before:] {
		for id := 1; id <= 5; id++ {
			if !slices.Contains(names, filepath.Join(dir, segName(id))) {
				t.Fatalf("segment %d was unlinked before the flushes ahead of it had completed (on disk: %v)", id, names)
			}
		}
	}
	for id := 1; id <= 4; id++ {
		if _, err := os.Stat(filepath.Join(dir, segName(id))); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("Compact left sealed segment %d behind (stat: %v)", id, err)
		}
	}
	if log.overlap {
		t.Fatal("two flushes were in flight at once")
	}
	for i := 0; i < 9; i++ {
		key, data := rec(i)
		if got, ok := s.Get(key); !ok || !bytes.Equal(got, data) {
			t.Fatalf("Get(%s) after Compact = %v, %v", key, got, ok)
		}
	}
}

// TestFailedFsyncFailStops injects one failing flush at each place the
// store issues one. Whatever its origin, the first failure must stick:
// every later write and barrier returns it (the flushes after it would
// succeed — a store that retried would ack over lost pages), Del leaves
// its key, reads keep serving, Close returns it.
func TestFailedFsyncFailStops(t *testing.T) {
	errDisk := errors.New("injected: disk gone")
	cases := []struct {
		name    string
		opts    Options
		failOn  string               // the first flush of this event fails
		trigger func(s *Store) error // issues that flush; must report the failure
		present int                  // records 0..present-1 stay readable
	}{
		{"seal job file sync", Options{SegmentSize: 256}, segName(1),
			func(s *Store) error { return s.Sync() }, 4},
		{"seal job directory sync", Options{SegmentSize: 256}, dirEvent,
			func(s *Store) error { return s.Sync() }, 4},
		{"next rotation meets the failed job", Options{SegmentSize: 256}, segName(1),
			func(s *Store) error { return s.PutBatch(recs(4, 9)) }, 4},
		{"explicit Sync", Options{SegmentSize: 256}, segName(2),
			func(s *Store) error { return s.Sync() }, 4},
		{"compaction's own sync", Options{SegmentSize: 256}, segName(3), // its copies rotate 2 → 3
			func(s *Store) error { return s.Compact() }, 4},
		{"Options.Sync batch", Options{SegmentSize: 1 << 20, Sync: true}, segName(1),
			func(s *Store) error { return s.PutBatch(recs(0, 5)) }, 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var (
				armed atomic.Bool // set once Open's own directory sync is past
				once  sync.Once
			)
			hookFsync(t, func(event string) (err error) {
				if event == tc.failOn && armed.Load() {
					once.Do(func() { err = errDisk })
				}
				return err
			})
			dir := t.TempDir()
			s := mustOpen(t, dir, tc.opts)
			armed.Store(true)
			if !tc.opts.Sync {
				// The last of these rotates: segment 1 is being sealed, 2 is
				// active. (No Put may follow a seal that is about to fail: it
				// would be refused as soon as the job has run.)
				mustPut(t, s, 0, 4)
			}
			if err := tc.trigger(s); !errors.Is(err, errDisk) {
				t.Fatalf("the call that met the failed flush returned %v, want the injected error", err)
			}
			segsBefore, _ := filepath.Glob(filepath.Join(dir, "*"+segExt))
			if !slices.Contains(segsBefore, filepath.Join(dir, segName(1))) {
				t.Errorf("segment 1 was unlinked although a flush ahead of it failed: %v", segsBefore)
			}

			key, data := rec(50)
			if err := s.Put(key, data); !errors.Is(err, errDisk) {
				t.Errorf("Put after the failure = %v, want the injected error", err)
			}
			if err := s.PutBatch(recs(51, 53)); !errors.Is(err, errDisk) {
				t.Errorf("PutBatch after the failure = %v, want the injected error", err)
			}
			if err := s.Sync(); !errors.Is(err, errDisk) {
				t.Errorf("Sync after the failure = %v, want the injected error", err)
			}
			if err := s.Compact(); !errors.Is(err, errDisk) {
				t.Errorf("Compact after the failure = %v, want the injected error", err)
			}
			if segsAfter, _ := filepath.Glob(filepath.Join(dir, "*"+segExt)); !slices.Equal(segsBefore, segsAfter) {
				t.Errorf("a fail-stopped store changed its files: %v → %v", segsBefore, segsAfter)
			}
			first, _ := rec(0)
			s.Del(first)
			var keys []string
			for i := 0; i < tc.present; i++ {
				key, data := rec(i)
				keys = append(keys, key)
				if got, ok := s.Get(key); !ok || !bytes.Equal(got, data) {
					t.Errorf("Get(%s) on the fail-stopped store = %v, %v", key, got, ok)
				}
			}
			for i, b := range ReadSized(s, keys) {
				if b == nil {
					t.Errorf("ReadInto misses %s on the fail-stopped store", keys[i])
				}
			}
			for i, n := range s.StatBatch(keys) {
				if n != 64 {
					t.Errorf("StatBatch(%s) = %d on the fail-stopped store, want 64", keys[i], n)
				}
			}
			if s.Has(key) {
				t.Errorf("a refused Put left %s in the index", key)
			}
			if err := s.Close(); !errors.Is(err, errDisk) {
				t.Errorf("Close of the fail-stopped store = %v, want the injected error", err)
			}
		})
	}
}

// TestConcurrentUseAcrossRotations runs writers, readers, a Sync ticker
// and the scrubber over a store that rotates every few records (run it
// under -race). Every acknowledged write must read back after Close and
// reopen, and Close must leave nothing of the store running: no flush in
// flight when it returns, none issued after.
func TestConcurrentUseAcrossRotations(t *testing.T) {
	log := hookFsync(t, nil)
	dir := t.TempDir()
	opts := Options{SegmentSize: 4 << 10}
	s := mustOpen(t, dir, opts)

	const (
		writers = 4
		rounds  = 150
	)
	content := func(key string, version int) []byte {
		return bytes.Repeat([]byte(fmt.Sprintf("%s@%d|", key, version)), 20)
	}
	acked := make([]map[string][]byte, writers) // per writer: key → bytes, nil once deleted
	stop := make(chan struct{})
	var writing, background sync.WaitGroup
	for w := 0; w < writers; w++ {
		acked[w] = make(map[string][]byte)
		writing.Add(1)
		go func(w int) {
			defer writing.Done()
			for i := 0; i < rounds; i++ {
				var items []store.KV
				for j := 0; j <= i%3; j++ {
					key := fmt.Sprintf("w%d-%03d", w, (i*3+j)%120) // revisits keys: overwrites
					items = append(items, store.KV{Key: key, Data: content(key, i)})
				}
				if err := s.PutBatch(items); err != nil {
					t.Errorf("PutBatch: %v", err)
					return
				}
				for _, it := range items {
					acked[w][it.Key] = it.Data
				}
				if i%5 == 4 {
					key := items[0].Key
					s.Del(key)
					acked[w][key] = nil
				}
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		background.Add(1)
		go func(r int) {
			defer background.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				keys := []string{
					fmt.Sprintf("w%d-%03d", i%writers, (i*7+r)%120),
					fmt.Sprintf("w%d-%03d", (i+1)%writers, (i*11+r)%120),
				}
				for k, b := range ReadSized(s, keys) {
					if b != nil && !bytes.HasPrefix(b, []byte(keys[k]+"@")) {
						t.Errorf("ReadInto(%s) served another key's bytes: %.20q", keys[k], b)
					}
				}
				s.StatBatch(keys)
			}
		}(r)
	}
	background.Add(2)
	go func() {
		defer background.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if err := s.Sync(); err != nil {
					t.Errorf("Sync: %v", err)
					return
				}
			}
		}
	}()
	go func() {
		defer background.Done()
		cursor := ""
		for {
			select {
			case <-stop:
				return
			default:
			}
			res := s.ScrubStep(cursor, 8<<10)
			if len(res.Corrupt) != 0 {
				t.Errorf("scrub found corrupt records in a healthy store: %v", res.Corrupt)
			}
			cursor = res.Next
		}
	}()
	writing.Wait()
	close(stop)
	background.Wait()
	if segs := s.Stats().Segments; segs < 10 {
		t.Fatalf("only %d segments: the run did not exercise rotation", segs)
	}

	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	log.mu.Lock()
	inFlight, flushes, overlap := log.inFlight, len(log.events), log.overlap
	log.mu.Unlock()
	if inFlight != 0 {
		t.Fatalf("Close returned with %d flushes in flight", inFlight)
	}
	if overlap {
		t.Fatal("two flushes were in flight at once")
	}

	r := mustOpen(t, dir, opts)
	if st := r.Stats(); st.TruncatedBytes != 0 {
		t.Fatalf("clean Close left a torn tail of %d bytes", st.TruncatedBytes)
	}
	for w := range acked {
		for key, want := range acked[w] {
			got, ok := r.Get(key)
			if want == nil {
				if ok {
					t.Errorf("deleted key %s came back after reopen", key)
				}
				continue
			}
			if !ok || !bytes.Equal(got, want) {
				t.Errorf("acknowledged key %s after reopen: ok=%v, %d bytes, want %d", key, ok, len(got), len(want))
			}
		}
	}
	if got := len(log.snapshot()); got != flushes {
		t.Fatalf("%d flushes were issued after Close had returned", got-flushes)
	}
}

// TestSealObservability pins what the new keys count: sync.latency takes
// one sample per segment-file fsync wherever it runs (the seal job's, the
// barrier's — not the wait for the job, not the directory), seal.wait one
// per seal job, append.lockwait one per write call.
func TestSealObservability(t *testing.T) {
	g := newGate(segName(1))
	defer g.open()
	log := hookFsync(t, g.before)
	s := mustOpen(t, t.TempDir(), Options{SegmentSize: 256})
	before := obs.Default.Snapshot()
	mustPut(t, s, 0, 5)
	<-g.reached
	done := make(chan error, 1)
	go func() { done <- s.Sync() }()
	stillBlocked(t, done, "Sync")
	g.open()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil { // no job in flight: no wait to record
		t.Fatal(err)
	}
	after := obs.Default.Snapshot()
	count := func(key string) int { return int(after.Hists[key].Count - before.Hists[key].Count) }

	fileFlushes := 0
	for _, e := range log.snapshot() {
		if e != dirEvent {
			fileFlushes++
		}
	}
	if fileFlushes != 3 {
		t.Fatalf("%d segment flushes, want 3 (seal of 1, two Syncs of 2): %v", fileFlushes, log.snapshot())
	}
	if got := count("segstore/sync.latency"); got != fileFlushes {
		t.Errorf("segstore/sync.latency took %d samples for %d segment fsyncs", got, fileFlushes)
	}
	if got := count("segstore/seal.wait"); got != 1 {
		t.Errorf("segstore/seal.wait took %d samples, want 1 (the Sync that met the job)", got)
	}
	if got := count("segstore/append.lockwait"); got != 5 {
		t.Errorf("segstore/append.lockwait took %d samples, want one per Put (5)", got)
	}
}

// TestFooterOutlivesRecordBytes is the power cut that reorders pages: a
// sealed segment's footer reached the disk, the bytes of records it
// lists did not. Open takes the index from the footer, so StatBatch
// lists the records; the first read finds them zeroed and drops them,
// Lattice.Missing then reports them, and Repair rebuilds them
// byte-exact.
func TestFooterOutlivesRecordBytes(t *testing.T) {
	ctx := context.Background()
	f := newRotFixture(t, 30)
	lost := f.refs[:2] // data block 1 and its first parity, in segment 1
	keys := []string{refKey(lost[0]), refKey(lost[1])}
	dir := f.seg.Dir()
	f.seg.amu.Lock()
	active := f.seg.active
	f.seg.mu.RLock()
	locs := []recordLoc{f.seg.index[keys[0]], f.seg.index[keys[1]]}
	f.seg.mu.RUnlock()
	f.seg.amu.Unlock()
	if err := f.seg.Close(); err != nil {
		t.Fatal(err)
	}
	for _, loc := range locs {
		if loc.seg == active {
			t.Fatalf("record at %+v is in the active segment, want a sealed one", loc)
		}
		seg, err := os.OpenFile(filepath.Join(dir, segName(int(loc.seg))), os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := seg.WriteAt(make([]byte, loc.recLen()), loc.off); err != nil {
			t.Fatal(err)
		}
		seg.Close()
	}

	s := mustOpen(t, dir, Options{SegmentSize: 4 << 10})
	lat, err := OpenLattice(s)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.StatBatch(keys); got[0] != 64 || got[1] != 64 {
		t.Fatalf("StatBatch = %v before a read, want both listed at 64 bytes: the footer lists them", got)
	}
	if m, err := lat.Missing(ctx); err != nil || !m.Empty() {
		t.Fatalf("Missing = %+v, %v before a read, want nothing", m, err)
	}
	blocks, err := lat.GetMany(ctx, lost)
	if err != nil {
		t.Fatal(err)
	}
	if blocks[0] != nil || blocks[1] != nil || s.Dropped() != 2 {
		t.Fatalf("the first read served %v and dropped %d keys, want nothing served and both dropped", blocks, s.Dropped())
	}
	m, err := lat.Missing(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Data) != 1 || m.Data[0] != lost[0].Index || len(m.Parities) != 1 || m.Parities[0] != lost[1].Edge {
		t.Fatalf("Missing = %+v, want data %d and parity %v", m, lost[0].Index, lost[1].Edge)
	}
	if _, err := f.rep.Repair(ctx, lat, entangle.Options{}); err != nil {
		t.Fatal(err)
	}
	for i, b := range f.read(t, "after Repair", lat)[:2] {
		if b == nil {
			t.Fatalf("%v not rebuilt", lost[i])
		}
	}
}
