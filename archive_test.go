package aecodes_test

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"

	"aecodes"
)

const archiveParamsBlock = 64 // capacity 56 after the 8-byte v2 frame header

func archiveParams() aecodes.Params { return aecodes.Params{Alpha: 3, S: 2, P: 5} }

// writeArchive streams payload into a fresh store and returns it with the
// writer's accounting.
func writeArchive(t *testing.T, blockSize int, payload []byte, opts aecodes.ArchiveOptions) (*aecodes.MemoryStore, *aecodes.ArchiveWriter) {
	t.Helper()
	code, err := aecodes.New(archiveParams(), blockSize)
	if err != nil {
		t.Fatal(err)
	}
	store := aecodes.NewMemoryStore(blockSize)
	w, err := aecodes.NewArchiveWriter(code, store, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Write in awkward chunk sizes to exercise partial-block buffering.
	for off := 0; off < len(payload); {
		n := 7
		if off+n > len(payload) {
			n = len(payload) - off
		}
		wrote, err := w.Write(payload[off : off+n])
		if err != nil {
			t.Fatalf("Write at offset %d: %v", off, err)
		}
		off += wrote
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return store, w
}

// readArchive opens the archive with a fresh codec and reads every byte.
func readArchive(t *testing.T, blockSize int, store aecodes.BlockStore, opts aecodes.ArchiveOptions) []byte {
	t.Helper()
	code, err := aecodes.New(archiveParams(), blockSize)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(aecodes.OpenArchiveOptions(code, store, opts))
	if err != nil {
		t.Fatalf("reading archive: %v", err)
	}
	return got
}

// TestArchiveRoundTripSizes covers the framing edge cases: empty, one
// byte, one byte either side of the per-block capacity and of the block
// size, exact multiples, and a larger payload.
func TestArchiveRoundTripSizes(t *testing.T) {
	capacity := archiveParamsBlock - 8
	sizes := []int{
		0, 1,
		capacity - 1, capacity, capacity + 1,
		archiveParamsBlock - 1, archiveParamsBlock, archiveParamsBlock + 1,
		3*capacity - 1, 3 * capacity, 3*capacity + 1,
		10*archiveParamsBlock + 13,
	}
	rng := rand.New(rand.NewSource(42))
	for _, size := range sizes {
		payload := make([]byte, size)
		rng.Read(payload)
		store, w := writeArchive(t, archiveParamsBlock, payload, aecodes.ArchiveOptions{})
		if w.Bytes() != int64(size) {
			t.Errorf("size %d: writer consumed %d bytes", size, w.Bytes())
		}
		// Exact multiples end on a full final block; empty gets one marker.
		wantBlocks := (size + capacity - 1) / capacity
		if wantBlocks == 0 {
			wantBlocks = 1
		}
		if w.Blocks() != wantBlocks {
			t.Errorf("size %d: writer emitted %d blocks, want %d", size, w.Blocks(), wantBlocks)
		}
		got := readArchive(t, archiveParamsBlock, store, aecodes.ArchiveOptions{Window: 3})
		if !bytes.Equal(got, payload) {
			t.Errorf("size %d: round trip mismatch (got %d bytes)", size, len(got))
		}
	}
}

// TestArchiveRoundTripMultiMB streams a multi-megabyte payload through a
// small in-flight window, so the whole file can never be resident, and
// reads it back byte-exactly.
func TestArchiveRoundTripMultiMB(t *testing.T) {
	const blockSize = 4096
	payload := make([]byte, 3<<20+123)
	rng := rand.New(rand.NewSource(7))
	rng.Read(payload)
	store, w := writeArchive(t, blockSize, payload, aecodes.ArchiveOptions{Workers: 4, Depth: 2})
	if w.Bytes() != int64(len(payload)) {
		t.Fatalf("writer consumed %d bytes, want %d", w.Bytes(), len(payload))
	}
	got := readArchive(t, blockSize, store, aecodes.ArchiveOptions{Window: 32})
	if !bytes.Equal(got, payload) {
		t.Fatal("multi-MB round trip mismatch")
	}
}

// TestArchivePropertyDamageAndRepair is the streaming fuzz/property test:
// random payload sizes, random block damage, whole-system repair, then a
// byte-exact read.
func TestArchivePropertyDamageAndRepair(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 12; trial++ {
		size := rng.Intn(40_000)
		payload := make([]byte, size)
		rng.Read(payload)
		store, w := writeArchive(t, archiveParamsBlock, payload, aecodes.ArchiveOptions{})

		// Kill a random ~15% of data blocks and ~10% of their parities.
		code, err := aecodes.New(archiveParams(), archiveParamsBlock)
		if err != nil {
			t.Fatal(err)
		}
		lat := code.Lattice()
		for i := 1; i <= w.Blocks(); i++ {
			if rng.Float64() < 0.15 {
				store.LoseData(i)
			}
			tuples, err := lat.Tuples(i)
			if err != nil {
				t.Fatal(err)
			}
			for _, tup := range tuples {
				if rng.Float64() < 0.10 {
					store.LoseParity(tup.Out)
				}
			}
		}
		stats, err := code.Repair(bg, store, aecodes.RepairOptions{})
		if err != nil {
			t.Fatalf("trial %d: Repair: %v", trial, err)
		}
		if stats.DataLoss() > 0 {
			// Random damage occasionally forms a closed pattern; the read
			// below must then fail loudly rather than return wrong bytes.
			reader := aecodes.OpenArchive(code, store)
			if _, err := io.ReadAll(reader); err == nil {
				t.Fatalf("trial %d: %d data blocks lost but read succeeded silently", trial, stats.DataLoss())
			}
			continue
		}
		got := readArchive(t, archiveParamsBlock, store, aecodes.ArchiveOptions{Window: 5})
		if !bytes.Equal(got, payload) {
			t.Fatalf("trial %d (size %d): repaired round trip mismatch", trial, size)
		}
	}
}

// TestArchiveDegradedRead loses data blocks without running Repair: the
// reader regenerates them on the fly from surviving parities.
func TestArchiveDegradedRead(t *testing.T) {
	payload := make([]byte, 5000)
	rand.New(rand.NewSource(5)).Read(payload)
	store, w := writeArchive(t, archiveParamsBlock, payload, aecodes.ArchiveOptions{})
	for _, i := range []int{1, 2, 9, w.Blocks()} {
		if i <= w.Blocks() {
			store.LoseData(i)
		}
	}
	got := readArchive(t, archiveParamsBlock, store, aecodes.ArchiveOptions{Window: 4})
	if !bytes.Equal(got, payload) {
		t.Fatal("degraded read mismatch")
	}
}

// TestArchiveUnrecoverableBlockIsError destroys a block together with
// every adjacent parity: the reader must fail with ErrUnrepairable, never
// misreport EOF or return wrong bytes.
func TestArchiveUnrecoverableBlockIsError(t *testing.T) {
	payload := make([]byte, 4000)
	rand.New(rand.NewSource(6)).Read(payload)
	store, _ := writeArchive(t, archiveParamsBlock, payload, aecodes.ArchiveOptions{})

	code, err := aecodes.New(archiveParams(), archiveParamsBlock)
	if err != nil {
		t.Fatal(err)
	}
	const victim = 5
	store.LoseData(victim)
	tuples, err := code.Lattice().Tuples(victim)
	if err != nil {
		t.Fatal(err)
	}
	for _, tup := range tuples {
		store.LoseParity(tup.In)
		store.LoseParity(tup.Out)
	}
	n, err := io.ReadAll(aecodes.OpenArchive(code, store))
	if err == nil {
		t.Fatalf("read of destroyed archive succeeded (%d bytes)", len(n))
	}
	if !errors.Is(err, aecodes.ErrUnrepairable) {
		t.Errorf("error = %v, want wrapped ErrUnrepairable", err)
	}
}

// TestArchiveEmpty distinguishes an empty archive (one marker block) from
// a destroyed one.
func TestArchiveEmpty(t *testing.T) {
	store, w := writeArchive(t, archiveParamsBlock, nil, aecodes.ArchiveOptions{})
	if w.Blocks() != 1 {
		t.Errorf("empty archive emitted %d blocks, want 1 marker", w.Blocks())
	}
	if got := readArchive(t, archiveParamsBlock, store, aecodes.ArchiveOptions{}); len(got) != 0 {
		t.Errorf("empty archive read %d bytes", len(got))
	}
}

func TestArchiveWriterValidation(t *testing.T) {
	code, err := aecodes.New(archiveParams(), archiveParamsBlock)
	if err != nil {
		t.Fatal(err)
	}
	store := aecodes.NewMemoryStore(archiveParamsBlock)
	if _, err := aecodes.NewArchiveWriter(nil, store, aecodes.ArchiveOptions{}); err == nil {
		t.Error("nil code accepted")
	}
	if _, err := aecodes.NewArchiveWriter(code, nil, aecodes.ArchiveOptions{}); err == nil {
		t.Error("nil store accepted")
	}
	small, err := aecodes.New(archiveParams(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := aecodes.NewArchiveWriter(small, aecodes.NewMemoryStore(4), aecodes.ArchiveOptions{}); err == nil {
		t.Error("block size 4 accepted (no payload room)")
	}
	// A used codec is rejected: the archive must start at position 1.
	if _, err := code.Entangle(make([]byte, archiveParamsBlock)); err != nil {
		t.Fatal(err)
	}
	if _, err := aecodes.NewArchiveWriter(code, store, aecodes.ArchiveOptions{}); err == nil {
		t.Error("used codec accepted")
	}
}

func TestArchiveWriterClosedSemantics(t *testing.T) {
	code, err := aecodes.New(archiveParams(), archiveParamsBlock)
	if err != nil {
		t.Fatal(err)
	}
	store := aecodes.NewMemoryStore(archiveParamsBlock)
	w, err := aecodes.NewArchiveWriter(code, store, aecodes.ArchiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Errorf("second Close = %v, want nil (idempotent)", err)
	}
	if _, err := w.Write([]byte("x")); err == nil {
		t.Error("Write after Close succeeded")
	}
}
