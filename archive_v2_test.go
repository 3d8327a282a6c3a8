package aecodes_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"math/rand"
	"strings"
	"testing"

	"aecodes"
)

// writeV1Archive hand-frames payload with the legacy 4-byte header (no
// checksum, no version bit) and entangles the blocks through code —
// exactly what the pre-v2 ArchiveWriter produced on disk.
func writeV1Archive(t *testing.T, code *aecodes.Code, st *aecodes.MemoryStore, payload []byte) int {
	t.Helper()
	return writeFramedArchive(t, code, st, payload, 4, func(raw []byte, n int, last bool) {
		hdr := uint32(n)
		if last {
			hdr |= 1 << 31
		}
		binary.BigEndian.PutUint32(raw[:4], hdr)
	})
}

// writeFramedArchive cuts payload into blocks of headerLen header bytes
// and the rest payload, has frame write each block's header (n payload
// bytes, last on the final block) and entangles the blocks through code
// into st. It returns the number of blocks.
func writeFramedArchive(t *testing.T, code *aecodes.Code, st *aecodes.MemoryStore, payload []byte, headerLen int, frame func(raw []byte, n int, last bool)) int {
	t.Helper()
	capacity := code.BlockSize() - headerLen
	blocks := 0
	rest := payload
	for {
		n := len(rest)
		last := n <= capacity
		if !last {
			n = capacity
		}
		raw := make([]byte, code.BlockSize())
		copy(raw[headerLen:], rest[:n])
		frame(raw, n, last)
		rest = rest[n:]
		ent, err := code.Entangle(raw)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.PutData(context.Background(), ent.Index, raw); err != nil {
			t.Fatal(err)
		}
		for _, p := range ent.Parities {
			if err := st.PutParity(context.Background(), p.Edge, p.Data); err != nil {
				t.Fatal(err)
			}
		}
		blocks++
		if last {
			return blocks
		}
	}
}

// TestOpenArchiveReadsV1 pins backward compatibility: archives framed by
// the v1 writer stream back intact through the v2-aware reader, including
// degraded reads of missing v1 blocks.
func TestOpenArchiveReadsV1(t *testing.T) {
	code, err := aecodes.New(aecodes.Params{Alpha: 3, S: 2, P: 5}, 64)
	if err != nil {
		t.Fatal(err)
	}
	st := aecodes.NewMemoryStore(64)
	payload := make([]byte, 777)
	rand.New(rand.NewSource(4)).Read(payload)
	blocks := writeV1Archive(t, code, st, payload)

	got, err := io.ReadAll(aecodes.OpenArchive(code, st))
	if err != nil {
		t.Fatalf("reading v1 archive: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("v1 archive payload mismatch")
	}

	// Degraded v1 read: lose an interior block; the reader regenerates it
	// and still parses the v1 framing of the repaired content.
	st.LoseData(blocks / 2)
	got, err = io.ReadAll(aecodes.OpenArchive(code, st))
	if err != nil {
		t.Fatalf("degraded v1 read: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("degraded v1 payload mismatch")
	}
}

// corruptStoredBlock flips one payload byte of stored data block i.
func corruptStoredBlock(t *testing.T, st *aecodes.MemoryStore, i int) {
	t.Helper()
	raw, err := st.GetData(context.Background(), i)
	if err != nil {
		t.Fatal(err)
	}
	bad := make([]byte, len(raw))
	copy(bad, raw)
	bad[12] ^= 0x40 // inside the payload for any realistic length
	if err := st.CorruptData(i, bad); err != nil {
		t.Fatal(err)
	}
}

// TestArchiveDetectsAndRepairsCorruption pins the v2 promise: a silently
// flipped bit in a stored block is caught by the CRC at stream-read time
// and healed on the fly with a degraded read, so the caller sees the
// original bytes, never the corruption.
func TestArchiveDetectsAndRepairsCorruption(t *testing.T) {
	code, err := aecodes.New(aecodes.Params{Alpha: 3, S: 2, P: 5}, 64)
	if err != nil {
		t.Fatal(err)
	}
	st := aecodes.NewMemoryStore(64)
	w, err := aecodes.NewArchiveWriter(code, st, aecodes.ArchiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 600)
	rand.New(rand.NewSource(9)).Read(payload)
	if _, err := w.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	corruptStoredBlock(t, st, 3)
	got, err := io.ReadAll(aecodes.OpenArchive(code, st))
	if err != nil {
		t.Fatalf("reading archive with corrupt block: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("corruption leaked into the stream")
	}
}

// flipHeaderBit flips one bit in the first header byte of stored data
// block i — the flag corruption the CRC and version lock must catch.
func flipHeaderBit(t *testing.T, st *aecodes.MemoryStore, i int, mask byte) {
	t.Helper()
	raw, err := st.GetData(context.Background(), i)
	if err != nil {
		t.Fatal(err)
	}
	bad := make([]byte, len(raw))
	copy(bad, raw)
	bad[0] ^= mask
	if err := st.CorruptData(i, bad); err != nil {
		t.Fatal(err)
	}
}

// TestArchiveDetectsHeaderFlagCorruption pins that header corruption is
// caught, not silently obeyed: flipping an interior block's final-block
// flag must not truncate the stream (the CRC covers the header word),
// and clearing its version bit must not smuggle it through the
// unchecksummed v1 path (the reader locks the archive's version). Both
// heal via degraded repair.
func TestArchiveDetectsHeaderFlagCorruption(t *testing.T) {
	for _, tc := range []struct {
		name string
		mask byte
	}{
		{"last-flag", 0x80},   // bit 31 of the header word
		{"version-bit", 0x40}, // bit 30 of the header word
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, err := aecodes.New(aecodes.Params{Alpha: 3, S: 2, P: 5}, 64)
			if err != nil {
				t.Fatal(err)
			}
			st := aecodes.NewMemoryStore(64)
			w, err := aecodes.NewArchiveWriter(code, st, aecodes.ArchiveOptions{})
			if err != nil {
				t.Fatal(err)
			}
			payload := make([]byte, 600)
			rand.New(rand.NewSource(6)).Read(payload)
			if _, err := w.Write(payload); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			flipHeaderBit(t, st, 4, tc.mask)
			got, err := io.ReadAll(aecodes.OpenArchive(code, st))
			if err != nil {
				t.Fatalf("reading archive with flipped %s: %v", tc.name, err)
			}
			if !bytes.Equal(got, payload) {
				t.Fatalf("flipped %s truncated or corrupted the stream (got %d of %d bytes)",
					tc.name, len(got), len(payload))
			}
		})
	}
}

// TestArchiveSingleBlockVersionFlipHeals pins the hardest header-flip
// case: a single-block archive's only block is also its first, so the
// version lock has nothing to compare against — clearing its v2 bit
// makes it parse as a checksum-free v1 final block. The reader must
// cross-check an unlocked v1 first block against its strands and serve
// the strand-derived (correct) content, not the shifted bytes.
func TestArchiveSingleBlockVersionFlipHeals(t *testing.T) {
	code, err := aecodes.New(aecodes.Params{Alpha: 3, S: 2, P: 5}, 64)
	if err != nil {
		t.Fatal(err)
	}
	st := aecodes.NewMemoryStore(64)
	w, err := aecodes.NewArchiveWriter(code, st, aecodes.ArchiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("one small block, fully checksummed")
	if _, err := w.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	flipHeaderBit(t, st, 1, 0x40) // clear the v2 bit on the only block

	got, err := io.ReadAll(aecodes.OpenArchive(code, st))
	if err != nil {
		t.Fatalf("reading single-block archive with flipped version bit: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("version flip served wrong bytes: %q", got)
	}
}

// TestArchiveCorruptionBeyondRepairIsAnError pins the failure mode: when
// a corrupt block's strands are gone too, the reader reports a detected
// corruption error — it never silently serves bad bytes or fakes an EOF.
func TestArchiveCorruptionBeyondRepairIsAnError(t *testing.T) {
	code, err := aecodes.New(aecodes.Params{Alpha: 3, S: 2, P: 5}, 64)
	if err != nil {
		t.Fatal(err)
	}
	st := aecodes.NewMemoryStore(64)
	w, err := aecodes.NewArchiveWriter(code, st, aecodes.ArchiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 600)
	rand.New(rand.NewSource(2)).Read(payload)
	if _, err := w.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	const victim = 5
	corruptStoredBlock(t, st, victim)
	tuples, err := code.Lattice().Tuples(victim)
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range tuples {
		st.LoseParity(tp.In)
		st.LoseParity(tp.Out)
	}
	_, err = io.ReadAll(aecodes.OpenArchive(code, st))
	if err == nil {
		t.Fatal("unrepairable corruption read back without error")
	}
	if !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("error %q does not name the corruption", err)
	}
}
