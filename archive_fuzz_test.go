package aecodes

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// FuzzParseArchiveBlock feeds arbitrary raw blocks to the frame parser:
// whatever a damaged store serves, parsing must never panic, never
// return a payload outside the declared bounds, and must accept every
// well-formed frame of either version.
func FuzzParseArchiveBlock(f *testing.F) {
	// A valid v2 block.
	v2 := make([]byte, 64)
	payload := []byte("hello, entangled world")
	binary.BigEndian.PutUint32(v2[0:4], uint32(len(payload))|archiveLastFlag|archiveV2Flag)
	binary.BigEndian.PutUint32(v2[4:8], archiveCRC(v2[0:4], payload))
	copy(v2[8:], payload)
	f.Add(v2)
	// A valid v1 block.
	v1 := make([]byte, 64)
	binary.BigEndian.PutUint32(v1[0:4], uint32(len(payload))|archiveLastFlag)
	copy(v1[4:], payload)
	f.Add(v1)
	// Hostile seeds: flipped version bit, oversized length, short block.
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Add(make([]byte, 8))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, raw []byte) {
		payload, last, version, err := parseArchiveBlock(raw, len(raw))
		if err != nil {
			return // malformed frames must just error
		}
		if len(payload) > len(raw) {
			t.Fatalf("payload of %d bytes from a %d-byte block", len(payload), len(raw))
		}
		switch version {
		case 2:
			if archiveCRC(raw[:4], payload) != binary.BigEndian.Uint32(raw[4:8]) {
				t.Fatal("accepted a v2 block that fails its own checksum")
			}
			if !last && len(payload) != len(raw)-archiveHeaderLen {
				t.Fatal("accepted a short non-final v2 block")
			}
		case 1:
			if !last && len(payload) != len(raw)-archiveHeaderLenV1 {
				t.Fatal("accepted a short non-final v1 block")
			}
		default:
			t.Fatalf("parser reported version %d", version)
		}
	})
}

// FuzzArchiveRead writes an archive, damages it and streams it back. The
// inputs pick the payload length, the block size, the reader's window,
// the sizes of the Read calls and — through one seed, whose low bits set
// how much — which data blocks go missing, which are corrupted at rest
// and which parities are lost. Bit 2 of the block selector picks the
// store the reader reads: the MemoryStore the archive was written to, or
// a segstore.Lattice copy of it behind the use-after-release guard
// (storetest.Poisoned). Whatever they pick, Read and WriteTo must
// deliver what the synchronous reference reader delivers and end as it
// ends: a byte-exact round trip, or the same class of error after the
// same bytes. A reader that hangs trips the fuzzer's own watchdog.
func FuzzArchiveRead(f *testing.F) {
	f.Add(uint16(1000), uint8(1), uint8(4), uint64(1), uint64(0)) // more under testdata/fuzz
	f.Fuzz(func(t *testing.T, length uint16, blockSel, window uint8, readSeed, damageSeed uint64) {
		blockSize := []int{16, 64, 256, 4096}[blockSel%4]
		capacity := archiveCapacity(blockSize)
		payload := make([]byte, int(length)%(200*capacity)) // at most 200 blocks
		rand.New(rand.NewSource(int64(length))).Read(payload)
		a := newTestArchive(t, blockSize, payload)

		share := []float64{0, 0.05, 0.15, 0.4}[damageSeed%4]
		rng := rand.New(rand.NewSource(int64(damageSeed)))
		for i := 1; i <= a.blocks; i++ {
			switch roll := rng.Float64(); {
			case roll < share:
				a.st.LoseData(i)
			case roll < 1.5*share:
				a.corrupt(t, i, rng.Intn(blockSize), 1<<rng.Intn(8))
			}
			for _, tu := range a.tuples(t, i) {
				if rng.Float64() < share {
					a.st.LoseParity(tu.Out)
				}
			}
		}

		rng = rand.New(rand.NewSource(int64(readSeed)))
		sizes := make([]int, 1+rng.Intn(8))
		for k := range sizes {
			sizes[k] = 1 + rng.Intn(3*blockSize)
		}
		want, wantClass := a.reference(t)
		var st BlockStore = a.st
		if blockSel&4 != 0 {
			st = a.onSegstore(t)
		}
		checkAgainstReference(t, a.code, st, int(window), sizes, want, wantClass)
	})
}
