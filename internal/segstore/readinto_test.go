package segstore

// Tests of the read into caller blocks (ReadInto) and of the Lattice
// reads built on it: rot reads as missing exactly as on every other read
// path, a block of another length is not rot, GetMany plus Release
// allocates next to nothing, and the readers that release what they read
// — DecodeData and the repair engine — stay byte-exact behind the
// use-after-release guard.

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"testing"

	"aecodes/internal/entangle"
	"aecodes/internal/lattice"
	"aecodes/internal/obs"
	"aecodes/internal/store"
	"aecodes/internal/store/storetest"
)

// rewriteRecord applies mutate to key's live record on disk, then, with
// fixCRC, stores the checksum of the mutated record, so only the check
// the mutation targets can catch it.
func rewriteRecord(t *testing.T, s *Store, key string, fixCRC bool, mutate func(rec []byte)) {
	t.Helper()
	s.mu.RLock()
	loc, ok := s.index[key]
	f := s.files[loc.seg]
	s.mu.RUnlock()
	if !ok {
		t.Fatalf("%s has no live record", key)
	}
	rec := make([]byte, loc.recLen())
	if _, err := f.ReadAt(rec, loc.off); err != nil {
		t.Fatal(err)
	}
	mutate(rec)
	if fixCRC {
		crc := crc32.Update(crc32.Checksum(rec[0:4], castagnoli), castagnoli, rec[recHeaderLen:])
		binary.BigEndian.PutUint32(rec[4:8], crc)
	}
	if _, err := f.WriteAt(rec, loc.off); err != nil {
		t.Fatal(err)
	}
}

// TestEveryReadPathDropsRot damages a record five ways — a payload bit,
// a key byte and the version bit (the last two under a checksum that
// matches the damage), a header length that disagrees with the index,
// and a segment cut short inside the record — and reads it through Get,
// ReadBatch and ReadInto. Every path reads nil, drops the key and counts
// it in read.dropped once; the records around it read intact.
func TestEveryReadPathDropsRot(t *testing.T) {
	damages := []struct {
		name string
		rot  func(t *testing.T, s *Store, key string)
	}{
		{"payload bit", func(t *testing.T, s *Store, key string) {
			rewriteRecord(t, s, key, false, func(rec []byte) { rec[len(rec)-7] ^= 0x10 })
		}},
		{"key byte", func(t *testing.T, s *Store, key string) {
			rewriteRecord(t, s, key, true, func(rec []byte) { rec[recHeaderLen+2] ^= 0x01 })
		}},
		{"version bit", func(t *testing.T, s *Store, key string) {
			rewriteRecord(t, s, key, true, func(rec []byte) { rec[0] &^= recVersion >> 24 })
		}},
		{"header length", func(t *testing.T, s *Store, key string) {
			rewriteRecord(t, s, key, true, func(rec []byte) {
				binary.BigEndian.PutUint32(rec[0:4], binary.BigEndian.Uint32(rec[0:4])-1)
			})
		}},
		{"truncated segment", func(t *testing.T, s *Store, key string) {
			s.mu.RLock()
			loc := s.index[key]
			f := s.files[loc.seg]
			s.mu.RUnlock()
			if err := f.Truncate(loc.off + loc.recLen() - 1); err != nil {
				t.Fatal(err)
			}
		}},
	}
	const size = 4 << 10
	block := func(key string) []byte { return bytes.Repeat([]byte(key), size)[:size] }
	reads := []struct {
		name string
		read func(s *Store, keys []string) [][]byte
	}{
		{"Get", func(s *Store, keys []string) [][]byte {
			out := make([][]byte, len(keys))
			for i, key := range keys {
				out[i], _ = s.Get(key)
			}
			return out
		}},
		{"ReadBatch", func(s *Store, keys []string) [][]byte {
			return storetest.ReadCopy(t, s, keys)
		}},
		{"ReadInto", func(s *Store, keys []string) [][]byte {
			blocks := make([][]byte, len(keys))
			for i := range blocks {
				blocks[i] = make([]byte, size)
			}
			return s.ReadInto(keys, blocks)
		}},
	}
	for _, d := range damages {
		for _, r := range reads {
			t.Run(d.name+"/"+r.name, func(t *testing.T) {
				s := mustOpen(t, t.TempDir(), Options{})
				keys := []string{"before", "rotten", "after"}
				for _, key := range []string{"before", "after", "rotten"} { // the rotten record ends the segment
					if err := s.Put(key, block(key)); err != nil {
						t.Fatal(err)
					}
				}
				d.rot(t, s, "rotten")
				before := obs.Default.Snapshot().Counters["segstore/read.dropped"]
				got := r.read(s, keys)
				if dropped := obs.Default.Snapshot().Counters["segstore/read.dropped"] - before; dropped != 1 {
					t.Errorf("read.dropped moved by %d, want 1", dropped)
				}
				if got[1] != nil {
					t.Errorf("the rotten record read as %d bytes, want nil", len(got[1]))
				}
				if s.Has("rotten") {
					t.Error("the rotten key is still indexed")
				}
				for _, i := range []int{0, 2} {
					if !bytes.Equal(got[i], block(keys[i])) {
						t.Errorf("%s beside the rot read wrong", keys[i])
					}
				}
			})
		}
	}
}

// TestReadIntoOtherLengthIsNotRot asks for blocks one byte short and one
// byte long of what is stored: both read nil, and neither is dropped or
// counted — the record is intact, only not what the caller asked for.
func TestReadIntoOtherLengthIsNotRot(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	want := bytes.Repeat([]byte{9}, 100)
	if err := s.Put("k", want); err != nil {
		t.Fatal(err)
	}
	before := obs.Default.Snapshot().Counters["segstore/read.dropped"]
	got := s.ReadInto([]string{"k", "k", "k"}, [][]byte{make([]byte, 99), make([]byte, 101), make([]byte, 100)})
	if got[0] != nil || got[1] != nil {
		t.Errorf("blocks of 99 and 101 bytes read %v and %v, want nil", got[0] != nil, got[1] != nil)
	}
	if !bytes.Equal(got[2], want) {
		t.Error("the block of the stored length read wrong")
	}
	if dropped := obs.Default.Snapshot().Counters["segstore/read.dropped"] - before; dropped != 0 || !s.Has("k") {
		t.Errorf("a length mismatch dropped the key (read.dropped moved by %d)", dropped)
	}
}

// TestLatticeGetManyAllocatesLittle pins the allocation budget of a
// window over pooled blocks: once the pool is warm, a GetMany of 16
// blocks of 1 MiB and their Release allocate less than 1/64 of one block
// — keys and result slices, no block.
func TestLatticeGetManyAllocatesLittle(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts over pooled buffers mean nothing under -race")
	}
	const blockSize, n = 1 << 20, 16
	f := newLatticeOf(t, blockSize, n)
	refs := make([]store.Ref, n)
	for i := range refs {
		refs[i] = store.DataRef(i + 1)
	}
	ctx := context.Background()
	read := func() {
		blocks, err := f.GetMany(ctx, refs)
		if err != nil {
			t.Fatal(err)
		}
		for i, b := range blocks {
			if len(b) != blockSize || b[0] != byte(i+1) {
				t.Fatalf("d%d read wrong", i+1)
			}
		}
		f.Release(blocks)
	}
	objects, bytes := measureAllocs(read)
	t.Logf("GetMany+Release of %d × 1 MiB: %v objects, %d bytes a call", n, objects, bytes)
	if bytes*64 >= blockSize {
		t.Errorf("GetMany+Release of %d × 1 MiB allocates %d bytes (%v objects) a call, want < 1/64 of a block", n, bytes, objects)
	}
}

// newLatticeOf returns a Lattice holding data blocks 1..n of blockSize
// bytes, block i filled with byte i.
func newLatticeOf(t *testing.T, blockSize, n int) *Lattice {
	t.Helper()
	v, err := NewLattice(mustOpen(t, t.TempDir(), Options{}), Shape{Params: lattice.Params{Alpha: 3, S: 2, P: 5}, Blocks: n, BlockSize: blockSize})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		if err := v.PutData(context.Background(), i, bytes.Repeat([]byte{byte(i)}, blockSize)); err != nil {
			t.Fatal(err)
		}
	}
	return v
}

// damage deletes a seeded share of f's blocks on the segstore side and
// returns the data positions among them.
func (f *rotFixture) damage(share float64, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	var lost []int
	for _, r := range f.refs {
		if rng.Float64() < share {
			f.erase(r)
			if !r.Parity {
				lost = append(lost, r.Index)
			}
		}
	}
	return lost
}

// TestDecodeDataReleasesIntoPoison decodes the lost data blocks of a
// damaged lattice through the use-after-release guard: every block
// DecodeData returns is byte-exact although each pass's fetch came back
// poisoned before the next pass read.
func TestDecodeDataReleasesIntoPoison(t *testing.T) {
	f := newRotFixture(t, 60)
	lost := f.damage(0.3, 31)
	st := storetest.NewPoisoned(t, f.lat)
	decoded, err := f.rep.DecodeData(context.Background(), st, lost)
	if err != nil {
		t.Fatal(err)
	}
	served := 0
	for k, i := range lost {
		if decoded[k] == nil {
			continue
		}
		served++
		if !bytes.Equal(decoded[k], f.orig[store.DataRef(i)]) {
			t.Fatalf("d%d decoded wrong", i)
		}
	}
	if served < len(lost)/2 || st.Released() == 0 {
		t.Fatalf("decoded %d of %d lost blocks and released %d: the damage left the guard nothing to guard", served, len(lost), st.Released())
	}
}

// TestRepairReleasesIntoPoison runs a multi-round Repair on four workers
// through the use-after-release guard and wants every block of the
// lattice back byte-exact.
func TestRepairReleasesIntoPoison(t *testing.T) {
	f := newRotFixture(t, 60)
	f.damage(0.35, 32)
	st := storetest.NewPoisoned(t, f.lat)
	stats, err := f.rep.Repair(context.Background(), st, entangle.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds < 2 || st.Released() == 0 {
		t.Fatalf("Repair ran %d rounds and released %d blocks: want several rounds through the guard", stats.Rounds, st.Released())
	}
	if left := len(stats.UnrepairedData) + len(stats.UnrepairedParities); left > 0 {
		t.Fatalf("%d blocks left unrepaired", left)
	}
	for i, b := range f.read(t, "after Repair", f.lat) {
		if b == nil {
			t.Fatalf("%v unreadable after Repair", f.refs[i])
		}
	}
}
