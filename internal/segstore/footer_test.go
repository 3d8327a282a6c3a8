package segstore

// Tests of seal-time footers: a store opened from its footers holds the
// index a full scan of the same log rebuilds, a log written without
// footers opens the same, and the footer decoder accepts nothing but an
// intact footer that fills its segment exactly.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"reflect"
	"testing"

	"aecodes/internal/obs"
)

// withFooters runs fn with the footers hook set to on, restoring it.
func withFooters(on bool, fn func()) {
	old := footers
	footers = on
	defer func() { footers = old }()
	fn()
}

// indexView is everything Open rebuilds that a caller can see: every
// live key with its size and bytes, and the Stats figures that come from
// the index.
type indexView struct {
	sizes                  map[string]int64
	data                   map[string]string
	blocks                 int
	live, dead, truncation int64
}

func viewOf(t *testing.T, s *Store) indexView {
	t.Helper()
	v := indexView{sizes: map[string]int64{}, data: map[string]string{}}
	s.Each(func(key string, size int64) bool {
		v.sizes[key] = size
		return true
	})
	for key := range v.sizes {
		b, ok := s.Get(key)
		if !ok {
			t.Fatalf("%s listed but not served", key)
		}
		v.data[key] = string(b)
	}
	st := s.Stats()
	v.blocks, v.live, v.dead, v.truncation = st.Blocks, st.LiveBytes, st.DeadBytes, st.TruncatedBytes
	return v
}

// viewAt opens dir with the footers hook set to on, takes its view and
// closes it again.
func viewAt(t *testing.T, dir string, opts Options, on bool) (v indexView) {
	t.Helper()
	withFooters(on, func() {
		s, err := Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		v = viewOf(t, s)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	})
	return v
}

// footerOps replays one random sequence of puts, overwrites, deletes,
// compactions and reopens into dir and returns the live contents the
// sequence leaves, as a model of what every Open must serve.
func footerOps(t *testing.T, dir string, opts Options, seed int64) map[string]string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	model := map[string]string{}
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for op := 0; op < 40; op++ {
		key := fmt.Sprintf("key-%d", rng.Intn(12))
		switch x := rng.Intn(20); {
		case x < 12: // put, or overwrite when the key is live
			data := bytes.Repeat([]byte{byte(op)}, rng.Intn(120))
			if err := s.Put(key, data); err != nil {
				t.Fatal(err)
			}
			model[key] = string(data)
		case x < 16: // delete, a no-op when the key is not live
			s.Del(key)
			delete(model, key)
		case x < 18:
			if err := s.Compact(); err != nil {
				t.Fatal(err)
			}
		default:
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if s, err = Open(dir, opts); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return model
}

// TestFooterIndexMatchesScan is the footer's contract as a property:
// over random sequences of operations in tiny segments, the store opened
// from its footers and the same directory opened by a full scan agree on
// every key, size and byte and on Blocks, LiveBytes and DeadBytes — and
// so does the log the same sequence writes without footers, the format
// of logs written before them.
func TestFooterIndexMatchesScan(t *testing.T) {
	before := obs.Default.Snapshot()
	for seed := int64(0); seed < 48; seed++ {
		opts := Options{SegmentSize: int64(64 + 32*(seed%8))}
		footered, plain := t.TempDir(), t.TempDir()
		model := footerOps(t, footered, opts, seed)
		withFooters(false, func() { footerOps(t, plain, opts, seed) })

		fromFooters := viewAt(t, footered, opts, true)
		if len(fromFooters.data) != len(model) {
			t.Fatalf("seed %d: footered open holds %d keys, the sequence left %d", seed, len(fromFooters.data), len(model))
		}
		for key, data := range model {
			if fromFooters.data[key] != data {
				t.Fatalf("seed %d: footered open serves %s wrong", seed, key)
			}
		}
		if scanned := viewAt(t, footered, opts, false); !reflect.DeepEqual(fromFooters, scanned) {
			t.Fatalf("seed %d: footers and a full scan of the same log disagree:\nfooters %+v\nscan    %+v", seed, fromFooters, scanned)
		}
		if old := viewAt(t, plain, opts, true); !reflect.DeepEqual(fromFooters, old) {
			t.Fatalf("seed %d: a log without footers opens differently:\nfooters %+v\nold     %+v", seed, fromFooters, old)
		}
	}
	// The sequences end in every shape, from one segment (a Compact as
	// the last operation) to many; over all of them Open must have taken
	// many segments from their footers, or nothing was compared.
	after := obs.Default.Snapshot()
	if got := after.Counters["segstore/open.footer_segments"] - before.Counters["segstore/open.footer_segments"]; got < 100 {
		t.Fatalf("open.footer_segments moved by %d over the sequences: footers were hardly read", got)
	}
}

// TestOldLogGainsFootersAsItRotates opens a log written without footers:
// its sealed segments are scanned, and from the next rotation on each
// segment sealed gets a footer that lists its records alone — the
// formerly active segment's among them, its entries seeded by Open's
// scan — so the next Open takes exactly those from their footers.
func TestOldLogGainsFootersAsItRotates(t *testing.T) {
	dir := t.TempDir()
	opts := Options{SegmentSize: 256}
	block := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 64) }
	put := func(s *Store, from, to int) { // 77-byte records, three a segment
		for i := from; i < to; i++ {
			if err := s.Put(fmt.Sprintf("k%02d", i), block(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	withFooters(false, func() {
		s := mustOpen(t, dir, opts)
		put(s, 0, 8) // segments 1 and 2 sealed, without footers
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	})
	s := mustOpen(t, dir, opts)
	put(s, 8, 13) // seals segment 3 (k06–k08) and 4 (k09–k11)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	before := obs.Default.Snapshot()
	r := mustOpen(t, dir, opts)
	after := obs.Default.Snapshot()
	moved := func(key string) int64 { return after.Counters[key] - before.Counters[key] }
	if f, sc := moved("segstore/open.footer_segments"), moved("segstore/open.scanned_segments"); f != 2 || sc != 3 {
		t.Fatalf("reopen took %d segments from footers and scanned %d, want 2 (sealed since) and 3 (two old, the active one)", f, sc)
	}
	for i := 0; i < 13; i++ {
		if got, ok := r.Get(fmt.Sprintf("k%02d", i)); !ok || !bytes.Equal(got, block(i)) {
			t.Fatalf("k%02d not served after the old log gained footers", i)
		}
	}
}

// checkFooter asserts what readFooter promises of any segment it
// accepts: the trailer carries the magic and the CRC of the footer's
// body, and the records it lists tile the bytes before the footer
// exactly, each within the framing limits.
func checkFooter(t *testing.T, seg []byte, recs []footerRecord, recEnd int64) {
	t.Helper()
	size := int64(len(seg))
	tr := seg[size-footerTrailerLen:]
	bodyLen := int64(binary.BigEndian.Uint64(tr[0:8]))
	if binary.BigEndian.Uint32(tr[12:16]) != footerMagic {
		t.Fatal("accepted a footer without the magic")
	}
	if recEnd < 0 || recEnd+bodyLen+footerTrailerLen != size {
		t.Fatalf("records end at %d, footer body of %d in a segment of %d", recEnd, bodyLen, size)
	}
	crc := crc32.Update(crc32.Checksum(seg[recEnd:recEnd+bodyLen], castagnoli), castagnoli, tr[0:8])
	if crc != binary.BigEndian.Uint32(tr[8:12]) {
		t.Fatal("accepted a footer whose CRC does not match")
	}
	var off int64
	for _, r := range recs {
		if r.loc.off != off || r.loc.off+r.loc.recLen() > recEnd {
			t.Fatalf("entry %q at %d+%d outside the records [0, %d) or out of order", r.key, r.loc.off, r.loc.recLen(), recEnd)
		}
		if len(r.key) != int(r.loc.keyLen) || r.loc.keyLen == 0 || r.loc.keyLen > MaxKeyLen ||
			r.loc.dataLen > MaxBlockLen || (r.tombstone && r.loc.dataLen != 0) {
			t.Fatalf("entry %+v outside the framing limits", r)
		}
		off += r.loc.recLen()
	}
	if off != recEnd {
		t.Fatalf("entries cover %d bytes, records end at %d", off, recEnd)
	}
}

// FuzzSegmentFooter decodes arbitrary segment bytes, which must never
// panic and never yield a footer checkFooter rejects. When the first
// byte is odd, the rest instead describes up to 64 records — a key
// length, a payload length and a tombstone bit per three bytes — laid out
// with their footer, which must decode to exactly those records; then
// one byte of the footer, picked by the second byte, is flipped, and the
// damaged footer must be refused.
func FuzzSegmentFooter(f *testing.F) {
	f.Add([]byte{}) // more under testdata/fuzz
	f.Add(appendFooter(make([]byte, 20), []logEntry{{key: "k", word0: recVersion | 9}}))
	f.Add([]byte{1, 5, 3, 40, 7, 2, 0, 9, 1, 0})
	f.Fuzz(func(t *testing.T, in []byte) {
		if recs, recEnd, ok := readFooter(bytes.NewReader(in), 7, int64(len(in))); ok {
			checkFooter(t, in, recs, recEnd)
		}
		if len(in) < 2 || in[0]&1 == 0 {
			return
		}
		var (
			ents []logEntry
			seg  []byte
		)
		for p := in[2:min(len(in), 2+3*64)]; len(p) >= 3; p = p[3:] {
			key := bytes.Repeat([]byte{'k'}, 1+int(p[0])%40)
			word0, dataLen := uint32(recVersion), int(p[1])
			if p[2]&1 == 1 {
				word0, dataLen = recVersion|recTombstone, 0
			}
			word0 |= uint32(dataLen)
			ents = append(ents, logEntry{key: string(key), word0: word0})
			seg = append(seg, make([]byte, recHeaderLen+2+len(key)+dataLen)...)
		}
		recEnd := int64(len(seg))
		seg = appendFooter(seg, ents)
		recs, gotEnd, ok := readFooter(bytes.NewReader(seg), 7, int64(len(seg)))
		if !ok || gotEnd != recEnd || len(recs) != len(ents) {
			t.Fatalf("an intact footer of %d entries decoded to ok=%v, %d entries, end %d (want %d)", len(ents), ok, len(recs), gotEnd, recEnd)
		}
		checkFooter(t, seg, recs, recEnd)
		for i, r := range recs {
			if r.key != ents[i].key || r.tombstone != (ents[i].word0&recTombstone != 0) || r.loc.dataLen != ents[i].word0&recLenMask || r.loc.seg != 7 {
				t.Fatalf("entry %d decoded to %+v, want %+v", i, r, ents[i])
			}
		}
		at := recEnd + int64(in[1])%(int64(len(seg))-recEnd)
		seg[at] ^= 0x5A
		if _, _, ok := readFooter(bytes.NewReader(seg), 7, int64(len(seg))); ok {
			t.Fatalf("a footer with byte %d of %d flipped was accepted", at-recEnd, int64(len(seg))-recEnd)
		}
	})
}
