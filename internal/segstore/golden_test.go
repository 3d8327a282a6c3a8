package segstore_test

import (
	"bytes"
	"io"
	"maps"
	"math/rand"
	"os"
	"slices"
	"testing"

	"aecodes"
	"aecodes/internal/lattice"
	"aecodes/internal/segstore"
	"aecodes/internal/store"
)

// goldenDir is a segment store written once by writeGolden and committed.
// It is only ever read, so a change to the record, footer or archive
// block framing that can no longer open it fails TestGoldenFormat.
const goldenDir = "testdata/golden"

var (
	goldenShape     = segstore.Shape{Params: lattice.Params{Alpha: 3, S: 2, P: 5}, BlockSize: 256}
	goldenTombstone = store.DataRef(3).String()
)

// goldenPayload is five full archive blocks and a final one of 100 bytes.
func goldenPayload() []byte {
	b := make([]byte, 5*(goldenShape.BlockSize-8)+100)
	rand.New(rand.NewSource(48)).Read(b)
	return b
}

// writeGolden writes into s, a store with 4 KiB segments, what goldenDir
// holds: the payload as a v2 archive, which fills and seals the first
// segment, then a tombstone over a data block, so reading the archive
// back decodes that block from its parities.
func writeGolden(t *testing.T, s *segstore.Store) {
	t.Helper()
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	view, err := segstore.NewLattice(s, goldenShape)
	check(err)
	code, err := aecodes.New(goldenShape.Params, goldenShape.BlockSize)
	check(err)
	w, err := aecodes.NewArchiveWriter(code, view, aecodes.ArchiveOptions{Workers: 1})
	check(err)
	_, err = w.Write(goldenPayload())
	check(err)
	check(w.Close())
	check(view.SetBlocks(w.Blocks()))
	s.Del(goldenTombstone)
}

// TestGoldenFormat opens a copy of goldenDir: the sealed segment from its
// footer, every live key as writeGolden writes it today, the tombstoned
// key gone, and the archive stream equal to the seeded payload.
func TestGoldenFormat(t *testing.T) {
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(goldenDir)); err != nil {
		t.Fatal(err)
	}
	s, footered, _, _ := openDelta(t, dir)
	if footered != 1 {
		t.Errorf("Open took %d segments from their footers, want the sealed one", footered)
	}
	fresh := openStore(t, t.TempDir(), segstore.Options{SegmentSize: 4 << 10})
	writeGolden(t, fresh)
	if got, want := contents(t, s), contents(t, fresh); !maps.Equal(got, want) {
		t.Errorf("live keys or their bytes differ from what writeGolden writes:\ngot  %v\nwant %v",
			slices.Sorted(maps.Keys(got)), slices.Sorted(maps.Keys(want)))
	}
	if s.Has(goldenTombstone) {
		t.Errorf("tombstoned %s is live", goldenTombstone)
	}

	view, err := segstore.OpenLattice(s)
	if err != nil {
		t.Fatal(err)
	}
	code, err := aecodes.New(view.Shape().Params, view.Shape().BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := io.ReadAll(aecodes.OpenArchive(code, view))
	if err != nil || !bytes.Equal(stream, goldenPayload()) {
		t.Errorf("archive reads back %d bytes (err %v), want the %d-byte payload", len(stream), err, len(goldenPayload()))
	}
}
