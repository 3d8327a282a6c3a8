//go:build !linux

package segstore

import "os"

// writevCopies reports whether writevAt stages payload bytes through a
// user-space buffer. Without a vectored positional write the fallback
// assembles the chunk in memory first, so callers count the staged
// payload against the copy budget.
const writevCopies = true

// writevAt writes the segments of vecs contiguously at offset off by
// staging them into one buffer and issuing a single WriteAt — the
// portable fallback for platforms without pwritev(2).
func writevAt(f *os.File, vecs [][]byte, off int64) error {
	var total int
	for _, v := range vecs {
		total += len(v)
	}
	buf := make([]byte, 0, total)
	for _, v := range vecs {
		buf = append(buf, v...)
	}
	_, err := f.WriteAt(buf, off)
	return err
}

// readvAt fills head and then payload from f at offset off — the
// portable fallback for platforms without preadv(2): two preads, the
// payload still straight into the caller's block.
func readvAt(f *os.File, head, payload []byte, off int64) error {
	if _, err := f.ReadAt(head, off); err != nil {
		return err
	}
	_, err := f.ReadAt(payload, off+int64(len(head)))
	return err
}
