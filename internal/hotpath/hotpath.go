// Package hotpath instruments the block hot path: a process-wide counter
// of block-payload bytes copied in user space between socket and store.
//
// The zero-copy frame path (transport pooling + aliased batch decode +
// segstore's vectored append) exists to drive this number toward zero;
// the counter turns the copy budget into something aebench can record
// and benchguard can guard, rather than folklore about which path still
// copies. Only deliberate block-payload copies are counted — a store
// copying on put (MemStore), a staging fallback before a write — never
// kernel-side socket or page-cache transfers, which the process cannot
// observe.
//
// The counter is a single atomic add on paths moving whole blocks, so
// keeping it always-on costs nothing measurable next to the memcpy it
// counts.
package hotpath

import "sync/atomic"

var copiedBytes atomic.Uint64

// CountCopy records n bytes of block payload copied in user space on the
// socket↔store hot path. Negative or zero n is ignored.
func CountCopy(n int) {
	if n > 0 {
		copiedBytes.Add(uint64(n))
	}
}

// CopiedBytes returns the total block-payload bytes copied since process
// start. Benchmarks snapshot it around a workload and divide by blocks
// moved to report bytes-copied-per-block.
func CopiedBytes() uint64 { return copiedBytes.Load() }
