package entangle

import "context"

// Limiter is the rate-limit contract background repair draws from. The
// engine charges actual I/O after it happens (a debt model): Acquire may
// admit the caller into debt and recover before admitting the next one,
// so measured rates converge on the configured ones without the engine
// knowing transfer sizes up front. maintain.Bucket satisfies it.
type Limiter interface {
	// Acquire blocks until the caller may spend ops operations and bytes
	// bytes of repair I/O, or returns ctx's error on cancellation.
	Acquire(ctx context.Context, ops int, bytes int64) error
}

// Priority says who asked for a repair run and how urgent it is. It is
// a label: the engine copies it into the repair counters' names
// (repair.<seed>.<priority>.*) and nothing schedules by it.
type Priority int

const (
	// PriorityBackground marks maintenance-initiated repair that must
	// never crowd out client work.
	PriorityBackground Priority = -1
	// PriorityNormal is the default for client-driven repair.
	PriorityNormal Priority = 0
	// PriorityUrgent marks repair of nearly-unrecoverable lattices —
	// health probes found blocks with zero or one intact tuple left.
	PriorityUrgent Priority = 1
)
