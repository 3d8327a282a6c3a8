package store

import (
	"sync"

	"aecodes/internal/obs"
)

// obsCopiedBytes counts block-payload bytes copied in user space on the
// socket↔store path: Mem copies every block it stores and every Get it
// serves. segstore resolves the same counter for its staging fallback.
var obsCopiedBytes = obs.Default.Scope("hotpath").Counter("copied_bytes")

// Mem is the repository's one in-memory Keyed: a storage node without
// -data, and the block map under entangle.MemoryStore and
// cooperative.InMemoryNode.
type Mem struct {
	mu sync.RWMutex
	m  map[string][]byte
}

var _ Keyed = (*Mem)(nil)

// NewMem returns an empty store.
func NewMem() *Mem { return &Mem{m: make(map[string][]byte)} }

// Get implements Keyed.
func (s *Mem) Get(key string) ([]byte, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b, ok := s.m[key]
	if !ok {
		return nil, false
	}
	out := make([]byte, len(b))
	copy(out, b)
	obsCopiedBytes.Add(int64(len(b)))
	return out, true
}

// Put implements Keyed.
func (s *Mem) Put(key string, data []byte) error {
	cp := make([]byte, len(data))
	copy(cp, data)
	obsCopiedBytes.Add(int64(len(data)))
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = cp
	return nil
}

// Del implements Keyed.
func (s *Mem) Del(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.m, key)
}

// ReadBatch implements Keyed with one lock acquisition for the whole
// batch, and lends fn the stored slices themselves, uncopied. That is
// safe because a stored slice is never written again: Put and PutBatch
// store fresh copies and replace the map entry, they never modify a
// stored slice in place, so the bytes fn holds stay what they were even
// when the key is overwritten or deleted while fn runs.
func (s *Mem) ReadBatch(keys []string, fn func(blocks [][]byte) error) error {
	blocks := make([][]byte, len(keys))
	s.mu.RLock()
	for i, key := range keys {
		blocks[i] = s.m[key]
	}
	s.mu.RUnlock()
	return fn(blocks)
}

// PutBatch implements Keyed: the batch is copied first, then applied
// under one lock acquisition.
func (s *Mem) PutBatch(items []KV) error {
	copies := make([][]byte, len(items))
	for i, it := range items {
		cp := make([]byte, len(it.Data))
		copy(cp, it.Data)
		obsCopiedBytes.Add(int64(len(it.Data)))
		copies[i] = cp
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, it := range items {
		s.m[it.Key] = copies[i]
	}
	return nil
}

// StatBatch implements Keyed: one entry per key in order, the block's
// byte length when present, -1 otherwise — presence answered without
// copying block contents.
func (s *Mem) StatBatch(keys []string) []int {
	out := make([]int, len(keys))
	s.mu.RLock()
	defer s.mu.RUnlock()
	for i, key := range keys {
		if b, ok := s.m[key]; ok {
			out[i] = len(b)
		} else {
			out[i] = -1
		}
	}
	return out
}

// Size reports the byte length of the block under key without copying
// it.
func (s *Mem) Size(key string) (int64, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b, ok := s.m[key]
	if !ok {
		return 0, false
	}
	return int64(len(b)), true
}

// Each walks every stored key with its size until fn returns false. The
// walk holds the store's read lock: fn must not call back into the
// store.
func (s *Mem) Each(fn func(key string, size int64) bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for key, b := range s.m {
		if !fn(key, int64(len(b))) {
			return
		}
	}
}

// Dropped implements tenant.Backing: a Mem never drops a key on its own,
// so it is always 0.
func (s *Mem) Dropped() uint64 { return 0 }

// Len returns the number of stored blocks.
func (s *Mem) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.m)
}

// Clear drops every stored block — the "disk replaced" event of a storage
// node.
func (s *Mem) Clear() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m = make(map[string][]byte)
}
