package reg

import "sync"

// Log exercises a struct with two locks: amu serialises the writers and
// guards the append position, mu guards what readers resolve. closed is
// set holding both, so either admits a read.
type Log struct {
	amu  sync.Mutex
	woff int64 // guarded by amu

	mu     sync.RWMutex
	index  map[string]int64 // guarded by mu
	closed bool             // guarded by amu and mu
}

// appendLocked needs the writers' lock alone. Callers hold amu.
func (l *Log) appendLocked(n int64) int64 {
	off := l.woff
	l.woff += n
	return off
}

// applyLocked names no lock, so it needs both.
func (l *Log) applyLocked(key string, off int64) {
	l.index[key] = off
}

// publishLocked takes mu itself. Callers hold l.amu.
func (l *Log) publishLocked(key string, off int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.applyLocked(key, off)
}

// Append calls amu-only *Locked methods without holding mu.
func (l *Log) Append(key string, n int64) {
	l.amu.Lock()
	defer l.amu.Unlock()
	if l.closed {
		return
	}
	l.publishLocked(key, l.appendLocked(n))
}

func (l *Log) AppendUnderMu(n int64) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appendLocked(n) // want `call to appendLocked without holding amu`
}

func (l *Log) ApplyUnderAmu(key string) {
	l.amu.Lock()
	defer l.amu.Unlock()
	l.applyLocked(key, 0) // want `call to applyLocked without holding mu`
}

func (l *Log) OffsetUnderMu() int64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.woff // want `read of guarded field woff without holding amu`
}

// Get reads closed under mu alone: either of its locks admits a read.
func (l *Log) Get(key string) (int64, bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if l.closed {
		return 0, false
	}
	off, ok := l.index[key]
	return off, ok
}

func (l *Log) Close() {
	l.amu.Lock()
	defer l.amu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
}

func (l *Log) CloseUnderMu() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true // want `write to guarded field closed without holding amu`
}

func (l *Log) ClosedUnlocked() bool {
	return l.closed // want `read of guarded field closed without holding amu or mu`
}
