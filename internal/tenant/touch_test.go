package tenant

import (
	"sync"
	"testing"
)

// TestTouchNeverMovesBack pins that a tenant's LRU stamp only moves
// forward: a touch whose tick was taken first but lands last leaves the
// newer stamp in place, and racing touches end at the clock's last tick.
func TestTouchNeverMovesBack(t *testing.T) {
	u := new(usage)
	u.stamp(6)
	u.stamp(5) // the slower of two touches that took ticks 5 and 6
	if got := u.lastUse.Load(); got != 6 {
		t.Fatalf("lastUse = %d after stamps 6 then 5, want 6", got)
	}

	var r Registry
	u = new(usage)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				r.touch(u)
			}
		}()
	}
	wg.Wait()
	if got, want := u.lastUse.Load(), r.clock.Load(); got != want {
		t.Fatalf("lastUse = %d after the last touch, want the clock's %d", got, want)
	}
}
