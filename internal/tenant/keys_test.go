package tenant

import (
	"fmt"
	"testing"
)

// TestReadKeysAllocateOncePerCall pins the tenant view's read-key
// mapping: a named tenant's prefixed keys cost the same allocations for
// 2 keys as for 256, and each is the key Put would have written; the
// anonymous view hands the caller's list through.
func TestReadKeysAllocateOncePerCall(t *testing.T) {
	alice := &Store{id: "alice"}
	objects := map[int]float64{}
	for _, n := range []int{2, 256} {
		keys := make([]string, n)
		for i := range keys {
			keys[i] = fmt.Sprintf("user/p:h:%d:%d", i, i+5)
		}
		full := alice.keys(keys)
		for i, k := range keys {
			if full[i] != alice.key(k) {
				t.Fatalf("read key %d = %q, want %q", i, full[i], alice.key(k))
			}
		}
		objects[n] = testing.AllocsPerRun(20, func() { alice.keys(keys) })
	}
	if !raceEnabled && objects[2] != objects[256] {
		t.Errorf("mapping 2 keys allocates %v objects, 256 keys %v: something is allocated per key", objects[2], objects[256])
	}

	anon := &Store{id: Anonymous}
	keys := []string{"a", "b"}
	if full := anon.keys(keys); &full[0] != &keys[0] {
		t.Error("the anonymous view copied its key list")
	}
}
