package tenant

import (
	"slices"
	"testing"
)

// TestLRUPolicy pins the eviction order in isolation: coldest first, ties
// broken by ID.
func TestLRUPolicy(t *testing.T) {
	got := lruOrder([]candidate{{"hot", 30}, {"cold", 10}, {"tie", 20}, {"mild", 20}})
	if want := []candidate{{"cold", 10}, {"mild", 20}, {"tie", 20}, {"hot", 30}}; !slices.Equal(got, want) {
		t.Errorf("lruOrder = %v, want %v", got, want)
	}
}
