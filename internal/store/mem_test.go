package store_test

import (
	"bytes"
	"testing"

	"aecodes/internal/store"
	"aecodes/internal/store/storetest"
)

// TestMemKeyedContract runs the store.Keyed conformance suite over the
// in-memory store.
func TestMemKeyedContract(t *testing.T) {
	storetest.RunKeyed(t, func(*testing.T) store.Keyed { return store.NewMem() })
}

func TestMem(t *testing.T) {
	s := store.NewMem()
	if _, ok := s.Get("a"); ok {
		t.Error("empty store Get succeeded")
	}
	if err := s.Put("a", []byte{1, 2}); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("a")
	if !ok || !bytes.Equal(got, []byte{1, 2}) {
		t.Fatalf("Get = %v,%v", got, ok)
	}
	got[0] = 9
	again, _ := s.Get("a")
	if again[0] != 1 {
		t.Error("Mem aliases stored data")
	}
	s.Del("a")
	if _, ok := s.Get("a"); ok {
		t.Error("Get succeeded after Del")
	}
	s.Del("absent") // no panic
}
