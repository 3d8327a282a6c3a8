package aecodes_test

import (
	"bytes"
	"math/rand"
	"testing"

	"aecodes"
	"aecodes/internal/cooperative"
	"aecodes/internal/entangle"
	"aecodes/internal/store"
	"aecodes/internal/transport"
)

// startTCPNetwork boots n real TCP storage nodes and returns NodeStore
// clients plus the backing stores (for failure injection).
func startTCPNetwork(t *testing.T, n int) ([]cooperative.NodeStore, []*store.Mem) {
	t.Helper()
	nodes := make([]cooperative.NodeStore, n)
	stores := make([]*store.Mem, n)
	for i := 0; i < n; i++ {
		mem := store.NewMem()
		srv, err := transport.NewServer(mem)
		if err != nil {
			t.Fatal(err)
		}
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		client, err := transport.DialPool(addr, 1)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			client.Close()
			srv.Close()
		})
		nodes[i] = client
		stores[i] = mem
	}
	return nodes, stores
}

// TestIntegrationCooperativeOverTCP runs the §IV.A scenario end to end on
// real sockets: backup, total local loss, remote decode, node wipe,
// lattice repair, broker crash recovery.
func TestIntegrationCooperativeOverTCP(t *testing.T) {
	const blockSize = 256
	nodes, stores := startTCPNetwork(t, 6)
	params := aecodes.Params{Alpha: 3, S: 2, P: 5}
	broker, err := cooperative.NewBroker("carol", params, blockSize, nodes)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(99))
	originals := make([][]byte, 51)
	for i := 1; i <= 50; i++ {
		data := make([]byte, blockSize)
		rng.Read(data)
		originals[i] = data
		if _, err := broker.Backup(bg, data); err != nil {
			t.Fatalf("Backup(%d): %v", i, err)
		}
	}
	total := 0
	for _, s := range stores {
		total += s.Len()
	}
	if total != 150 {
		t.Fatalf("network holds %d parities, want 150", total)
	}

	// Total local loss: every block decoded over TCP.
	broker.DropLocal()
	for i := 1; i <= 50; i++ {
		got, err := broker.Read(bg, i)
		if err != nil {
			t.Fatalf("Read(%d): %v", i, err)
		}
		if !bytes.Equal(got, originals[i]) {
			t.Fatalf("Read(%d) content mismatch", i)
		}
	}

	// Storage node disk loss: regenerate its parities remotely.
	lost := stores[1].Len()
	stores[1].Clear()
	stats, err := broker.Repair(bg, entangle.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.ParityRepaired != lost {
		t.Fatalf("regenerated %d parities, want %d", stats.ParityRepaired, lost)
	}
	if stores[1].Len() != lost {
		t.Fatalf("node 1 holds %d parities after repair, want %d", stores[1].Len(), lost)
	}

	// Broker crash: a fresh broker resumes from the network and produces
	// byte-identical parities for new blocks.
	resumed, err := cooperative.NewBroker("carol", params, blockSize, nodes)
	if err != nil {
		t.Fatal(err)
	}
	local := make(map[int][]byte, 50)
	for i := 1; i <= 50; i++ {
		local[i] = originals[i]
	}
	if err := resumed.RecoverState(bg, cooperative.RecoverOptions{Count: 50, Local: local}); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	extra := make([]byte, blockSize)
	rng.Read(extra)
	pos, err := resumed.Backup(bg, extra)
	if err != nil {
		t.Fatal(err)
	}
	if pos != 51 {
		t.Fatalf("resumed broker wrote position %d, want 51", pos)
	}
	// Cross-check against an uninterrupted reference encoder.
	ref, err := aecodes.New(params, blockSize)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 50; i++ {
		if _, err := ref.Entangle(originals[i]); err != nil {
			t.Fatal(err)
		}
	}
	refEnt, err := ref.Entangle(extra)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range refEnt.Parities {
		key := "carol/" + store.ParityKey(p.Edge)
		held := false
		for _, s := range stores {
			if got, ok := s.Get(key); ok {
				held = true
				if !bytes.Equal(got, p.Data) {
					t.Errorf("parity %v: the resumed broker uploaded other bytes than the reference encoder", p.Edge)
				}
			}
		}
		if !held {
			t.Errorf("parity %v: no node holds %s", p.Edge, key)
		}
	}
}

// TestIntegrationArchiveRoundTrip exercises the public API against the
// MemoryStore with a mixed damage profile at a realistic block size.
func TestIntegrationArchiveRoundTrip(t *testing.T) {
	const blockSize = 4096
	code, err := aecodes.New(aecodes.Params{Alpha: 3, S: 5, P: 5}, blockSize)
	if err != nil {
		t.Fatal(err)
	}
	store := aecodes.NewMemoryStore(blockSize)
	rng := rand.New(rand.NewSource(7))
	const n = 500
	originals := make([][]byte, n+1)
	for i := 1; i <= n; i++ {
		data := make([]byte, blockSize)
		rng.Read(data)
		originals[i] = data
		ent, err := code.Entangle(data)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.PutData(bg, ent.Index, data); err != nil {
			t.Fatal(err)
		}
		for _, p := range ent.Parities {
			if err := store.PutParity(bg, p.Edge, p.Data); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Damage: 15% of data blocks and 15% of parities, uniformly.
	lat := code.Lattice()
	for i := 1; i <= n; i++ {
		if rng.Float64() < 0.15 {
			store.LoseData(i)
		}
		for _, class := range lat.Classes() {
			if rng.Float64() < 0.15 {
				e, err := lat.OutEdge(class, i)
				if err != nil {
					t.Fatal(err)
				}
				store.LoseParity(e)
			}
		}
	}
	stats, err := code.Repair(bg, store, aecodes.RepairOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.DataLoss() != 0 {
		t.Fatalf("data loss %d after 15%%/15%% damage", stats.DataLoss())
	}
	for i := 1; i <= n; i++ {
		got, ok := store.Data(i)
		if !ok || !bytes.Equal(got, originals[i]) {
			t.Fatalf("block %d corrupt after repair", i)
		}
	}
}
