package cooperative

import (
	"bytes"
	"math/rand"
	"testing"

	"aecodes/internal/entangle"
	"aecodes/internal/lattice"
	"aecodes/internal/store"
)

// buildBrokerSystem backs up n random blocks through a broker over the
// given nodes and returns the originals (1-based).
func buildBrokerSystem(t testing.TB, b *Broker, n int, seed int64) [][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	originals := make([][]byte, n+1)
	for i := 1; i <= n; i++ {
		data := make([]byte, b.BlockSize())
		rng.Read(data)
		originals[i] = data
		if _, err := b.Backup(bg, data); err != nil {
			t.Fatalf("Backup(%d): %v", i, err)
		}
	}
	return originals
}

// TestBackupReusesParityFrame pins the steady-state upload path: Backup
// entangles into one broker-owned frame arena and recycles it on the
// next call — no per-block parity allocation — and, because every node
// consumes blocks before returning, recycling cannot corrupt parities
// uploaded earlier.
func TestBackupReusesParityFrame(t *testing.T) {
	b, err := NewBroker("alice", lattice.Params{Alpha: 3, S: 2, P: 5}, 32, []NodeStore{NewInMemoryNode()})
	if err != nil {
		t.Fatal(err)
	}
	first := &b.parityArena()[0][0]
	originals := buildBrokerSystem(t, b, 40, 7)
	if &b.parityArena()[0][0] != first {
		t.Error("Backup reallocated the parity frame arena")
	}
	// The arena was overwritten 40 times; parities uploaded on round one
	// must still repair block 3 exactly.
	b.DropLocal(3)
	got, err := b.Read(bg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, originals[3]) {
		t.Error("early parities corrupted by later frame reuse")
	}
}

// TestRepairRoundBatchesPerNode asserts the transport shape of round-based
// repair over batch-capable nodes: one StatMany per node per run, every
// round's reads arrive via GetMany — at most one batched request per node
// per round — and zero single-block Get round-trips. A parity-only round
// whose every tuple one node holds reads nothing at all: it is at most
// one XorPutMany frame per node.
func TestRepairRoundBatchesPerNode(t *testing.T) {
	const (
		nodesCount = 5
		n          = 120
		blockSize  = 32
	)
	nodes := make([]NodeStore, nodesCount)
	mems := make([]*InMemoryNode, nodesCount)
	for i := range nodes {
		mems[i] = NewInMemoryNode()
		nodes[i] = mems[i]
	}
	b, err := NewBroker("alice", lattice.Params{Alpha: 3, S: 2, P: 5}, blockSize, nodes)
	if err != nil {
		t.Fatal(err)
	}
	originals := buildBrokerSystem(t, b, n, 31)

	// Lose a third of the user's data blocks so repair has real work.
	rng := rand.New(rand.NewSource(17))
	for i := 1; i <= n; i++ {
		if rng.Float64() < 0.33 {
			b.DropLocal(i)
		}
	}
	for _, m := range mems {
		m.ResetCounters()
	}

	stats, err := b.Repair(bg, entangle.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.UnrepairedData) != 0 {
		t.Fatalf("repair left %d data blocks missing", len(stats.UnrepairedData))
	}
	for i := 1; i <= n; i++ {
		got, err := b.Read(bg, i)
		if err != nil {
			t.Fatalf("Read(%d): %v", i, err)
		}
		if !bytes.Equal(got, originals[i]) {
			t.Fatalf("block %d corrupted by repair", i)
		}
	}

	// Repair enumerated once and then ran stats.Rounds rounds off its own
	// missing set. Enumeration is presence-only and per run: one StatMany
	// frame per node (360 parities over 5 nodes fit one batchChunk each)
	// however many rounds followed. Content moves ONLY in the engine's
	// round prefetch — at most one GetMany frame per node per round — and
	// nothing may fall back to single-block chatter.
	for i, m := range mems {
		if m.GetCalls() != 0 {
			t.Errorf("node %d served %d single Gets during repair, want 0 (batching bypassed)", i, m.GetCalls())
		}
		if m.BatchCalls() > stats.Rounds {
			t.Errorf("node %d served %d GetMany frames over %d rounds, want ≤ one per round (enumeration must be presence-only)",
				i, m.BatchCalls(), stats.Rounds)
		}
		if m.BatchStatCalls() != 1 {
			t.Errorf("node %d served %d StatMany frames over %d rounds, want 1 per Repair",
				i, m.BatchStatCalls(), stats.Rounds)
		}
		if m.XorPutCalls() != 0 || m.BatchPutCalls() != 0 {
			t.Errorf("node %d served %d XorPutMany and %d PutMany frames, want none: no parity was lost",
				i, m.XorPutCalls(), m.BatchPutCalls())
		}
	}

	// Under the flat router about one parity in five has a given dp-tuple's
	// companion on its own node, one in twenty-five both. Losing just
	// those, the one round sends each node at most one XorPutMany frame
	// and nothing else, whichever tuple the plan picks.
	dropped := dropColocated(t, b, true, func(lattice.Edge) bool { return true })
	resetAll(mems)
	stats, err = b.Repair(bg, entangle.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds != 1 || stats.ParityRepaired != len(dropped) || len(dropped) < 10 {
		t.Fatalf("co-located repair: %d of %d parities in %d rounds, want all of ≥ 10 in 1", stats.ParityRepaired, len(dropped), stats.Rounds)
	}
	for i, m := range mems {
		if m.GetCalls()+m.BatchCalls()+m.PutCalls()+m.BatchPutCalls() != 0 || m.XorPutCalls() > 1 {
			t.Errorf("node %d served %d Get, %d GetMany, %d Put, %d PutMany, %d XorPutMany frames; want only ≤ 1 XorPutMany",
				i, m.GetCalls(), m.BatchCalls(), m.PutCalls(), m.BatchPutCalls(), m.XorPutCalls())
		}
	}
	checkRestored(t, b, dropped)
}

// TestRepairAfterNodeWipeBatched wipes one node's disk (the node stays
// reachable, the repo's §IV.A "disk replaced" model): the batched
// enumeration reports its parities missing and the engine regenerates them
// onto it, still without single-block read chatter.
func TestRepairAfterNodeWipeBatched(t *testing.T) {
	const (
		nodesCount = 6
		n          = 80
		blockSize  = 16
	)
	nodes := make([]NodeStore, nodesCount)
	mems := make([]*InMemoryNode, nodesCount)
	for i := range nodes {
		mems[i] = NewInMemoryNode()
		nodes[i] = mems[i]
	}
	b, err := NewBroker("bob", lattice.Params{Alpha: 3, S: 2, P: 5}, blockSize, nodes)
	if err != nil {
		t.Fatal(err)
	}
	buildBrokerSystem(t, b, n, 5)

	lost := mems[2].Len()
	if lost == 0 {
		t.Skip("placement put nothing on node 2 for this seed")
	}
	mems[2].blocks.Clear()
	for _, m := range mems {
		m.ResetCounters()
	}
	stats, err := b.Repair(bg, entangle.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.ParityRepaired != lost {
		t.Errorf("repaired %d parities, want %d", stats.ParityRepaired, lost)
	}
	if mems[2].Len() != lost {
		t.Errorf("node 2 holds %d blocks after repair, want %d", mems[2].Len(), lost)
	}
	for i, m := range mems {
		if m.GetCalls() != 0 {
			t.Errorf("node %d served %d single Gets during repair, want 0", i, m.GetCalls())
		}
	}
}

// TestTargetedRepairBatchesPerNode asserts the same transport shape for a
// run seeded with Targets, the background healer's path: the targets
// travel in one GetMany frame per node where an enumeration would have
// sent a StatMany, every round after that is at most one more, and no
// single-block Get is issued however many targets there are.
func TestTargetedRepairBatchesPerNode(t *testing.T) {
	nodes, mems := newNetwork(4)
	b := newBroker(t, nodes)
	buildBrokerSystem(t, b, 80, 23)
	var targets []store.Ref
	for i := 11; len(targets) < 32; i += 2 {
		e, err := b.rep.Lattice().OutEdge(lattice.Horizontal, i)
		if err != nil {
			t.Fatal(err)
		}
		key := b.parityKey(e)
		mems[flatIndex(t, b, key, e)].blocks.Del(key)
		targets = append(targets, store.ParityRef(e))
	}
	for _, m := range mems {
		m.ResetCounters()
	}
	stats, err := b.Repair(bg, entangle.Options{Targets: targets})
	if err != nil {
		t.Fatal(err)
	}
	if stats.ParityRepaired != len(targets) || stats.Rounds < 2 {
		t.Fatalf("stats %+v, want all %d deleted parities repaired over several rounds", stats, len(targets))
	}
	for i, m := range mems {
		if m.GetCalls() != 0 || m.BatchStatCalls() != 0 {
			t.Errorf("node %d served %d single Gets and %d StatMany frames, want none of either", i, m.GetCalls(), m.BatchStatCalls())
		}
		if m.BatchCalls() > stats.Rounds+1 {
			t.Errorf("node %d served %d GetMany frames over %d rounds, want ≤ one per round after the target fetch",
				i, m.BatchCalls(), stats.Rounds)
		}
	}
}

// TestChunkEntriesBounded pins the frame sizing: small blocks are
// bounded by entry count, 64 KiB blocks by the byte budget (several to a
// frame), and a block bigger than the budget still travels one at a time.
func TestChunkEntriesBounded(t *testing.T) {
	if got := chunkEntries(32); got != batchChunk {
		t.Errorf("chunkEntries(32) = %d, want %d", got, batchChunk)
	}
	const kib64 = 64 << 10
	if got := chunkEntries(kib64); got < 2 || got*(kib64+64) > batchChunkBytes {
		t.Errorf("chunkEntries(64KiB) = %d, want ≥ 2 within the %d-byte budget", got, batchChunkBytes)
	}
	for _, size := range []int{batchChunkBytes, 1 << 20, 1 << 30} {
		if got := chunkEntries(size); got != 1 {
			t.Errorf("chunkEntries(%d) = %d, want 1", size, got)
		}
	}
}

// TestMissingParitiesUnreachableNode covers the degraded enumeration path:
// a node that errors on GetMany counts as holding nothing this round.
func TestMissingParitiesUnreachableNode(t *testing.T) {
	nodes := make([]NodeStore, 4)
	mems := make([]*InMemoryNode, 4)
	for i := range nodes {
		mems[i] = NewInMemoryNode()
		nodes[i] = mems[i]
	}
	b, err := NewBroker("carol", lattice.Params{Alpha: 2, S: 2, P: 5}, 16, nodes)
	if err != nil {
		t.Fatal(err)
	}
	buildBrokerSystem(t, b, 40, 3)

	ns := b.netStore()
	if missing, err := ns.Missing(bg); err != nil || len(missing.Parities) != 0 {
		t.Fatalf("healthy network reports %d missing parities (err %v)", len(missing.Parities), err)
	}
	mems[1].SetDown(true)
	missing, err := ns.Missing(bg)
	if err != nil {
		t.Fatal(err)
	}
	if len(missing.Parities) == 0 {
		t.Fatal("unreachable node's parities not reported missing")
	}
	for _, e := range missing.Parities {
		key := b.parityKey(e)
		if idx := flatIndex(t, b, key, e); idx != 1 {
			t.Errorf("parity %v reported missing but lives on healthy node %d", e, idx)
		}
	}
}

// TestBackupBatchesPerNode asserts the upload shape of initial backup:
// every Backup call groups its α parities by responsible node and ships
// at most one PutMany frame per node — zero single-block Put round-trips.
func TestBackupBatchesPerNode(t *testing.T) {
	const (
		nodesCount = 4
		n          = 60
		blockSize  = 32
	)
	nodes := make([]NodeStore, nodesCount)
	mems := make([]*InMemoryNode, nodesCount)
	for i := range nodes {
		mems[i] = NewInMemoryNode()
		nodes[i] = mems[i]
	}
	b, err := NewBroker("dora", lattice.Params{Alpha: 3, S: 2, P: 5}, blockSize, nodes)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, blockSize)
	for i := 1; i <= n; i++ {
		for _, m := range mems {
			m.ResetCounters()
		}
		if _, err := b.Backup(bg, data); err != nil {
			t.Fatalf("Backup(%d): %v", i, err)
		}
		for j, m := range mems {
			if m.PutCalls() != 0 {
				t.Fatalf("backup %d: node %d served %d single Puts, want 0 (batching bypassed)", i, j, m.PutCalls())
			}
			if m.BatchPutCalls() > 1 {
				t.Fatalf("backup %d: node %d served %d PutMany frames, want ≤ 1", i, j, m.BatchPutCalls())
			}
		}
	}
	total := 0
	for _, m := range mems {
		total += m.Len()
	}
	if want := n * 3; total != want {
		t.Errorf("network holds %d parities after batched backup, want %d", total, want)
	}
}

// TestRepairCommitBatchesPerNode asserts the write half of the repair
// traffic shape: a repair round's parities arrive at a node as at most one
// XorPutMany frame — those it rebuilds from a companion it holds — and
// at most one PutMany frame — those the broker rebuilt — with zero
// single-block Put round-trips. A wiped node holds no companions, so the
// first round is the broker's; a later one may rebuild on the node over
// companions the first restored.
func TestRepairCommitBatchesPerNode(t *testing.T) {
	const (
		nodesCount = 5
		n          = 90
		blockSize  = 24
	)
	nodes := make([]NodeStore, nodesCount)
	mems := make([]*InMemoryNode, nodesCount)
	for i := range nodes {
		mems[i] = NewInMemoryNode()
		nodes[i] = mems[i]
	}
	b, err := NewBroker("erin", lattice.Params{Alpha: 3, S: 2, P: 5}, blockSize, nodes)
	if err != nil {
		t.Fatal(err)
	}
	buildBrokerSystem(t, b, n, 23)

	lost := mems[1].Len()
	if lost == 0 {
		t.Skip("placement put nothing on node 1 for this seed")
	}
	mems[1].blocks.Clear()
	for _, m := range mems {
		m.ResetCounters()
	}
	xor0, pair0 := repairCounters()
	stats, err := b.Repair(bg, entangle.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.ParityRepaired != lost {
		t.Fatalf("repaired %d parities, want %d", stats.ParityRepaired, lost)
	}
	for i, m := range mems {
		if m.PutCalls() != 0 {
			t.Errorf("node %d served %d single Puts during repair commit, want 0", i, m.PutCalls())
		}
		if m.BatchPutCalls() > stats.Rounds || m.XorPutCalls() > stats.Rounds {
			t.Errorf("node %d served %d PutMany and %d XorPutMany frames over %d rounds, want ≤ one of each per round",
				i, m.BatchPutCalls(), m.XorPutCalls(), stats.Rounds)
		}
	}
	xor1, pair1 := repairCounters()
	if onNode, byBroker := xor1-xor0, pair1-pair0; onNode+byBroker != int64(lost) || byBroker == 0 {
		t.Errorf("counted %d node and %d broker rebuilds of %d parities, want them to sum up with the first round the broker's", onNode, byBroker, lost)
	}
}
