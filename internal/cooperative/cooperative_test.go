package cooperative

import (
	"bytes"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"aecodes/internal/entangle"
	"aecodes/internal/lattice"
)

var testParams = lattice.Params{Alpha: 3, S: 2, P: 5}

const testBlockSize = 32

// flatIndex resolves a parity's node ordinal through the broker's flat
// router.
func flatIndex(t *testing.T, b *Broker, key string, e lattice.Edge) int {
	t.Helper()
	_, gid, err := b.router.Route(bg, key, e)
	if err != nil {
		t.Fatalf("routing %s: %v", key, err)
	}
	idx, err := strconv.Atoi(gid)
	if err != nil {
		t.Fatalf("flat route group %q is not a node ordinal: %v", gid, err)
	}
	return idx
}

// newNetwork returns n in-memory storage nodes.
func newNetwork(n int) ([]NodeStore, []*InMemoryNode) {
	nodes := make([]NodeStore, n)
	mems := make([]*InMemoryNode, n)
	for i := range nodes {
		mems[i] = NewInMemoryNode()
		nodes[i] = mems[i]
	}
	return nodes, mems
}

func newBroker(t *testing.T, nodes []NodeStore) *Broker {
	t.Helper()
	b, err := NewBroker("alice", testParams, testBlockSize, nodes)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// backupRandom backs up n random blocks and returns the originals (1-based).
func backupRandom(t *testing.T, b *Broker, n int, seed int64) [][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	originals := make([][]byte, n+1)
	for i := 1; i <= n; i++ {
		data := make([]byte, testBlockSize)
		rng.Read(data)
		originals[i] = data
		pos, err := b.Backup(bg, data)
		if err != nil {
			t.Fatalf("Backup(%d): %v", i, err)
		}
		if pos != i {
			t.Fatalf("Backup assigned position %d, want %d", pos, i)
		}
	}
	return originals
}

func TestNewBrokerValidation(t *testing.T) {
	nodes, _ := newNetwork(3)
	if _, err := NewBroker("", testParams, 16, nodes); err == nil {
		t.Error("accepted empty user")
	}
	if _, err := NewBroker("u", testParams, 16, nil); err == nil {
		t.Error("accepted empty network")
	}
	if _, err := NewBroker("u", lattice.Params{Alpha: 7}, 16, nodes); err == nil {
		t.Error("accepted invalid params")
	}
	if _, err := NewBroker("u", testParams, 0, nodes); err == nil {
		t.Error("accepted zero block size")
	}
}

func TestBackupSpreadsParities(t *testing.T) {
	nodes, mems := newNetwork(10)
	b := newBroker(t, nodes)
	backupRandom(t, b, 50, 1)
	total := 0
	busy := 0
	for _, m := range mems {
		total += m.Len()
		if m.Len() > 0 {
			busy++
		}
	}
	if total != 50*testParams.Alpha {
		t.Errorf("network holds %d parities, want %d", total, 50*testParams.Alpha)
	}
	if busy < 8 {
		t.Errorf("parities landed on only %d/10 nodes", busy)
	}
}

func TestReadFailureFreeIsLocal(t *testing.T) {
	nodes, mems := newNetwork(5)
	b := newBroker(t, nodes)
	originals := backupRandom(t, b, 20, 2)
	// Take the whole network down: local reads must still succeed
	// ("in a failure-free environment, users can access their data
	// directly from their local computers").
	for _, m := range mems {
		m.SetDown(true)
	}
	for i := 1; i <= 20; i++ {
		got, err := b.Read(bg, i)
		if err != nil {
			t.Fatalf("Read(%d): %v", i, err)
		}
		if !bytes.Equal(got, originals[i]) {
			t.Errorf("Read(%d) mismatch", i)
		}
	}
}

func TestReadDecodesAfterLocalLoss(t *testing.T) {
	nodes, _ := newNetwork(5)
	b := newBroker(t, nodes)
	originals := backupRandom(t, b, 30, 3)
	b.DropLocal(7, 8, 15)
	for _, i := range []int{7, 8, 15} {
		got, err := b.Read(bg, i)
		if err != nil {
			t.Fatalf("Read(%d) after local loss: %v", i, err)
		}
		if !bytes.Equal(got, originals[i]) {
			t.Errorf("Read(%d) decoded wrong content", i)
		}
	}
}

func TestReadTotalLocalLoss(t *testing.T) {
	// The user's machine dies entirely; every block is decoded from the
	// remote parities (multi-round where needed).
	nodes, _ := newNetwork(8)
	b := newBroker(t, nodes)
	originals := backupRandom(t, b, 40, 4)
	b.DropLocal()
	for i := 1; i <= 40; i++ {
		got, err := b.Read(bg, i)
		if err != nil {
			t.Fatalf("Read(%d) after total loss: %v", i, err)
		}
		if !bytes.Equal(got, originals[i]) {
			t.Errorf("Read(%d) mismatch", i)
		}
	}
}

func TestReadValidation(t *testing.T) {
	nodes, _ := newNetwork(3)
	b := newBroker(t, nodes)
	backupRandom(t, b, 5, 5)
	if _, err := b.Read(bg, 0); err == nil {
		t.Error("Read(0) succeeded")
	}
	if _, err := b.Read(bg, 6); err == nil {
		t.Error("Read past count succeeded")
	}
}

func TestRepairParityTableIIIFlow(t *testing.T) {
	nodes, mems := newNetwork(6)
	b := newBroker(t, nodes)
	backupRandom(t, b, 30, 6)

	// Pick a concrete parity, wipe it from its node, regenerate.
	lat := b.rep.Lattice()
	e, err := lat.OutEdge(lattice.Horizontal, 10)
	if err != nil {
		t.Fatal(err)
	}
	key := b.parityKey(e)
	idx := flatIndex(t, b, key, e)
	before, err := mems[idx].Get(bg, key)
	if err != nil {
		t.Fatalf("parity %s not on its node: %v", key, err)
	}
	mems[idx].SetDown(true)
	// While the node is down the parity is unavailable; repair it from the
	// dp-tuple and store it... the placement still routes to the down node,
	// so bring it back first (recovered hardware) after deleting content.
	mems[idx].SetDown(false)
	mems[idx].blocks = map[string][]byte{}
	gotGroup, err := b.RepairParity(bg, e)
	if err != nil {
		t.Fatalf("RepairParity: %v", err)
	}
	if gotGroup != strconv.Itoa(idx) {
		t.Errorf("repaired parity stored on group %s, want node %d", gotGroup, idx)
	}
	after, err := mems[idx].Get(bg, key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("regenerated parity differs from the original")
	}
}

func TestRepairLatticeAfterNodeWipe(t *testing.T) {
	nodes, mems := newNetwork(7)
	b := newBroker(t, nodes)
	backupRandom(t, b, 60, 7)

	// Permanently wipe one node's content (disk loss) while it stays
	// reachable: its parities must be regenerated onto it.
	lost := mems[3].Len()
	mems[3].blocks = map[string][]byte{}
	if lost == 0 {
		t.Skip("placement put nothing on node 3 for this seed")
	}
	stats, err := b.Repair(bg, entangle.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.ParityRepaired != lost {
		t.Errorf("repaired %d parities, want %d", stats.ParityRepaired, lost)
	}
	if mems[3].Len() != lost {
		t.Errorf("node 3 holds %d blocks after repair, want %d", mems[3].Len(), lost)
	}
	if len(stats.UnrepairedParities) != 0 {
		t.Errorf("unrepaired parities: %v", stats.UnrepairedParities)
	}
}

func TestBrokerCrashRecovery(t *testing.T) {
	nodes, _ := newNetwork(5)
	rng := rand.New(rand.NewSource(8))
	blocks := make([][]byte, 45)
	for i := range blocks {
		blocks[i] = make([]byte, testBlockSize)
		rng.Read(blocks[i])
	}

	// Reference broker encodes everything without crashing.
	ref := newBroker(t, nodes)
	refKeys := make(map[int][3]string)
	for bi, data := range blocks {
		pos, err := ref.Backup(bg, data)
		if err != nil {
			t.Fatal(err)
		}
		_ = bi
		lat := ref.rep.Lattice()
		var keys [3]string
		for ci, class := range lat.Classes() {
			e, err := lat.OutEdge(class, pos)
			if err != nil {
				t.Fatal(err)
			}
			keys[ci] = ref.parityKey(e)
		}
		refKeys[pos] = keys
	}

	// Crash-and-recover broker on a separate network and user.
	nodes2, _ := newNetwork(5)
	first, err := NewBroker("bob", testParams, testBlockSize, nodes2)
	if err != nil {
		t.Fatal(err)
	}
	localCopy := make(map[int][]byte)
	for i, data := range blocks[:25] {
		if _, err := first.Backup(bg, data); err != nil {
			t.Fatal(err)
		}
		cp := make([]byte, len(data))
		copy(cp, data)
		localCopy[i+1] = cp
	}
	// The first broker process dies here. A fresh broker recovers state
	// from the network and the surviving local data.
	second, err := NewBroker("bob", testParams, testBlockSize, nodes2)
	if err != nil {
		t.Fatal(err)
	}
	if err := second.RecoverState(bg, RecoverOptions{Count: 25, Local: localCopy}); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	for _, data := range blocks[25:] {
		if _, err := second.Backup(bg, data); err != nil {
			t.Fatal(err)
		}
	}
	// Every parity bob produced must byte-match alice's reference lattice
	// (same parameters, same data sequence ⇒ same parities).
	lat := second.rep.Lattice()
	for pos := 26; pos <= 45; pos++ {
		for _, class := range lat.Classes() {
			e, err := lat.OutEdge(class, pos)
			if err != nil {
				t.Fatal(err)
			}
			bobKey := second.parityKey(e)
			bobNode, _, err := second.router.Route(bg, bobKey, e)
			if err != nil {
				t.Fatalf("routing bob's parity %s: %v", bobKey, err)
			}
			bobParity, err := bobNode.Get(bg, bobKey)
			if err != nil {
				t.Fatalf("bob's parity %s missing: %v", bobKey, err)
			}
			aliceKey := ref.parityKey(e)
			aliceNode, _, err := ref.router.Route(bg, aliceKey, e)
			if err != nil {
				t.Fatalf("routing alice's parity %s: %v", aliceKey, err)
			}
			aliceParity, err := aliceNode.Get(bg, aliceKey)
			if err != nil {
				t.Fatalf("alice's parity %s missing: %v", aliceKey, err)
			}
			if !bytes.Equal(bobParity, aliceParity) {
				t.Fatalf("parity %v diverged after crash recovery", e)
			}
		}
	}
}

func TestBackupStream(t *testing.T) {
	nodes, _ := newNetwork(4)
	b := newBroker(t, nodes)
	payload := strings.Repeat("helical lattice! ", 20) // 340 bytes
	positions, n, err := b.BackupStream(bg, strings.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(payload)) {
		t.Errorf("read %d bytes, want %d", n, len(payload))
	}
	wantBlocks := (len(payload) + testBlockSize - 1) / testBlockSize
	if len(positions) != wantBlocks {
		t.Errorf("stored %d blocks, want %d", len(positions), wantBlocks)
	}
	// Reassemble.
	var sb bytes.Buffer
	for _, pos := range positions {
		block, err := b.Read(bg, pos)
		if err != nil {
			t.Fatal(err)
		}
		sb.Write(block)
	}
	got := sb.Bytes()[:len(payload)]
	if string(got) != payload {
		t.Error("stream round trip mismatch")
	}
}

func TestMultipleLatticesCoexist(t *testing.T) {
	// "multiple lattices coexist in the system" — two users share nodes
	// without key collisions.
	nodes, mems := newNetwork(4)
	alice, err := NewBroker("alice", testParams, testBlockSize, nodes)
	if err != nil {
		t.Fatal(err)
	}
	bob, err := NewBroker("bob", testParams, testBlockSize, nodes)
	if err != nil {
		t.Fatal(err)
	}
	aData := backupRandomBroker(t, alice, 20, 10)
	bData := backupRandomBroker(t, bob, 20, 11)
	total := 0
	for _, m := range mems {
		total += m.Len()
	}
	if total != 2*20*testParams.Alpha {
		t.Errorf("network holds %d blocks, want %d", total, 2*20*testParams.Alpha)
	}
	alice.DropLocal()
	bob.DropLocal()
	for i := 1; i <= 20; i++ {
		ga, err := alice.Read(bg, i)
		if err != nil {
			t.Fatal(err)
		}
		gb, err := bob.Read(bg, i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ga, aData[i]) || !bytes.Equal(gb, bData[i]) {
			t.Fatalf("cross-user corruption at block %d", i)
		}
	}
}

func backupRandomBroker(t *testing.T, b *Broker, n int, seed int64) [][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	originals := make([][]byte, n+1)
	for i := 1; i <= n; i++ {
		data := make([]byte, b.BlockSize())
		rng.Read(data)
		originals[i] = data
		if _, err := b.Backup(bg, data); err != nil {
			t.Fatal(err)
		}
	}
	return originals
}

func TestInMemoryNodeDown(t *testing.T) {
	n := NewInMemoryNode()
	if err := n.Put(bg, "k", []byte{1}); err != nil {
		t.Fatal(err)
	}
	n.SetDown(true)
	if _, err := n.Get(bg, "k"); err == nil {
		t.Error("Get succeeded on a down node")
	}
	if err := n.Put(bg, "k2", nil); err == nil {
		t.Error("Put succeeded on a down node")
	}
	n.SetDown(false)
	if _, err := n.Get(bg, "k"); err != nil {
		t.Errorf("content lost across downtime: %v", err)
	}
}

func TestBackupValidatesSize(t *testing.T) {
	nodes, _ := newNetwork(2)
	b := newBroker(t, nodes)
	if _, err := b.Backup(bg, make([]byte, 5)); err == nil {
		t.Error("Backup accepted wrong-size block")
	}
}

func TestRecoverValidation(t *testing.T) {
	nodes, _ := newNetwork(2)
	b := newBroker(t, nodes)
	if err := b.RecoverState(bg, RecoverOptions{Count: -1}); err == nil {
		t.Error("Recover accepted negative count")
	}
}

// TestSetCredentialIsAllOrNothing pins the credential announcement over
// the flat router: every node is handshaked, and when node k refuses,
// nodes 0..k-1 roll back to the previous credential and the broker keeps
// it — the lattice is never split across namespaces.
func TestSetCredentialIsAllOrNothing(t *testing.T) {
	nodes, mems := newNetwork(3)
	b := newBroker(t, nodes)
	tenants := func() string {
		return mems[0].Tenant() + "," + mems[1].Tenant() + "," + mems[2].Tenant()
	}
	if err := b.SetCredential(bg, "first"); err != nil {
		t.Fatal(err)
	}
	if got := tenants(); got != "first,first,first" || b.Tenant() != "first" {
		t.Fatalf("after SetCredential(first): nodes %s, broker %q", got, b.Tenant())
	}
	mems[2].SetDown(true) // the last node refuses the handshake
	if err := b.SetCredential(bg, "second"); err == nil {
		t.Fatal("SetCredential succeeded with a node refusing")
	}
	if got := tenants(); got != "first,first,first" || b.Tenant() != "first" {
		t.Errorf("after a refused SetCredential(second): nodes %s, broker %q; want the previous credential everywhere", got, b.Tenant())
	}
}
