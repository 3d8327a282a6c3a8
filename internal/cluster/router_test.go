package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"aecodes/internal/cooperative"
	"aecodes/internal/lattice"
	"aecodes/internal/transport"
)

var bgCtx = context.Background()

// managerHarness is a live manager reachable over TCP plus its fake
// clock and a dial hook mapping fake node addresses to in-memory nodes.
type managerHarness struct {
	m     *Manager
	clk   *fakeClock
	addr  string
	mu    sync.Mutex
	nodes map[string]*cooperative.InMemoryNode
	dials map[string]int
}

func newManagerHarness(t *testing.T) *managerHarness {
	t.Helper()
	clk := newFakeClock()
	m := newTestManager(t, clk, "")
	srv, err := transport.NewServer(m.Store())
	if err != nil {
		t.Fatal(err)
	}
	srv.SetClusterHandler(m)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return &managerHarness{
		m:     m,
		clk:   clk,
		addr:  addr,
		nodes: make(map[string]*cooperative.InMemoryNode),
		dials: make(map[string]int),
	}
}

// addNode registers an in-memory node with the manager (direct
// heartbeat — membership does not need TCP here).
func (h *managerHarness) addNode(t *testing.T, id string) {
	t.Helper()
	h.mu.Lock()
	h.nodes["addr-"+id] = cooperative.NewInMemoryNode()
	h.mu.Unlock()
	beat(t, h.m, id, 0, 0)
}

// dial is the Router's test dial hook.
func (h *managerHarness) dial(addr string) (cooperative.NodeStore, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.dials[addr]++
	n, ok := h.nodes[addr]
	if !ok {
		return nil, fmt.Errorf("no such node %s", addr)
	}
	return n, nil
}

func (h *managerHarness) newRouter(t *testing.T, user string, volumeBlocks int) *Router {
	t.Helper()
	r, err := NewRouter(h.addr, RouterOptions{User: user, VolumeBlocks: volumeBlocks, Dial: h.dial})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

func TestVolumeID(t *testing.T) {
	cases := []struct {
		pos  int
		want string
	}{
		{1, "alice/0"}, {8, "alice/0"}, {9, "alice/1"}, {64, "alice/7"},
		{0, "alice/0"}, {-2, "alice/0"}, // virtual strand seeds fold into stripe 0
	}
	for _, c := range cases {
		if got := VolumeID("alice", 8, c.pos); got != c.want {
			t.Errorf("VolumeID(alice, 8, %d) = %q, want %q", c.pos, got, c.want)
		}
	}
}

// TestRouterGroupIsTheVolume: the group the router reports to the broker
// names the volume Route answers with, for every position — virtual
// seeds included — so routing once per group is routing once per volume.
func TestRouterGroupIsTheVolume(t *testing.T) {
	h := newManagerHarness(t)
	h.addNode(t, "n1")
	r := h.newRouter(t, "alice", 8)
	for pos := -4; pos <= 40; pos++ {
		e := lattice.Edge{Class: lattice.RightHanded, Left: pos, Right: pos + 3}
		_, vol, err := r.Route(bgCtx, "k", e)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("alice/%d", r.Group(e)); vol != want {
			t.Fatalf("position %d: Route names volume %q, Group %d", pos, vol, r.Group(e))
		}
	}
}

func TestRouterResolvesCachesAndRedirects(t *testing.T) {
	h := newManagerHarness(t)
	h.addNode(t, "n1")
	h.addNode(t, "n2")
	r := h.newRouter(t, "alice", 8)

	// Before any traffic the cache is empty: lookups are ErrStale
	// redirects to the manager.
	if _, err := r.cachedAddr("alice/0"); !errors.Is(err, ErrStale) {
		t.Fatalf("empty-cache lookup: %v, want ErrStale", err)
	}

	e := lattice.Edge{Class: lattice.Horizontal, Left: 1, Right: 2}
	ns, group, err := r.Route(bgCtx, "alice-p-1-2-h", e)
	if err != nil {
		t.Fatal(err)
	}
	if group != "alice/0" {
		t.Fatalf("group = %q, want alice/0", group)
	}
	if ns == nil {
		t.Fatal("nil node store")
	}
	if r.Epoch() == 0 {
		t.Error("route fetch left cached epoch at 0")
	}

	// Same volume again: served from cache, no second dial.
	for i := 0; i < 5; i++ {
		ns2, group2, err := r.Route(bgCtx, "alice-p-3-4-h", lattice.Edge{Left: 3, Right: 4})
		if err != nil {
			t.Fatal(err)
		}
		if ns2 != ns || group2 != group {
			t.Fatalf("cached route diverged: %v %q", ns2, group2)
		}
	}
	h.mu.Lock()
	total := 0
	for _, n := range h.dials {
		total += n
	}
	h.mu.Unlock()
	if total != 1 {
		t.Errorf("dialed %d times for one volume, want 1", total)
	}
}

func TestRouterInvalidateFollowsReplacement(t *testing.T) {
	h := newManagerHarness(t)
	h.addNode(t, "n1")
	h.addNode(t, "n2")
	r := h.newRouter(t, "bob", 8)

	e := lattice.Edge{Left: 1, Right: 2}
	_, vol, err := r.Route(bgCtx, "bob-p-1-2-h", e)
	if err != nil {
		t.Fatal(err)
	}
	ri, err := h.m.Route(vol)
	if err != nil {
		t.Fatal(err)
	}

	// A hint while the node is alive: nothing moves.
	moved, err := r.Invalidate(bgCtx, vol)
	if err != nil {
		t.Fatal(err)
	}
	if moved {
		t.Fatal("Invalidate moved a volume off a live node")
	}

	// The node dies (clock passes its TTL; the other keeps beating).
	survivor := "n1"
	if ri.Node == "n1" {
		survivor = "n2"
	}
	h.clk.Advance(11 * time.Second)
	beat(t, h.m, survivor, 0, 0)

	moved, err = r.Invalidate(bgCtx, vol)
	if err != nil {
		t.Fatal(err)
	}
	if !moved {
		t.Fatal("Invalidate did not report the re-placement")
	}
	ns, _, err := r.Route(bgCtx, "bob-p-1-2-h", e)
	if err != nil {
		t.Fatal(err)
	}
	h.mu.Lock()
	want := h.nodes["addr-"+survivor]
	h.mu.Unlock()
	if ns != want {
		t.Fatalf("post-invalidate route did not land on survivor %s", survivor)
	}
}

func TestRouterRefreshSwapsTable(t *testing.T) {
	h := newManagerHarness(t)
	h.addNode(t, "n1")
	for i := 0; i < 4; i++ {
		if _, err := h.m.Route(fmt.Sprintf("carol/%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	r := h.newRouter(t, "carol", 8)
	if err := r.Refresh(bgCtx); err != nil {
		t.Fatal(err)
	}
	if r.Epoch() != h.m.Epoch() {
		t.Fatalf("refreshed epoch = %d, want %d", r.Epoch(), h.m.Epoch())
	}
	for i := 0; i < 4; i++ {
		if addr, err := r.cachedAddr(fmt.Sprintf("carol/%d", i)); err != nil || addr != "addr-n1" {
			t.Fatalf("refreshed table missing carol/%d (%q, %v)", i, addr, err)
		}
	}
}

// TestBrokerOverClusterRouter is the package's end-to-end check below
// the TCP integration test: a cooperative broker whose only routing is
// the cluster manager's table backs up across multiple volumes on
// multiple nodes, loses a local block, and reads it back via repair.
func TestBrokerOverClusterRouter(t *testing.T) {
	const (
		n            = 40
		blockSize    = 32
		volumeBlocks = 8
	)
	h := newManagerHarness(t)
	for _, id := range []string{"n1", "n2", "n3"} {
		h.addNode(t, id)
	}
	r := h.newRouter(t, "alice", volumeBlocks)
	b, err := cooperative.NewRoutedBroker("alice", lattice.Params{Alpha: 3, S: 2, P: 5}, blockSize, r)
	if err != nil {
		t.Fatal(err)
	}
	originals := make([][]byte, n+1)
	for i := 1; i <= n; i++ {
		data := make([]byte, blockSize)
		for j := range data {
			data[j] = byte(i + j)
		}
		originals[i] = data
		if _, err := b.Backup(bgCtx, data); err != nil {
			t.Fatalf("Backup(%d): %v", i, err)
		}
	}

	// The backups must have sharded: several volumes, more than one node.
	table := h.m.TableSnapshot()
	if len(table.Routes) < 2 {
		t.Fatalf("backups created %d volumes, want ≥ 2: %v", len(table.Routes), table.Routes)
	}
	addrs := make(map[string]bool)
	for _, addr := range table.Routes {
		addrs[addr] = true
	}
	if len(addrs) < 2 {
		t.Fatalf("all %d volumes on one node: %v", len(table.Routes), table.Routes)
	}
	stored := 0
	h.mu.Lock()
	for _, node := range h.nodes {
		stored += node.Len()
	}
	h.mu.Unlock()
	if want := n * 3; stored != want {
		t.Fatalf("fleet holds %d parities, want %d", stored, want)
	}

	// Lose local data; Read must regenerate from the fleet's parities.
	b.DropLocal(7)
	got, err := b.Read(bgCtx, 7)
	if err != nil {
		t.Fatalf("Read(7) after drop: %v", err)
	}
	if string(got) != string(originals[7]) {
		t.Fatal("repaired block diverges from original")
	}
}

// refusingNode is a node handle whose tenant handshake always fails.
type refusingNode struct {
	*cooperative.InMemoryNode
	closed bool
}

func (n *refusingNode) Hello(ctx context.Context, tenant string) error {
	return errors.New("handshake refused")
}

func (n *refusingNode) Close() error {
	n.closed = true
	return nil
}

// TestRouterCredentialCoversLateDials pins the credential on the custom
// Dial path: SetCredential reaches the nodes already dialed, a node first
// dialed afterwards is handshaked before Route hands it out, and a node
// refusing that handshake is closed and fails the route — a credentialed
// broker never writes into the anonymous namespace.
func TestRouterCredentialCoversLateDials(t *testing.T) {
	h := newManagerHarness(t)
	h.addNode(t, "n1")
	h.addNode(t, "n2")
	r := h.newRouter(t, "alice", 8)
	route := func(pos int) cooperative.NodeStore {
		t.Helper()
		ns, _, err := r.Route(bgCtx, "k", lattice.Edge{Class: lattice.Horizontal, Left: pos, Right: pos + 1})
		if err != nil {
			t.Fatal(err)
		}
		return ns
	}
	early := route(1)
	if err := r.SetCredential(bgCtx, "acme", ""); err != nil {
		t.Fatal(err)
	}
	if got := early.(*cooperative.InMemoryNode).Tenant(); got != "acme" {
		t.Errorf("node dialed before SetCredential serves tenant %q, want acme", got)
	}
	late := early
	for pos := 9; late == early && pos < 64*8; pos += 8 {
		late = route(pos)
	}
	if late == early {
		t.Fatal("every volume landed on one node")
	}
	if got := late.(*cooperative.InMemoryNode).Tenant(); got != "acme" {
		t.Errorf("node dialed after SetCredential serves tenant %q, want acme", got)
	}

	refuser := &refusingNode{InMemoryNode: cooperative.NewInMemoryNode()}
	rr, err := NewRouter(h.addr, RouterOptions{User: "bob", Tenant: "acme",
		Dial: func(string) (cooperative.NodeStore, error) { return refuser, nil }})
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Close()
	if _, _, err := rr.Route(bgCtx, "k", lattice.Edge{Class: lattice.Horizontal, Left: 1, Right: 2}); err == nil {
		t.Error("Route handed out a node that refused the handshake")
	}
	if !refuser.closed {
		t.Error("the handle that refused the handshake was not closed")
	}
}
