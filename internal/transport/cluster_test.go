package transport

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"aecodes/internal/store"
)

// fakeClusterHandler records heartbeats and serves a fixed usage table.
type fakeClusterHandler struct {
	mu     sync.Mutex
	stats  []NodeStat
	usages map[string]TenantUsage
	err    error
}

func (h *fakeClusterHandler) NodeStat(stat NodeStat) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.err != nil {
		return h.err
	}
	h.stats = append(h.stats, stat)
	return nil
}

func (h *fakeClusterHandler) Usage(tenant string) ([]TenantUsage, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.err != nil {
		return nil, h.err
	}
	if tenant != "" {
		u, ok := h.usages[tenant]
		if !ok {
			return nil, nil
		}
		return []TenantUsage{u}, nil
	}
	out := make([]TenantUsage, 0, len(h.usages))
	for _, u := range h.usages {
		out = append(out, u)
	}
	return out, nil
}

func (h *fakeClusterHandler) last() (NodeStat, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.stats) == 0 {
		return NodeStat{}, false
	}
	return h.stats[len(h.stats)-1], true
}

func clusterTestServer(t *testing.T, h ClusterHandler) string {
	t.Helper()
	srv, err := NewServer(store.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	if h != nil {
		srv.SetClusterHandler(h)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr
}

func TestNodeStatRoundTrip(t *testing.T) {
	handler := &fakeClusterHandler{}
	addr := clusterTestServer(t, handler)
	client, err := DialPool(addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	stat := NodeStat{
		ID:        "node-1",
		Addr:      "10.0.0.1:7000",
		Capacity:  1 << 30,
		Used:      12345,
		Segments:  3,
		DeadBytes: 678,
		Tenants: []TenantUsage{
			{Tenant: "", Bytes: 100, Blocks: 2},
			{Tenant: "acme", Bytes: 9000, Blocks: 9},
		},
	}
	if err := client.NodeStat(context.Background(), stat); err != nil {
		t.Fatalf("NodeStat: %v", err)
	}
	got, ok := handler.last()
	if !ok {
		t.Fatal("handler saw no heartbeat")
	}
	if !reflect.DeepEqual(got, stat) {
		t.Fatalf("heartbeat mangled in transit:\n got %+v\nwant %+v", got, stat)
	}
}

func TestNodeStatWithoutHandlerRefused(t *testing.T) {
	addr := clusterTestServer(t, nil)
	client, err := DialPool(addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	err = client.NodeStat(context.Background(), NodeStat{ID: "n", Addr: "a"})
	if err == nil || !strings.Contains(err.Error(), "heartbeat") {
		t.Fatalf("want heartbeat refusal, got %v", err)
	}
	if _, err := client.Usage(context.Background(), ""); err == nil {
		t.Fatal("usage without handler must be refused")
	}
	// The refusals must not poison the connection for normal ops.
	if err := client.Put(context.Background(), "k", []byte("v")); err != nil {
		t.Fatalf("Put after refusal: %v", err)
	}
}

func TestUsageQuery(t *testing.T) {
	handler := &fakeClusterHandler{usages: map[string]TenantUsage{
		"acme": {Tenant: "acme", Bytes: 42, Blocks: 7},
		"beta": {Tenant: "beta", Bytes: 11, Blocks: 1},
	}}
	addr := clusterTestServer(t, handler)
	client, err := DialPool(addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	one, err := client.Usage(context.Background(), "acme")
	if err != nil {
		t.Fatalf("Usage(acme): %v", err)
	}
	if len(one) != 1 || one[0] != (TenantUsage{Tenant: "acme", Bytes: 42, Blocks: 7}) {
		t.Fatalf("Usage(acme) = %+v", one)
	}
	all, err := client.Usage(context.Background(), "")
	if err != nil {
		t.Fatalf("Usage(all): %v", err)
	}
	if len(all) != 2 {
		t.Fatalf("Usage(all) = %+v, want 2 entries", all)
	}
	missing, err := client.Usage(context.Background(), "ghost")
	if err != nil {
		t.Fatalf("Usage(ghost): %v", err)
	}
	if len(missing) != 0 {
		t.Fatalf("Usage(ghost) = %+v, want empty", missing)
	}
}

func TestClusterOpsOverPool(t *testing.T) {
	handler := &fakeClusterHandler{usages: map[string]TenantUsage{
		"acme": {Tenant: "acme", Bytes: 5, Blocks: 1},
	}}
	addr := clusterTestServer(t, handler)
	pool, err := DialPool(addr, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	if err := pool.NodeStat(context.Background(), NodeStat{ID: "n", Addr: addr}); err != nil {
		t.Fatalf("pool NodeStat: %v", err)
	}
	got, err := pool.Usage(context.Background(), "acme")
	if err != nil {
		t.Fatalf("pool Usage: %v", err)
	}
	if len(got) != 1 || got[0].Bytes != 5 {
		t.Fatalf("pool Usage = %+v", got)
	}
}

func TestClusterHandlerErrorsTravelTyped(t *testing.T) {
	handler := &fakeClusterHandler{err: store.ErrQuotaExceeded}
	addr := clusterTestServer(t, handler)
	client, err := DialPool(addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	err = client.NodeStat(context.Background(), NodeStat{ID: "n", Addr: "a"})
	if !errors.Is(err, store.ErrQuotaExceeded) {
		t.Fatalf("want typed quota error, got %v", err)
	}
}

func TestNodeStatCodecRejectsMalformed(t *testing.T) {
	good, err := EncodeNodeStat(NodeStat{ID: "n", Addr: "a:1", Capacity: 1,
		Tenants: []TenantUsage{{Tenant: "t", Bytes: 1, Blocks: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		id      string
		payload []byte
	}{
		{"empty id", "", good},
		{"empty payload", "n", nil},
		{"bad version", "n", append([]byte{99}, good[1:]...)},
		{"truncated", "n", good[:len(good)-1]},
		{"trailing", "n", append(append([]byte{}, good...), 0)},
	}
	for _, tc := range cases {
		if _, err := DecodeNodeStat(tc.id, tc.payload); err == nil {
			t.Errorf("%s: decode accepted malformed heartbeat", tc.name)
		}
	}
	if _, err := EncodeNodeStat(NodeStat{ID: "n", Used: -1}); err == nil {
		t.Error("encode accepted negative counter")
	}
	if _, err := encodeUsages([]TenantUsage{{Tenant: "t", Bytes: -1}}); err == nil {
		t.Error("encode accepted negative usage")
	}
}
