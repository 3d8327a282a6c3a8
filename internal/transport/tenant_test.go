package transport

import (
	"context"
	"errors"
	"testing"
	"time"

	"aecodes/internal/store"
	"aecodes/internal/tenant"
)

// startTenantServer boots a server over a tenant registry wrapping a
// fresh store.Mem and returns the address, the registry and the backing.
func startTenantServer(t *testing.T, cfg tenant.Config) (string, *tenant.Registry, *store.Mem) {
	t.Helper()
	backing := store.NewMem()
	reg, err := tenant.NewRegistry(backing, cfg)
	if err != nil {
		t.Fatal(err)
	}
	anon, err := reg.Open(tenant.Anonymous)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(anon)
	if err != nil {
		t.Fatal(err)
	}
	srv.SetTenantResolver(func(id string) (store.Keyed, error) { return reg.Open(id) })
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr, reg, backing
}

// TestHelloTenantIsolation pins the handshake end to end: two
// handshaked clients and one anonymous client write the same key over
// one node and each reads back its own block; the backing store carries
// the namespaced keys.
func TestHelloTenantIsolation(t *testing.T) {
	addr, _, backing := startTenantServer(t, tenant.Config{})
	ctx := context.Background()

	dial := func(tenantID string) *PoolClient {
		c, err := DialPoolOptions(addr, 1, PoolOptions{Tenant: tenantID})
		if err != nil {
			t.Fatalf("dialing as %q: %v", tenantID, err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	alice := dial("alice")
	bob := dial("bob")
	anon := dial("")

	for _, tc := range []struct {
		c    *PoolClient
		body string
	}{{alice, "from-alice"}, {bob, "from-bob"}, {anon, "from-anon"}} {
		if err := tc.c.Put(ctx, "k", []byte(tc.body)); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		c    *PoolClient
		want string
	}{{alice, "from-alice"}, {bob, "from-bob"}, {anon, "from-anon"}} {
		got, err := tc.c.Get(ctx, "k")
		if err != nil || string(got) != tc.want {
			t.Errorf("read %q (err %v), want %q", got, err, tc.want)
		}
	}
	if b, ok := backing.Get(tenant.Prefix + "alice/k"); !ok || string(b) != "from-alice" {
		t.Errorf("backing key for alice = %q (ok=%v)", b, ok)
	}
	if b, ok := backing.Get("k"); !ok || string(b) != "from-anon" {
		t.Errorf("anonymous raw key = %q (ok=%v)", b, ok)
	}
	// Batch ops follow the connection's tenant too.
	if err := alice.PutMany(ctx, []KV{{Key: "b1", Data: []byte("x")}}); err != nil {
		t.Fatal(err)
	}
	if got, err := bob.GetMany(ctx, []string{"b1"}); err != nil || got[0] != nil {
		t.Errorf("bob sees alice's batch block: %q (err %v)", got[0], err)
	}
	if got, err := alice.GetMany(ctx, []string{"b1"}); err != nil || string(got[0]) != "x" {
		t.Errorf("alice's batch block = %q (err %v)", got[0], err)
	}
}

// TestHelloVersionGate pins the version gate and the single-tenant
// fallback: a bad version is refused, an unknown op (what an old server
// answers) is an error, an anonymous hello against a resolver-less node
// succeeds, a named one is refused.
func TestHelloVersionGate(t *testing.T) {
	srv, err := NewServer(store.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	c := dial(t, addr)
	pc, err := c.pick() // the pool's one connection, for raw handshakes
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := helloConn(pc, ""); err != nil {
		t.Errorf("anonymous hello against a single-tenant node = %v, want nil", err)
	}
	if err := helloConn(pc, "alice"); err == nil {
		t.Error("named hello against a single-tenant node succeeded")
	}
	// A wrong version must be refused even where the tenant would be fine.
	status, payload, err := pc.roundTrip(ctx, OpHello, "", []byte{HelloVersion + 1})
	if err != nil {
		t.Fatal(err)
	}
	if status != StatusError {
		t.Errorf("v%d handshake got status %d (%q), want StatusError", HelloVersion+1, status, payload)
	}
	// The connection survives refused handshakes.
	if err := c.Put(ctx, "still", []byte("alive")); err != nil {
		t.Errorf("connection dead after refused handshake: %v", err)
	}
}

// TestQuotaStatusOverWire pins the typed quota refusal end to end: an
// over-quota Put and PutMany both come back as store.ErrQuotaExceeded,
// and — being remote errors, not connection faults — leave every pooled
// connection usable.
func TestQuotaStatusOverWire(t *testing.T) {
	addr, _, _ := startTenantServer(t, tenant.Config{
		Tenants: map[string]tenant.Quota{"alice": {MaxBytes: 64}},
	})
	ctx := context.Background()

	pool, err := DialPoolOptions(addr, 2, PoolOptions{Tenant: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if err := pool.Put(ctx, "fits", make([]byte, 40)); err != nil {
		t.Fatal(err)
	}
	err = pool.Put(ctx, "big", make([]byte, 40))
	if !errors.Is(err, store.ErrQuotaExceeded) {
		t.Fatalf("over-quota Put over wire = %v, want ErrQuotaExceeded", err)
	}
	err = pool.PutMany(ctx, []KV{{Key: "b", Data: make([]byte, 40)}})
	if !errors.Is(err, store.ErrQuotaExceeded) {
		t.Fatalf("over-quota PutMany over wire = %v, want ErrQuotaExceeded", err)
	}
	if got, err := pool.Get(ctx, "fits"); err != nil || len(got) != 40 {
		t.Errorf("connection unusable after quota refusal: %v", err)
	}
	if pool.Live() != 2 {
		t.Errorf("quota refusal poisoned pool connections: %d live, want 2", pool.Live())
	}
}

// TestStatManyOverWire pins the presence-only op inside a handshaked
// tenant's namespace.
func TestStatManyOverWire(t *testing.T) {
	addr, _, _ := startTenantServer(t, tenant.Config{})
	ctx := context.Background()

	pool, err := DialPoolOptions(addr, 2, PoolOptions{Tenant: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if err := pool.Put(ctx, "held", []byte("x")); err != nil {
		t.Fatal(err)
	}
	flags, err := pool.StatMany(ctx, []string{"held", "absent", "held"})
	if err != nil {
		t.Fatal(err)
	}
	if !flags[0] || flags[1] || !flags[2] {
		t.Errorf("pool StatMany = %v, want [true false true]", flags)
	}

	// A different tenant's view holds nothing under the same keys.
	c, err := DialPoolOptions(addr, 1, PoolOptions{Tenant: "bob"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	flags, err = c.StatMany(ctx, []string{"held"})
	if err != nil {
		t.Fatal(err)
	}
	if flags[0] {
		t.Error("bob's StatMany sees alice's block")
	}
	if _, err := c.StatMany(ctx, nil); err != nil {
		t.Errorf("empty StatMany: %v", err)
	}
}

// TestPoolRedialRehandshakes pins the pool's credential persistence: a
// node restart kills every pooled connection, and the background redials
// must re-handshake before rejoining rotation — a healed pool keeps
// writing into the same tenant namespace.
func TestPoolRedialRehandshakes(t *testing.T) {
	backing := store.NewMem()
	newSrv := func(addr string) (*Server, string) {
		reg, err := tenant.NewRegistry(backing, tenant.Config{})
		if err != nil {
			t.Fatal(err)
		}
		anon, err := reg.Open(tenant.Anonymous)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewServer(anon)
		if err != nil {
			t.Fatal(err)
		}
		srv.SetTenantResolver(func(id string) (store.Keyed, error) { return reg.Open(id) })
		bound, err := srv.Listen(addr)
		if err != nil {
			t.Fatal(err)
		}
		return srv, bound
	}
	srv, addr := newSrv("127.0.0.1:0")

	pool, err := DialPoolOptions(addr, 2, PoolOptions{
		Tenant:        "alice",
		RedialBackoff: 2 * time.Millisecond,
		RedialMax:     50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	ctx := context.Background()
	if err := pool.Put(ctx, "before", []byte("x")); err != nil {
		t.Fatal(err)
	}

	// Restart the node on the same address: every pooled conn dies.
	srv.Close()
	srv2, _ := newSrv(addr)
	t.Cleanup(func() { srv2.Close() })

	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := pool.Put(ctx, "after", []byte("y")); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("pool never healed to the restarted node")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The post-restart write went through a redialed — and therefore
	// re-handshaked — connection: it must live in alice's namespace.
	if _, ok := backing.Get(tenant.Prefix + "alice/after"); !ok {
		t.Fatal("redialed connection wrote outside the tenant namespace (handshake lost across redial)")
	}
	if got, err := pool.Get(ctx, "before"); err != nil || string(got) != "x" {
		t.Errorf("pre-restart block unreadable after heal: %q (err %v)", got, err)
	}
}

// TestPoolHelloSwitchesLiveConns pins PoolClient.Hello: live connections
// handshake in place and later writes land in the new namespace.
func TestPoolHelloSwitchesLiveConns(t *testing.T) {
	addr, _, backing := startTenantServer(t, tenant.Config{})
	pool, err := DialPool(addr, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	ctx := context.Background()
	if err := pool.Put(ctx, "pre", []byte("raw")); err != nil {
		t.Fatal(err)
	}
	if err := pool.Hello(ctx, "carol"); err != nil {
		t.Fatal(err)
	}
	if err := pool.Put(ctx, "post", []byte("ns")); err != nil {
		t.Fatal(err)
	}
	if _, ok := backing.Get("pre"); !ok {
		t.Error("pre-credential write missing from the raw keyspace")
	}
	if _, ok := backing.Get(tenant.Prefix + "carol/post"); !ok {
		t.Error("post-credential write missing from carol's namespace")
	}
}
