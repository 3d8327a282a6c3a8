package tenant_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aecodes/internal/segstore"
	"aecodes/internal/store"
	"aecodes/internal/store/storetest"
	"aecodes/internal/tenant"
)

func TestValidateID(t *testing.T) {
	valid := []string{"", "alice", "a", "bob-2", "x.y_z", "0numeric", "a" + strings.Repeat("b", 63)}
	for _, id := range valid {
		if err := tenant.ValidateID(id); err != nil {
			t.Errorf("ValidateID(%q) = %v, want nil", id, err)
		}
	}
	invalid := []string{
		"Alice",                       // uppercase
		"a/b",                         // separator: would escape the namespace
		"!alice",                      // reserved marker
		".hidden",                     // leading punctuation
		"-dash",                       // leading punctuation
		"a b",                         // space
		"a" + strings.Repeat("b", 64), // too long
		"naïve",                       // non-ASCII
	}
	for _, id := range invalid {
		if err := tenant.ValidateID(id); err == nil {
			t.Errorf("ValidateID(%q) accepted an invalid id", id)
		}
	}
}

// openTenant is a test helper returning a tenant's view.
func openTenant(t *testing.T, reg *tenant.Registry, id string) *tenant.Store {
	t.Helper()
	h, err := reg.Open(id)
	if err != nil {
		t.Fatalf("Open(%q): %v", id, err)
	}
	return h
}

// TestNamespaceIsolation pins the keying scheme: tenants cannot see each
// other's blocks, the anonymous tenant owns the raw keyspace, and the
// backing store carries the documented prefixes.
func TestNamespaceIsolation(t *testing.T) {
	backing := store.NewMem()
	reg, err := tenant.NewRegistry(backing, tenant.Config{})
	if err != nil {
		t.Fatal(err)
	}
	alice := openTenant(t, reg, "alice")
	bob := openTenant(t, reg, "bob")
	anon := openTenant(t, reg, tenant.Anonymous)

	if err := alice.Put("k", []byte("from-alice")); err != nil {
		t.Fatal(err)
	}
	if err := bob.Put("k", []byte("from-bob")); err != nil {
		t.Fatal(err)
	}
	if err := anon.Put("k", []byte("from-anon")); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		h    *tenant.Store
		want string
	}{{alice, "from-alice"}, {bob, "from-bob"}, {anon, "from-anon"}} {
		got, ok := tc.h.Get("k")
		if !ok || string(got) != tc.want {
			t.Errorf("tenant %q read %q (ok=%v), want %q", tc.h.ID(), got, ok, tc.want)
		}
	}
	// The raw keyspace view: anonymous is unprefixed, tenants are under
	// their validated prefix.
	if b, ok := backing.Get("k"); !ok || string(b) != "from-anon" {
		t.Errorf("raw key %q = %q (ok=%v), want the anonymous block", "k", b, ok)
	}
	if _, ok := backing.Get(tenant.Prefix + "alice/k"); !ok {
		t.Errorf("alice's block not under %q", tenant.Prefix+"alice/k")
	}
	// Batch reads respect the namespace too.
	got := storetest.ReadCopy(t, bob, []string{"k", "missing"})
	if string(got[0]) != "from-bob" || got[1] != nil {
		t.Errorf("ReadBatch through bob = [%q %v]", got[0], got[1])
	}
	held := alice.StatBatch([]string{"k", "missing"})
	if held[0] != len("from-alice") || held[1] != -1 {
		t.Errorf("StatBatch through alice = %v", held)
	}
}

// TestAnonymousCannotAddressReservedKeys pins the namespace boundary
// from the other side: a pre-handshake (anonymous) client passes keys
// through unprefixed, so '!'-prefixed keys — another tenant's
// namespace, store internals — must be unaddressable through its view
// in every operation.
func TestAnonymousCannotAddressReservedKeys(t *testing.T) {
	backing := store.NewMem()
	reg, err := tenant.NewRegistry(backing, tenant.Config{})
	if err != nil {
		t.Fatal(err)
	}
	alice := openTenant(t, reg, "alice")
	anon := openTenant(t, reg, tenant.Anonymous)
	if err := alice.Put("secret", []byte("alices-data")); err != nil {
		t.Fatal(err)
	}
	escape := tenant.Prefix + "alice/secret"

	if err := anon.Put(escape, []byte("tampered")); err == nil {
		t.Fatal("anonymous Put into a tenant namespace accepted")
	}
	if err := anon.PutBatch([]store.KV{{Key: escape, Data: []byte("tampered")}}); err == nil {
		t.Fatal("anonymous PutBatch into a tenant namespace accepted")
	}
	if b, ok := anon.Get(escape); ok {
		t.Fatalf("anonymous Get read a tenant's block: %q", b)
	}
	if got := storetest.ReadCopy(t, anon, []string{escape}); got[0] != nil {
		t.Fatalf("anonymous ReadBatch read a tenant's block: %q", got[0])
	}
	if held := anon.StatBatch([]string{escape}); held[0] != -1 {
		t.Fatalf("anonymous StatBatch probed a tenant's block: %d", held[0])
	}
	anon.Del(escape)
	if got, ok := alice.Get("secret"); !ok || string(got) != "alices-data" {
		t.Fatalf("alice's block damaged through the anonymous view (ok=%v %q)", ok, got)
	}
	if u := alice.Usage(); u.Bytes != int64(len("alices-data")) || u.Blocks != 1 {
		t.Errorf("alice's accounting drifted: %+v", u)
	}
	// Ordinary anonymous keys still work.
	if err := anon.Put("plain", []byte("ok")); err != nil {
		t.Fatalf("plain anonymous key refused: %v", err)
	}
}

// TestQuotaExhaustion pins the byte-quota admission path: the write that
// would cross the budget is refused with store.ErrQuotaExceeded, leaves
// the store untouched, and a neighbour tenant keeps writing.
func TestQuotaExhaustion(t *testing.T) {
	backing := store.NewMem()
	reg, err := tenant.NewRegistry(backing, tenant.Config{
		Tenants: map[string]tenant.Quota{"alice": {MaxBytes: 100}},
	})
	if err != nil {
		t.Fatal(err)
	}
	alice := openTenant(t, reg, "alice")
	bob := openTenant(t, reg, "bob")

	if err := alice.Put("a", make([]byte, 60)); err != nil {
		t.Fatalf("first write within quota: %v", err)
	}
	err = alice.Put("b", make([]byte, 60))
	if !errors.Is(err, store.ErrQuotaExceeded) {
		t.Fatalf("over-quota Put = %v, want ErrQuotaExceeded", err)
	}
	if _, ok := alice.Get("b"); ok {
		t.Error("refused write landed anyway")
	}
	if u := alice.Usage(); u.Bytes != 60 || u.Blocks != 1 {
		t.Errorf("alice usage after refusal = %+v, want 60 bytes / 1 block", u)
	}
	// Overwrites charge the delta, not the full size: shrinking "a"
	// frees budget.
	if err := alice.Put("a", make([]byte, 10)); err != nil {
		t.Fatalf("shrinking overwrite refused: %v", err)
	}
	if err := alice.Put("b", make([]byte, 60)); err != nil {
		t.Fatalf("write after freeing budget: %v", err)
	}
	// The neighbour is not affected by alice's quota.
	if err := bob.Put("big", make([]byte, 4096)); err != nil {
		t.Fatalf("unlimited neighbour refused: %v", err)
	}
}

// TestQuotaBatchAtomic pins PutBatch admission: a batch that does not
// fit as a whole is refused up front — no partial application, no
// accounting drift.
func TestQuotaBatchAtomic(t *testing.T) {
	backing := store.NewMem()
	reg, err := tenant.NewRegistry(backing, tenant.Config{
		Tenants: map[string]tenant.Quota{"alice": {MaxBytes: 100}},
	})
	if err != nil {
		t.Fatal(err)
	}
	alice := openTenant(t, reg, "alice")
	batch := []store.KV{
		{Key: "a", Data: make([]byte, 40)},
		{Key: "b", Data: make([]byte, 40)},
		{Key: "c", Data: make([]byte, 40)},
	}
	err = alice.PutBatch(batch)
	if !errors.Is(err, store.ErrQuotaExceeded) {
		t.Fatalf("oversized batch = %v, want ErrQuotaExceeded", err)
	}
	for _, it := range batch {
		if _, ok := alice.Get(it.Key); ok {
			t.Errorf("refused batch partially applied: %q present", it.Key)
		}
	}
	if u := alice.Usage(); u.Bytes != 0 || u.Blocks != 0 {
		t.Errorf("usage after refused batch = %+v, want zero", u)
	}
	// A batch overwriting its own keys charges final sizes only.
	dup := []store.KV{
		{Key: "a", Data: make([]byte, 90)},
		{Key: "a", Data: make([]byte, 50)},
		{Key: "b", Data: make([]byte, 50)},
	}
	if err := alice.PutBatch(dup); err != nil {
		t.Fatalf("duplicate-key batch with fitting final state refused: %v", err)
	}
	if u := alice.Usage(); u.Bytes != 100 || u.Blocks != 2 {
		t.Errorf("usage after duplicate-key batch = %+v, want 100/2", u)
	}
}

// TestBlockQuota pins the block-count budget.
func TestBlockQuota(t *testing.T) {
	reg, err := tenant.NewRegistry(store.NewMem(), tenant.Config{
		Tenants: map[string]tenant.Quota{"alice": {MaxBlocks: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	alice := openTenant(t, reg, "alice")
	for i := 0; i < 2; i++ {
		if err := alice.Put(fmt.Sprintf("k%d", i), []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := alice.Put("k2", []byte{1}); !errors.Is(err, store.ErrQuotaExceeded) {
		t.Fatalf("third block = %v, want ErrQuotaExceeded", err)
	}
	// Overwriting an existing key is not a new block.
	if err := alice.Put("k0", []byte{2, 3}); err != nil {
		t.Fatalf("overwrite counted as a new block: %v", err)
	}
	// Deleting frees a slot.
	alice.Del("k1")
	if err := alice.Put("k2", []byte{1}); err != nil {
		t.Fatalf("write after delete refused: %v", err)
	}
}

// TestStrictNode pins strict enrollment: unknown tenants are refused
// with the typed quota sentinel, configured tenants and the anonymous
// tenant are served.
func TestStrictNode(t *testing.T) {
	reg, err := tenant.NewRegistry(store.NewMem(), tenant.Config{
		Strict:  true,
		Tenants: map[string]tenant.Quota{"alice": {}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Open("alice"); err != nil {
		t.Errorf("configured tenant refused: %v", err)
	}
	if _, err := reg.Open(tenant.Anonymous); err != nil {
		t.Errorf("anonymous refused on strict node: %v", err)
	}
	if _, err := reg.Open("mallory"); !errors.Is(err, store.ErrQuotaExceeded) {
		t.Errorf("unknown tenant on strict node = %v, want ErrQuotaExceeded", err)
	}
}

// TestEvictionShedsColdLattice pins the pressure path: a write that
// leaves the node above its high-water mark sheds the least-recently
// used evictable tenant — the whole lattice, not a slice of it.
func TestEvictionShedsColdLattice(t *testing.T) {
	backing := store.NewMem()
	reg, err := tenant.NewRegistry(backing, tenant.Config{HighWater: 1000})
	if err != nil {
		t.Fatal(err)
	}
	cold := openTenant(t, reg, "cold")
	warm := openTenant(t, reg, "warm")
	writer := openTenant(t, reg, "writer")

	for i := 0; i < 4; i++ {
		if err := cold.Put(fmt.Sprintf("c%d", i), make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if err := warm.Put(fmt.Sprintf("w%d", i), make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
	}
	// Touch warm after cold so cold is the LRU victim.
	if _, ok := warm.Get("w0"); !ok {
		t.Fatal("warm block missing before pressure")
	}
	// 600 live + 500 incoming = 1100 > 1000: one eviction needed, and
	// shedding cold's 400 bytes suffices.
	if err := writer.Put("big", make([]byte, 500)); err != nil {
		t.Fatalf("pressure write failed: %v", err)
	}
	if got := reg.Evictions(); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	if u := cold.Usage(); u.Bytes != 0 || u.Blocks != 0 {
		t.Errorf("cold usage after eviction = %+v, want zero (whole lattice shed)", u)
	}
	for i := 0; i < 4; i++ {
		if _, ok := cold.Get(fmt.Sprintf("c%d", i)); ok {
			t.Errorf("cold block c%d survived a whole-lattice eviction", i)
		}
	}
	if u := warm.Usage(); u.Bytes != 200 {
		t.Errorf("warm usage = %+v, want untouched 200 bytes", u)
	}
	if _, ok := writer.Get("big"); !ok {
		t.Error("the pressure write itself was lost")
	}
	if total := reg.TotalBytes(); total != 700 {
		t.Errorf("total after eviction = %d, want 700", total)
	}
}

// TestEvictionFloor pins the reservation guarantee: a tenant at or below
// its reservation is never chosen as a victim, whoever is colder.
func TestEvictionFloor(t *testing.T) {
	backing := store.NewMem()
	reg, err := tenant.NewRegistry(backing, tenant.Config{
		HighWater: 500,
		Tenants:   map[string]tenant.Quota{"reserved": {Reservation: 400}},
	})
	if err != nil {
		t.Fatal(err)
	}
	reserved := openTenant(t, reg, "reserved")
	victim := openTenant(t, reg, "victim")
	writer := openTenant(t, reg, "writer")

	// reserved is the coldest tenant but sits within its floor.
	if err := reserved.Put("r", make([]byte, 300)); err != nil {
		t.Fatal(err)
	}
	if err := victim.Put("v", make([]byte, 150)); err != nil {
		t.Fatal(err)
	}
	if err := writer.Put("w", make([]byte, 200)); err != nil {
		t.Fatal(err)
	}
	if _, ok := reserved.Get("r"); !ok {
		t.Fatal("reserved tenant evicted below its reservation")
	}
	if _, ok := victim.Get("v"); ok {
		t.Error("unreserved tenant survived while the node stayed over the mark")
	}
	if u := reserved.Usage(); u.Bytes != 300 {
		t.Errorf("reserved usage = %+v, want untouched 300", u)
	}
}

// TestReopenAccounting is the durability leg: per-tenant usage is
// rebuilt from a reopened segment store — including the anonymous
// tenant's unprefixed keys — with no side file.
func TestReopenAccounting(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "seg")
	seg, err := segstore.Open(dir, segstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg, err := tenant.NewRegistry(seg, tenant.Config{})
	if err != nil {
		t.Fatal(err)
	}
	alice := openTenant(t, reg, "alice")
	anon := openTenant(t, reg, tenant.Anonymous)
	if err := alice.Put("a1", make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if err := alice.Put("a2", make([]byte, 50)); err != nil {
		t.Fatal(err)
	}
	alice.Del("a2")
	if err := anon.Put("plain", make([]byte, 30)); err != nil {
		t.Fatal(err)
	}
	wantAlice := alice.Usage()
	wantAnon := anon.Usage()
	if err := seg.Close(); err != nil {
		t.Fatal(err)
	}

	seg2, err := segstore.Open(dir, segstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer seg2.Close()
	reg2, err := tenant.NewRegistry(seg2, tenant.Config{
		Tenants: map[string]tenant.Quota{"alice": {MaxBytes: 120}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if u, ok := reg2.Usage("alice"); !ok || u.Bytes != wantAlice.Bytes || u.Blocks != wantAlice.Blocks {
		t.Errorf("reopened alice usage = %+v (ok=%v), want %+v", u, ok, wantAlice)
	}
	if u, ok := reg2.Usage(tenant.Anonymous); !ok || u.Bytes != wantAnon.Bytes || u.Blocks != wantAnon.Blocks {
		t.Errorf("reopened anonymous usage = %+v (ok=%v), want %+v", u, ok, wantAnon)
	}
	// The rebuilt accounting enforces quota over pre-existing data: alice
	// holds 100 of 120 bytes, so 30 more must be refused.
	alice2 := openTenant(t, reg2, "alice")
	if err := alice2.Put("a3", make([]byte, 30)); !errors.Is(err, store.ErrQuotaExceeded) {
		t.Errorf("post-reopen over-quota Put = %v, want ErrQuotaExceeded", err)
	}
	if got, ok := alice2.Get("a1"); !ok || len(got) != 100 {
		t.Errorf("alice's block lost across reopen (ok=%v len=%d)", ok, len(got))
	}
	if _, ok := alice2.Get("a2"); ok {
		t.Error("deleted block resurrected across reopen")
	}
}

// TestUsageExactAcrossADropAndRewrite pins accounting over keys the
// backing drops on its own: a segstore record that rots is dropped by
// the scrub or by the read that finds it, and rewriting the block must
// charge it once, not on top of the charge the lost record still held.
func TestUsageExactAcrossADropAndRewrite(t *testing.T) {
	dir := t.TempDir()
	seg, err := segstore.Open(dir, segstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	reg, err := tenant.NewRegistry(seg, tenant.Config{})
	if err != nil {
		t.Fatal(err)
	}
	alice := openTenant(t, reg, "alice")
	block := make([]byte, 1024)
	for _, key := range []string{"a", "b"} {
		if err := alice.Put(key, block); err != nil {
			t.Fatal(err)
		}
	}
	// rotLast flips the last byte of the newest record: the one just
	// written.
	rotLast := func() {
		t.Helper()
		segs, err := filepath.Glob(filepath.Join(dir, "*.seg"))
		if err != nil || len(segs) == 0 {
			t.Fatalf("no segment files: %v", err)
		}
		f, err := os.OpenFile(segs[len(segs)-1], os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		info, err := f.Stat()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt([]byte{0xFF}, info.Size()-1); err != nil {
			t.Fatal(err)
		}
	}
	want := tenant.Usage{Bytes: 2048, Blocks: 2}

	rotLast()
	if res := seg.ScrubStep("", 0); len(res.Corrupt) != 1 {
		t.Fatalf("scrub found %v, want the rotted record", res.Corrupt)
	}
	if err := alice.Put("b", block); err != nil {
		t.Fatal(err)
	}
	if got := alice.Usage(); got != want {
		t.Errorf("after a scrub drop and a Put rewrite, usage = %+v, want %+v", got, want)
	}

	rotLast()
	if _, ok := alice.Get("b"); ok {
		t.Fatal("the rotted record served")
	}
	if err := alice.PutBatch([]store.KV{{Key: "b", Data: block}}); err != nil {
		t.Fatal(err)
	}
	if got := alice.Usage(); got != want {
		t.Errorf("after a read drop and a PutBatch rewrite, usage = %+v, want %+v", got, want)
	}
	if got := reg.TotalBytes(); got != want.Bytes {
		t.Errorf("node total = %d, want %d", got, want.Bytes)
	}
}

// parkingBacking is a store.Mem whose PutBatch, once armed, parks until
// released — a write holding the registry lock across a slow append.
type parkingBacking struct {
	*store.Mem
	armed   atomic.Bool
	parked  chan struct{}
	release chan struct{}
}

func (p *parkingBacking) PutBatch(items []store.KV) error {
	if p.armed.CompareAndSwap(true, false) {
		close(p.parked)
		<-p.release
	}
	return p.Mem.PutBatch(items)
}

// TestReadsDoNotQueueBehindWrites pins that a tenant's reads take no
// registry lock: while another tenant's PutBatch is parked inside the
// backing (holding the registry lock for its quota accounting), Get,
// ReadBatch and StatBatch on a neighbour still return.
func TestReadsDoNotQueueBehindWrites(t *testing.T) {
	backing := &parkingBacking{
		Mem:     store.NewMem(),
		parked:  make(chan struct{}),
		release: make(chan struct{}),
	}
	reg, err := tenant.NewRegistry(backing, tenant.Config{})
	if err != nil {
		t.Fatal(err)
	}
	alice := openTenant(t, reg, "alice")
	bob := openTenant(t, reg, "bob")
	if err := bob.Put("k", []byte("bobs")); err != nil {
		t.Fatal(err)
	}
	backing.armed.Store(true)
	writeDone := make(chan error, 1)
	go func() { writeDone <- alice.PutBatch([]store.KV{{Key: "a", Data: []byte("alices")}}) }()
	var releasing sync.Once
	release := func() { releasing.Do(func() { close(backing.release) }) }
	defer release() // a failing test must not leave the writer parked
	<-backing.parked

	readDone := make(chan string, 1)
	go func() {
		b, _ := bob.Get("k")
		var got string
		bob.ReadBatch([]string{"k"}, func(blocks [][]byte) error {
			got = string(blocks[0])
			return nil
		})
		held := bob.StatBatch([]string{"k"})
		readDone <- fmt.Sprintf("%s %s %d", b, got, held[0])
	}()
	select {
	case got := <-readDone:
		if want := "bobs bobs 4"; got != want {
			t.Errorf("reads beside the parked write = %q, want %q", got, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("bob's reads queued behind alice's parked PutBatch")
	}
	release()
	if err := <-writeDone; err != nil {
		t.Fatalf("parked PutBatch: %v", err)
	}
	if u := alice.Usage(); u.Blocks != 1 {
		t.Errorf("alice usage after the parked write = %+v, want 1 block", u)
	}
}

// TestLoadConfig pins the -tenants file format.
func TestLoadConfig(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tenants.json")
	body := `{
		"default": {"max_bytes": 1000},
		"high_water": 5000,
		"strict": true,
		"tenants": {
			"alice": {"max_bytes": 100, "reservation": 50},
			"bob": {}
		}
	}`
	if err := writeFile(path, body); err != nil {
		t.Fatal(err)
	}
	cfg, err := tenant.LoadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Default.MaxBytes != 1000 || cfg.HighWater != 5000 || !cfg.Strict {
		t.Errorf("parsed config = %+v", cfg)
	}
	if q := cfg.Tenants["alice"]; q.MaxBytes != 100 || q.Reservation != 50 {
		t.Errorf("alice quota = %+v", q)
	}
	if err := writeFile(path, `{"tenants": {"BAD/ID": {}}}`); err != nil {
		t.Fatal(err)
	}
	if _, err := tenant.LoadConfig(path); err == nil {
		t.Error("config with an invalid tenant id accepted")
	}
}

func writeFile(path, body string) error {
	return os.WriteFile(path, []byte(body), 0o644)
}
