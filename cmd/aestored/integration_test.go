package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"aecodes/internal/cooperative"
	"aecodes/internal/entangle"
	"aecodes/internal/lattice"
	"aecodes/internal/store"
	"aecodes/internal/tenant"
	"aecodes/internal/transport"
)

// buildAestored compiles the real aestored binary once per test run.
func buildAestored(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "aestored")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building aestored: %v\n%s", err, out)
	}
	return bin
}

// startAestored runs the binary with the given extra flags and waits for
// its address announcement.
func startAestored(t *testing.T, bin string, args ...string) (addr string, stop func()) {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	stop = func() {
		cmd.Process.Kill()
		cmd.Wait()
	}
	t.Cleanup(stop)

	ready := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "aestored listening on "); ok {
				ready <- rest
			}
		}
	}()
	select {
	case addr = <-ready:
	case <-time.After(30 * time.Second):
		t.Fatal("aestored never announced its address")
	}
	return addr, stop
}

// dialTenantPool opens a pooled, credentialed connection to the node.
func dialTenantPool(t *testing.T, addr, tenantID string) *transport.PoolClient {
	t.Helper()
	pool, err := transport.DialPoolOptions(addr, 2, transport.PoolOptions{Tenant: tenantID})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pool.Close() })
	return pool
}

// TestMultiTenantAestored is the multi-tenancy acceptance test against
// one real `aestored -data` process:
//
//   - tenant alice hits her byte quota: the refusing write surfaces as
//     store.ErrQuotaExceeded while tenant bob's backup, damage and
//     lattice repair succeed untouched on the same node;
//   - a cold tenant's whole lattice is evicted when a writer pushes the
//     node over its high-water mark, and cooperative repair then
//     regenerates the evicted lattice from the user's surviving data;
//   - an anonymous (pre-handshake) client still round-trips against the
//     same node.
func TestMultiTenantAestored(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs a child process")
	}
	const blockSize = 64
	params := lattice.Params{Alpha: 3, S: 2, P: 5}

	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "tenants.json")
	big := int64(1 << 20)
	cfg := tenant.Config{
		HighWater: 6000,
		Tenants: map[string]tenant.Quota{
			// alice: small byte quota, protected from eviction so the
			// quota refusal is unambiguous.
			"alice": {MaxBytes: 500, Reservation: big},
			// bob and writer: unlimited, protected from eviction.
			"bob":    {Reservation: big},
			"writer": {Reservation: big},
			// the anonymous tenant: protected from eviction.
			"": {Reservation: big},
			// cold: unlimited but evictable — the high-water victim.
			"cold": {},
		},
	}
	raw, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cfgPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	bin := buildAestored(t)
	addr, _ := startAestored(t, bin, "-data", filepath.Join(dir, "data"), "-tenants", cfgPath)
	ctx := context.Background()

	newBroker := func(user string, pool *transport.PoolClient) *cooperative.Broker {
		t.Helper()
		b, err := cooperative.NewBroker(user, params, blockSize, []cooperative.NodeStore{pool})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	backupN := func(b *cooperative.Broker, rng *rand.Rand, n int) map[int][]byte {
		t.Helper()
		originals := make(map[int][]byte, n)
		for i := 0; i < n; i++ {
			data := make([]byte, blockSize)
			rng.Read(data)
			pos, err := b.Backup(ctx, data)
			if err != nil {
				t.Fatalf("Backup: %v", err)
			}
			originals[pos] = data
		}
		return originals
	}
	rng := rand.New(rand.NewSource(42))

	// --- Quota isolation: alice runs out, bob is untouched. ---
	// Credentials arrive via both supported paths: alice through
	// Broker.SetCredential over an anonymous pool, bob at dial time.
	alicePool := dialTenantPool(t, addr, "")
	alice := newBroker("alice", alicePool)
	if err := alice.SetCredential(ctx, "alice"); err != nil {
		t.Fatal(err)
	}
	// Each backup uploads α=3 parities of 64 bytes: 192 bytes per call
	// against a 500-byte quota — the third must be refused.
	var quotaErr error
	for i := 0; i < 3; i++ {
		data := make([]byte, blockSize)
		rng.Read(data)
		if _, err := alice.Backup(ctx, data); err != nil {
			quotaErr = err
			break
		}
	}
	if quotaErr == nil {
		t.Fatal("alice's quota never triggered")
	}
	if !errors.Is(quotaErr, store.ErrQuotaExceeded) {
		t.Fatalf("alice's refusal = %v, want ErrQuotaExceeded", quotaErr)
	}

	bob := newBroker("bob", dialTenantPool(t, addr, "bob"))
	bobBlocks := backupN(bob, rng, 10)
	var bobDropped []int
	for pos := range bobBlocks {
		if len(bobDropped) < 4 {
			bobDropped = append(bobDropped, pos)
		}
	}
	bob.DropLocal(bobDropped...)
	stats, err := bob.Repair(ctx, entangle.Options{})
	if err != nil {
		t.Fatalf("bob's repair next to an exhausted tenant: %v", err)
	}
	if len(stats.UnrepairedData) != 0 {
		t.Fatalf("bob's repair left %d data blocks missing", len(stats.UnrepairedData))
	}
	for pos, want := range bobBlocks {
		got, err := bob.Read(ctx, pos)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("bob's block %d wrong after repair (err %v)", pos, err)
		}
	}

	// --- Eviction: a cold lattice is shed, then regenerated. ---
	cold := newBroker("cold", dialTenantPool(t, addr, "cold"))
	coldBlocks := backupN(cold, rng, 8)

	// Every cold parity is currently held.
	health, err := cold.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !health.Healthy() {
		t.Fatalf("cold lattice already missing %d parities before pressure", health.MissingParities())
	}

	// The writer pushes the node over the 6000-byte high-water mark;
	// cold is the only evictable tenant.
	writer := dialTenantPool(t, addr, "writer")
	for i := 0; i < 20; i++ {
		if err := writer.Put(ctx, fmt.Sprintf("w%d", i), make([]byte, 200)); err != nil {
			t.Fatalf("writer put %d: %v", i, err)
		}
	}
	health, err = cold.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if health.MissingParities() == 0 {
		t.Fatal("pressure never evicted the cold lattice")
	}

	// Cooperative repair regenerates the evicted lattice from the
	// user's surviving local data.
	stats, err = cold.Repair(ctx, entangle.Options{})
	if err != nil {
		t.Fatalf("repairing the evicted lattice: %v", err)
	}
	if stats.ParityRepaired == 0 {
		t.Fatal("repair of the evicted lattice regenerated nothing")
	}
	if len(stats.UnrepairedParities) != 0 {
		t.Fatalf("repair left %d parities unregenerated", len(stats.UnrepairedParities))
	}
	// The regenerated lattice decodes: lose local data, read it back
	// from the node.
	for pos := range coldBlocks {
		cold.DropLocal(pos)
	}
	for pos, want := range coldBlocks {
		got, err := cold.Read(ctx, pos)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("cold block %d unreadable after regeneration (err %v)", pos, err)
		}
	}

	// --- Anonymous compatibility: a pre-handshake client round-trips. ---
	anon, err := transport.DialPool(addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { anon.Close() })
	if err := anon.Put(ctx, "legacy-key", []byte("legacy-block")); err != nil {
		t.Fatalf("anonymous put: %v", err)
	}
	got, err := anon.Get(ctx, "legacy-key")
	if err != nil || string(got) != "legacy-block" {
		t.Fatalf("anonymous round-trip = %q (err %v)", got, err)
	}
	// And the anonymous keyspace is really the raw one: no tenant sees it.
	flags, err := writer.StatMany(ctx, []string{"legacy-key"})
	if err != nil {
		t.Fatal(err)
	}
	if flags[0] {
		t.Error("a tenant's namespace sees the anonymous key")
	}
}
