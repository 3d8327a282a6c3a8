package cooperative_test

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"strings"
	"sync"
	"testing"
	"time"

	"aecodes/internal/cooperative"
	"aecodes/internal/entangle"
	"aecodes/internal/lattice"
	"aecodes/internal/segstore"
	"aecodes/internal/store"
	"aecodes/internal/transport"
)

// TestAestoredHelperProcess is not a test: it is the storage-node child
// process of TestRepairAfterSIGKILLReadsPersistedBlocks — an aestored
// stand-in (transport server over a segstore) run from the test binary
// itself so the crash test needs no separately built binary. It serves
// until killed.
func TestAestoredHelperProcess(t *testing.T) {
	if os.Getenv("AESTORED_HELPER") != "1" {
		t.Skip("helper process; run via TestRepairAfterSIGKILLReadsPersistedBlocks")
	}
	seg, err := segstore.Open(os.Getenv("AESTORED_DATA"), segstore.Options{})
	if err != nil {
		fmt.Println("AESTORED_ERR", err)
		os.Exit(1)
	}
	srv, err := transport.NewServer(seg)
	if err != nil {
		fmt.Println("AESTORED_ERR", err)
		os.Exit(1)
	}
	addr := os.Getenv("AESTORED_ADDR")
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	bound, err := srv.Listen(addr)
	if err != nil {
		fmt.Println("AESTORED_ERR", err)
		os.Exit(1)
	}
	fmt.Println("AESTORED_READY", bound)
	select {} // serve until SIGKILL
}

// helperNode is the running child process.
type helperNode struct {
	cmd  *exec.Cmd
	addr string
	kill func() // SIGKILL, idempotent
}

// startHelper launches the storage-node child on addr ("127.0.0.1:0"
// picks a port) over the segment store in dir, and waits for it to
// announce readiness.
func startHelper(t *testing.T, dir, addr string) *helperNode {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestAestoredHelperProcess$")
	cmd.Env = append(os.Environ(),
		"AESTORED_HELPER=1",
		"AESTORED_DATA="+dir,
		"AESTORED_ADDR="+addr,
	)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	h := &helperNode{cmd: cmd}
	h.kill = func() {
		once.Do(func() {
			cmd.Process.Kill()
			cmd.Wait()
		})
	}
	t.Cleanup(h.kill)

	ready := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "AESTORED_READY "); ok {
				ready <- rest
			}
		}
	}()
	select {
	case h.addr = <-ready:
	case <-time.After(30 * time.Second):
		t.Fatal("storage-node child never became ready")
	}
	return h
}

// crashingNode decorates the pool client to the durable node: it records
// every key whose upload was acknowledged (and is therefore in the
// kernel on the node side — durable across SIGKILL), and fires the kill
// immediately before forwarding its killOn'th PutMany, so the node dies
// in the middle of a backup upload.
type crashingNode struct {
	cooperative.NodeStore
	kill   func()
	killOn int

	mu       sync.Mutex
	putCalls int
	acked    map[string]bool
}

func (c *crashingNode) Put(ctx context.Context, key string, data []byte) error {
	if err := c.NodeStore.Put(ctx, key, data); err != nil {
		return err
	}
	c.mu.Lock()
	c.acked[key] = true
	c.mu.Unlock()
	return nil
}

func (c *crashingNode) PutMany(ctx context.Context, items []store.KV) error {
	c.mu.Lock()
	c.putCalls++
	if c.putCalls == c.killOn {
		c.mu.Unlock()
		c.kill()
		c.mu.Lock()
	}
	c.mu.Unlock()
	if err := c.NodeStore.PutMany(ctx, items); err != nil {
		return err
	}
	c.mu.Lock()
	for _, it := range items {
		c.acked[it.Key] = true
	}
	c.mu.Unlock()
	return nil
}

// ackedKeys returns the keys known durable on the node.
func (c *crashingNode) ackedKeys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.acked))
	for k := range c.acked {
		out = append(out, k)
	}
	return out
}

// puttingRecorder records every key written to a node — armed after the
// restart to pin that repair re-uploads only what was actually lost.
type puttingRecorder struct {
	cooperative.NodeStore

	mu   sync.Mutex
	keys map[string]bool
}

func (r *puttingRecorder) Put(ctx context.Context, key string, data []byte) error {
	r.mu.Lock()
	r.keys[key] = true
	r.mu.Unlock()
	return r.NodeStore.Put(ctx, key, data)
}

func (r *puttingRecorder) PutMany(ctx context.Context, items []store.KV) error {
	r.mu.Lock()
	for _, it := range items {
		r.keys[it.Key] = true
	}
	r.mu.Unlock()
	return r.NodeStore.PutMany(ctx, items)
}

// TestRepairAfterSIGKILLReadsPersistedBlocks is the durability
// acceptance test: a storage node running the segment store is SIGKILLed
// in the middle of a backup upload, restarted on the same address and
// data directory, and the cooperative layer then (a) reads every block
// the node had acknowledged before the kill straight from its recovered
// log, and (b) repairs the lattice by re-uploading ONLY the block the
// test explicitly deleted — surviving data is not re-entangled.
func TestRepairAfterSIGKILLReadsPersistedBlocks(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	const (
		n         = 40
		blockSize = 64
	)
	dir := t.TempDir()
	h := startHelper(t, dir, "127.0.0.1:0")

	pool, err := transport.DialPoolOptions(h.addr, 2, transport.PoolOptions{
		RedialBackoff: 5 * time.Millisecond,
		RedialMax:     100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pool.Close() })
	crash := &crashingNode{
		NodeStore: pool,
		kill:      h.kill,
		killOn:    10,
		acked:     make(map[string]bool),
	}
	nodes := []cooperative.NodeStore{crash, cooperative.NewInMemoryNode(), cooperative.NewInMemoryNode()}
	b, err := cooperative.NewBroker("crashuser", lattice.Params{Alpha: 3, S: 2, P: 5}, blockSize, nodes)
	if err != nil {
		t.Fatal(err)
	}

	// Back up until the node dies mid-upload.
	ctx := context.Background()
	rng := rand.New(rand.NewSource(21))
	originals := map[int][]byte{}
	var backupErr error
	for i := 1; i <= n; i++ {
		data := make([]byte, blockSize)
		rng.Read(data)
		pos, err := b.Backup(ctx, data)
		if err != nil {
			backupErr = err
			break
		}
		originals[pos] = data
	}
	if backupErr == nil {
		t.Fatal("the SIGKILL mid-upload never surfaced as a backup error")
	}
	acked := crash.ackedKeys()
	if len(originals) < 5 || len(acked) < 5 {
		t.Fatalf("kill came too early: %d backups, %d acked keys", len(originals), len(acked))
	}

	// Restart the node on the same address over the same directory; the
	// pool's background redial heals the connections on its own.
	startHelper(t, dir, h.addr)
	deadline := time.Now().Add(15 * time.Second)
	for {
		if _, err := pool.Get(ctx, acked[0]); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("pool never healed to the restarted node")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// (a) Every acknowledged block survived the SIGKILL: served straight
	// from the recovered segment log, no repair involved.
	for _, key := range acked {
		blk, err := pool.Get(ctx, key)
		if err != nil {
			t.Fatalf("acked block %s lost across SIGKILL+restart: %v", key, err)
		}
		if len(blk) != blockSize {
			t.Fatalf("acked block %s came back with %d bytes", key, len(blk))
		}
	}

	// (b) Damage the system for real: delete one persisted parity from
	// the node and lose a third of the user's local data blocks. Then
	// record every post-restart upload.
	deleted := acked[len(acked)/2]
	if err := pool.Del(ctx, deleted); err != nil {
		t.Fatal(err)
	}
	rec := &puttingRecorder{NodeStore: pool, keys: make(map[string]bool)}
	crash.NodeStore = rec
	var dropped []int
	for pos := range originals {
		if rng.Float64() < 0.33 {
			dropped = append(dropped, pos)
		}
	}
	b.DropLocal(dropped...)

	stats, err := b.Repair(ctx, entangle.Options{})
	if err != nil {
		t.Fatalf("repair against restarted node: %v", err)
	}
	if len(stats.UnrepairedData) != 0 {
		t.Fatalf("repair left %d data blocks unrepaired", len(stats.UnrepairedData))
	}
	rec.mu.Lock()
	reput := make(map[string]bool, len(rec.keys))
	for k := range rec.keys {
		reput[k] = true
	}
	rec.mu.Unlock()
	for key := range reput {
		if key != deleted {
			t.Errorf("repair re-uploaded surviving block %s; only %s was lost", key, deleted)
		}
	}
	if !reput[deleted] {
		t.Errorf("repair never restored the deleted parity %s", deleted)
	}

	// And the data decodes: every backed-up block reads back intact.
	for pos, want := range originals {
		got, err := b.Read(ctx, pos)
		if err != nil {
			t.Fatalf("Read(%d) after crash recovery: %v", pos, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("block %d corrupted across the crash", pos)
		}
	}
}
