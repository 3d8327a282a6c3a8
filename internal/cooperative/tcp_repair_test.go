package cooperative_test

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"aecodes/internal/cooperative"
	"aecodes/internal/entangle"
	"aecodes/internal/lattice"
	"aecodes/internal/transport"
)

// killableProxy forwards TCP connections to a backend and can sever them
// on demand — the test's handle on "a transient network blip at exactly
// the wrong moment".
type killableProxy struct {
	ln      net.Listener
	backend string

	mu    sync.Mutex
	pairs []net.Conn // client-side conns, oldest first
}

func startProxy(t *testing.T, backend string) *killableProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &killableProxy{ln: ln, backend: backend}
	go p.acceptLoop()
	t.Cleanup(func() { ln.Close() })
	return p
}

func (p *killableProxy) Addr() string { return p.ln.Addr().String() }

func (p *killableProxy) acceptLoop() {
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return
		}
		up, err := net.Dial("tcp", p.backend)
		if err != nil {
			client.Close()
			continue
		}
		p.mu.Lock()
		p.pairs = append(p.pairs, client)
		p.mu.Unlock()
		go func() { io.Copy(up, client); up.Close() }()
		go func() { io.Copy(client, up); client.Close() }()
	}
}

// KillOldest severs the oldest proxied connection still on record.
func (p *killableProxy) KillOldest() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.pairs) == 0 {
		return
	}
	p.pairs[0].Close()
	p.pairs = p.pairs[1:]
}

// poisonOnGetMany is a NodeStore decorator that severs a proxied
// connection immediately before forwarding its killOn'th GetMany — for
// round-based repair over this node, that is mid-prefetch.
type poisonOnGetMany struct {
	cooperative.NodeStore
	kill   func()
	killOn int

	mu    sync.Mutex
	calls int
}

func (d *poisonOnGetMany) GetMany(ctx context.Context, keys []string) ([][]byte, error) {
	d.mu.Lock()
	d.calls++
	if d.calls == d.killOn {
		d.kill()
	}
	d.mu.Unlock()
	return d.NodeStore.GetMany(ctx, keys)
}

// TestRepairSurvivesMidPrefetchConnPoison is the end-to-end degraded-mode
// test over real sockets: a pool connection to one storage node is
// poisoned in the middle of a repair round's prefetch, the round
// completes on the surviving connection (the pool evicts the corpse and
// retries the in-flight batch), the background redial restores full pool
// capacity, and every data block decodes intact afterwards.
func TestRepairSurvivesMidPrefetchConnPoison(t *testing.T) {
	const (
		nodesCount = 3
		n          = 40
		blockSize  = 64
	)
	var nodes []cooperative.NodeStore
	var pools []*transport.PoolClient
	var proxy *killableProxy
	for i := 0; i < nodesCount; i++ {
		srv, err := transport.NewServer(transport.NewMemStore())
		if err != nil {
			t.Fatal(err)
		}
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		dialAddr := addr
		if i == 0 {
			proxy = startProxy(t, addr)
			dialAddr = proxy.Addr()
		}
		pool, err := transport.DialPoolOptions(dialAddr, 2, transport.PoolOptions{
			RedialBackoff: 2 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { pool.Close() })
		pools = append(pools, pool)
		if i == 0 {
			// The node whose connection dies mid-prefetch: the second
			// GetMany a repair round sends it is the engine's round
			// prefetch (the first is the Missing enumeration).
			nodes = append(nodes, &poisonOnGetMany{NodeStore: pool, kill: proxy.KillOldest, killOn: 2})
		} else {
			nodes = append(nodes, pool)
		}
	}

	b, err := cooperative.NewBroker("tcpuser", lattice.Params{Alpha: 3, S: 2, P: 5}, blockSize, nodes)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(12))
	originals := make([][]byte, n+1)
	for i := 1; i <= n; i++ {
		data := make([]byte, blockSize)
		rng.Read(data)
		originals[i] = data
		if _, err := b.Backup(ctx, data); err != nil {
			t.Fatalf("Backup(%d): %v", i, err)
		}
	}
	// Lose a third of the user's data so the repair round has real work.
	for i := 1; i <= n; i++ {
		if rng.Float64() < 0.33 {
			b.DropLocal(i)
		}
	}

	stats, err := b.Repair(ctx, entangle.Options{})
	if err != nil {
		t.Fatalf("repair with mid-prefetch poison: %v", err)
	}
	if len(stats.UnrepairedData) != 0 {
		t.Fatalf("repair left %d data blocks missing despite surviving conns", len(stats.UnrepairedData))
	}
	for i := 1; i <= n; i++ {
		got, err := b.Read(ctx, i)
		if err != nil {
			t.Fatalf("Read(%d) after poisoned-round repair: %v", i, err)
		}
		if !bytes.Equal(got, originals[i]) {
			t.Fatalf("block %d corrupted", i)
		}
	}

	// The poisoned connection must have been evicted and redialed: the
	// pool returns to full capacity, not permanent degradation.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && pools[0].Live() < 2 {
		time.Sleep(2 * time.Millisecond)
	}
	if live := pools[0].Live(); live != 2 {
		t.Fatalf("pool to poisoned node has %d live conns, want 2 (redial failed)", live)
	}
	// And the healed pool serves traffic: one more full round trip.
	if err := pools[0].Put(ctx, "healed", []byte("ok")); err != nil {
		t.Fatalf("Put through healed pool: %v", err)
	}
}
