package obs

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	sc := r.Scope("test")
	c := sc.Counter("hits")
	if sc.Counter("hits") != c {
		t.Fatal("same name must return same handle")
	}
	c.Add(5)
	c.Inc()
	if v := c.Value(); v != 6 {
		t.Fatalf("counter = %d, want 6", v)
	}
	g := sc.Gauge("depth")
	g.Add(10)
	g.Sub(3)
	if v := g.Value(); v != 7 {
		t.Fatalf("gauge = %d, want 7", v)
	}
	g2 := sc.Gauge("level")
	g2.Set(42)
	g2.Set(17)
	if v := g2.Value(); v != 17 {
		t.Fatalf("set-style gauge = %d, want 17", v)
	}
}

func TestSnapshotKeysAndText(t *testing.T) {
	r := NewRegistry()
	r.Scope("alpha").Counter("ops").Add(3)
	r.Scope("alpha").Gauge("depth").Set(2)
	r.Scope("beta").Histogram("lat").Record(1000)
	snap := r.Snapshot()
	if snap.Version != SnapshotVersion {
		t.Fatalf("version = %d", snap.Version)
	}
	if snap.Counters["alpha/ops"] != 3 {
		t.Fatalf("counters = %v", snap.Counters)
	}
	if snap.Gauges["alpha/depth"] != 2 {
		t.Fatalf("gauges = %v", snap.Gauges)
	}
	if h := snap.Hists["beta/lat"]; h.Count != 1 || h.Sum != 1000 {
		t.Fatalf("hist = %+v", h)
	}

	var b strings.Builder
	if err := snap.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{"alpha/ops 3\n", "alpha/depth 2\n", "beta/lat count=1"} {
		if !strings.Contains(text, want) {
			t.Fatalf("text missing %q:\n%s", want, text)
		}
	}

	// Round-trips through JSON without loss.
	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["alpha/ops"] != 3 || back.Hists["beta/lat"].Count != 1 {
		t.Fatalf("JSON round-trip lost data: %+v", back)
	}
}

func TestSnapshotMerge(t *testing.T) {
	mk := func(n int64) Snapshot {
		r := NewRegistry()
		r.Scope("s").Counter("c").Add(n)
		r.Scope("s").Gauge("g").Add(n)
		h := r.Scope("s").Histogram("h")
		for i := int64(0); i < n; i++ {
			h.Record(1 << 10)
		}
		return r.Snapshot()
	}
	a, b := mk(2), mk(3)
	a.Merge(b)
	if a.Counters["s/c"] != 5 || a.Gauges["s/g"] != 5 || a.Hists["s/h"].Count != 5 {
		t.Fatalf("merge wrong: %+v", a)
	}
}

func TestHTTPEndpoint(t *testing.T) {
	r := NewRegistry()
	r.Scope("web").Counter("reqs").Add(9)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		Serve(ctx, ln, r)
	}()
	base := "http://" + ln.Addr().String()

	get := func(path string) (string, string) {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	text, ct := get("/metrics")
	if !strings.Contains(text, "web/reqs 9") || !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("text endpoint: ct=%q body=%q", ct, text)
	}
	raw, ct := get("/metrics.json")
	if !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("json endpoint content type %q", ct)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(raw), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["web/reqs"] != 9 {
		t.Fatalf("json endpoint: %+v", snap)
	}

	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not stop on ctx cancel")
	}
}

// TestShardOfSpreadsStacks feeds shardOf what one variable's address is
// in goroutines whose stacks sit side by side: consecutive bases aligned
// to the stack size, one shared offset inside the stack, as for
// goroutines started together and at the same call depth. At every
// shard count numShards can take, every shard must be hit.
func TestShardOfSpreadsStacks(t *testing.T) {
	const base, depth = 0x38400000, 0x2c8
	for _, stack := range []uintptr{2 << 10, 8 << 10, 32 << 10} {
		for n := 2; n <= maxShards; n <<= 1 {
			hit := make(map[int]bool)
			for i := uintptr(0); i < 16*uintptr(n); i++ {
				hit[shardOf(base+(i+1)*stack-depth, n)] = true
			}
			if len(hit) != n {
				t.Errorf("%d KiB stacks, %d shards: %d stacks hit only %d shards", stack>>10, n, 16*n, len(hit))
			}
		}
	}
}
