package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"aecodes/internal/obs"
	"aecodes/internal/transport"
)

// startAestoredMetrics runs the binary and waits for both the transport
// and the metrics-HTTP address announcements.
func startAestoredMetrics(t *testing.T, bin string, args ...string) (addr, metricsAddr string) {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0", "-metricsaddr", "127.0.0.1:0"}, args...)...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})

	addrCh := make(chan string, 1)
	metricsCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "aestored listening on "); ok {
				addrCh <- rest
			}
			if rest, ok := strings.CutPrefix(sc.Text(), "aestored metrics on "); ok {
				metricsCh <- rest
			}
		}
	}()
	deadline := time.After(30 * time.Second)
	for addr == "" || metricsAddr == "" {
		select {
		case addr = <-addrCh:
		case metricsAddr = <-metricsCh:
		case <-deadline:
			t.Fatalf("aestored never announced itself (addr %q, metrics %q)", addr, metricsAddr)
		}
	}
	return addr, metricsAddr
}

// TestMetricsEndToEnd drives a real aestored process — durable store,
// background scrub, metrics endpoint — with ordinary traffic and then
// reads the node's own accounting back two ways: the OpMetrics
// transport frame (Client.Metrics) and the -metricsaddr HTTP endpoint.
// Both must agree that the transport served the ops, the segment store
// appended the bytes, and the maintenance scheduler made progress.
func TestMetricsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs a child process")
	}
	bin := buildAestored(t)
	dir := t.TempDir()
	addr, metricsAddr := startAestoredMetrics(t, bin,
		"-data", filepath.Join(dir, "data"), "-scrubrate", "1048576")

	ctx := context.Background()
	c, err := transport.DialPool(addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	const puts = 32
	for i := 0; i < puts; i++ {
		if err := c.Put(ctx, fmt.Sprintf("k%02d", i), []byte(strings.Repeat("x", 512))); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	for i := 0; i < puts; i++ {
		if _, err := c.Get(ctx, fmt.Sprintf("k%02d", i)); err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
	}

	// The scrub pauses while foreground requests are in flight, so its
	// first runs land once this client goes quiet; poll for them.
	var snap obs.Snapshot
	deadline := time.Now().Add(20 * time.Second)
	for {
		snap, err = c.Metrics(ctx)
		if err != nil {
			t.Fatalf("Metrics: %v", err)
		}
		if snap.Counters["maintain/task.scrub.ops"] >= 1 && snap.Counters["segstore/scrub.scanned"] >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("scrub never ran; counters: %v", snap.Counters)
		}
		time.Sleep(100 * time.Millisecond)
	}

	// A snapshot is taken before the serving request's own bookkeeping
	// lands, so metrics.count excludes the in-flight call; fetch once
	// more so the poll's calls above are guaranteed to be counted.
	snap, err = c.Metrics(ctx)
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}

	// Transport accounting: every op this client issued is counted, and
	// the latency histograms carry real samples.
	if got := snap.Counters["transport/put.count"]; got < puts {
		t.Errorf("transport/put.count = %d, want >= %d", got, puts)
	}
	if got := snap.Counters["transport/get.count"]; got < puts {
		t.Errorf("transport/get.count = %d, want >= %d", got, puts)
	}
	if got := snap.Counters["transport/metrics.count"]; got < 1 {
		t.Errorf("transport/metrics.count = %d, want >= 1", got)
	}
	if got := snap.Counters["transport/put.bytes"]; got < puts*512 {
		t.Errorf("transport/put.bytes = %d, want >= %d", got, puts*512)
	}
	h, ok := snap.Hists["transport/put.latency"]
	if !ok || h.Count < puts {
		t.Fatalf("transport/put.latency count = %d (present %v), want >= %d", h.Count, ok, puts)
	}
	if p50, p99 := h.P50(), h.P99(); p50 <= 0 || p99 < p50 {
		t.Errorf("put latency percentiles insane: p50=%v p99=%v", p50, p99)
	}

	// Segment-store accounting: the puts landed as appends, and the
	// store's shape gauges see the live blocks.
	if got := snap.Counters["segstore/append.bytes"]; got < puts*512 {
		t.Errorf("segstore/append.bytes = %d, want >= %d", got, puts*512)
	}
	if got := snap.Gauges["segstore/blocks"]; got < puts {
		t.Errorf("segstore/blocks = %d, want >= %d", got, puts)
	}
	if ah, ok := snap.Hists["segstore/append.latency"]; !ok || ah.Count < 1 {
		t.Errorf("segstore/append.latency missing or empty (present %v)", ok)
	}

	// Maintenance accounting: the scrub's TaskStats surfaced, and the
	// scanned records were charged.
	if got := snap.Counters["maintain/task.scrub.ops"]; got < 1 {
		t.Errorf("maintain/task.scrub.ops = %d, want >= 1", got)
	}
	if got := snap.Counters["segstore/scrub.scanned"]; got < 1 {
		t.Errorf("segstore/scrub.scanned = %d, want >= 1", got)
	}

	// The HTTP endpoint serves the same registry: JSON parses into the
	// same layout version and carries the transport counters; the text
	// rendering mentions them too.
	httpGet := func(path string) []byte {
		t.Helper()
		resp, err := http.Get("http://" + metricsAddr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return body
	}
	var httpSnap obs.Snapshot
	if err := json.Unmarshal(httpGet("/metrics.json"), &httpSnap); err != nil {
		t.Fatalf("metrics.json did not parse: %v", err)
	}
	if httpSnap.Version != obs.SnapshotVersion {
		t.Fatalf("metrics.json layout version = %d, want %d", httpSnap.Version, obs.SnapshotVersion)
	}
	if got := httpSnap.Counters["transport/put.count"]; got < puts {
		t.Errorf("HTTP transport/put.count = %d, want >= %d", got, puts)
	}
	text := string(httpGet("/metrics"))
	for _, want := range []string{"transport/put.count", "transport/put.latency", "segstore/append.bytes", "maintain/task.scrub.runs"} {
		if !strings.Contains(text, want) {
			t.Errorf("text rendering lacks %q", want)
		}
	}
}
