// The transport and segstore experiments put the node-facing hot paths
// under the same machine-readable measurement (and CI bench-guard watch)
// as the codec: batched round-trips over real loopback sockets, and the
// durable log's append and recovery rates.
package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"time"

	"aecodes/internal/benchfmt"
	"aecodes/internal/obs"
	"aecodes/internal/segstore"
	"aecodes/internal/store"
	"aecodes/internal/transport"
)

// latMeter collects per-iteration latencies into a private obs
// histogram — the same log-scale buckets production metrics use — and
// surfaces the interpolated tails for the benchmark document, so the
// guard watches p99/p999 with exactly the resolution operators get.
type latMeter struct{ h *obs.Histogram }

func newLatMeter() latMeter { return latMeter{h: obs.NewHistogram()} }

// time runs fn and records its wall time.
func (m latMeter) time(fn func() error) error {
	start := time.Now()
	err := fn()
	m.h.Record(time.Since(start).Nanoseconds())
	return err
}

// tails returns the recorded p99 and p999 in nanoseconds.
func (m latMeter) tails() (p99, p999 float64) {
	snap := m.h.Snapshot()
	return snap.P99(), snap.P999()
}

// netConfig sizes the transport and segstore experiments.
type netConfig struct {
	blockSize int // bytes per block
	blocks    int // blocks per batch
	batches   int // measured batches
}

// mbps converts blocks moved in a duration to MB/s.
func (c netConfig) mbps(batches int, d time.Duration) float64 {
	return float64(batches) * float64(c.blocks) * float64(c.blockSize) / (1 << 20) / d.Seconds()
}

// copyMeter reads the process-wide hotpath/copied_bytes counter from an
// obs snapshot so each measured phase can report block-payload bytes
// copied per block moved — the zero-copy path's guarded number.
type copyMeter struct{ start int64 }

func copiedBytes() int64 { return obs.Default.Snapshot().Counters["hotpath/copied_bytes"] }

func startCopyMeter() copyMeter { return copyMeter{start: copiedBytes()} }

// perBlock returns copied bytes per block for n blocks moved since the
// snapshot, as a pointer because a measured zero must be recorded (and
// guarded), not omitted.
func (m copyMeter) perBlock(n int) *float64 {
	v := float64(copiedBytes()-m.start) / float64(n)
	return &v
}

// transportBench measures the batch ops end to end over a real TCP
// loopback: a server over a MemStore, a pooled pipelined client, and
// one PutMany / GetMany / StatMany frame per batch — the exact shape a
// repair round's commit, prefetch and enumeration travel in.
func transportBench(cfg netConfig) error {
	srv, err := transport.NewServer(transport.NewMemStore())
	if err != nil {
		return err
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	pool, err := transport.DialPool(addr, 2)
	if err != nil {
		return err
	}
	defer pool.Close()

	ctx := context.Background()
	rng := rand.New(rand.NewSource(11))
	items := make([]transport.KV, cfg.blocks)
	keys := make([]string, cfg.blocks)
	for i := range items {
		data := make([]byte, cfg.blockSize)
		rng.Read(data)
		keys[i] = fmt.Sprintf("block-%04d", i)
		items[i] = transport.KV{Key: keys[i], Data: data}
	}
	fmt.Printf("Transport batch round-trips — loopback TCP, %d batches of %d × %d KiB\n",
		cfg.batches, cfg.blocks, cfg.blockSize>>10)

	putMeter, putLat := startCopyMeter(), newLatMeter()
	start := time.Now()
	for b := 0; b < cfg.batches; b++ {
		if err := putLat.time(func() error { return pool.PutMany(ctx, items) }); err != nil {
			return err
		}
	}
	put := time.Since(start)
	putCopied := putMeter.perBlock(cfg.batches * cfg.blocks)
	putP99, putP999 := putLat.tails()

	getMeter, getLat := startCopyMeter(), newLatMeter()
	start = time.Now()
	for b := 0; b < cfg.batches; b++ {
		err := getLat.time(func() error {
			blocks, err := pool.GetMany(ctx, keys)
			if err != nil {
				return err
			}
			if len(blocks) != len(keys) || blocks[0] == nil {
				return fmt.Errorf("aebench: GetMany returned a damaged batch")
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	get := time.Since(start)
	getCopied := getMeter.perBlock(cfg.batches * cfg.blocks)
	getP99, getP999 := getLat.tails()

	// StatMany moves ~1 byte per key either way: report round-trips/s
	// via ns/op instead of a (meaningless) MB/s.
	const statBatches = 200
	statLat := newLatMeter()
	start = time.Now()
	for b := 0; b < statBatches; b++ {
		err := statLat.time(func() error {
			flags, err := pool.StatMany(ctx, keys)
			if err != nil {
				return err
			}
			if len(flags) != len(keys) || !flags[0] {
				return fmt.Errorf("aebench: StatMany returned a damaged batch")
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	stat := time.Since(start)
	statP99, statP999 := statLat.tails()

	fmt.Printf("  putmany:  %8.1f MB/s (%v, %.0f bytes copied/block, batch p99 %s)\n",
		cfg.mbps(cfg.batches, put), put.Round(time.Millisecond), *putCopied, time.Duration(putP99))
	fmt.Printf("  getmany:  %8.1f MB/s (%v, %.0f bytes copied/block, batch p99 %s)\n",
		cfg.mbps(cfg.batches, get), get.Round(time.Millisecond), *getCopied, time.Duration(getP99))
	fmt.Printf("  statmany: %8.0f ns/frame of %d keys (p99 %s)\n",
		float64(stat.Nanoseconds())/statBatches, len(keys), time.Duration(statP99))
	record(benchfmt.Result{Experiment: "transport", Name: "putmany",
		NsPerOp: float64(put.Nanoseconds()) / float64(cfg.batches*cfg.blocks), MBps: cfg.mbps(cfg.batches, put),
		BytesBlock: putCopied, P99Ns: putP99, P999Ns: putP999})
	record(benchfmt.Result{Experiment: "transport", Name: "getmany",
		NsPerOp: float64(get.Nanoseconds()) / float64(cfg.batches*cfg.blocks), MBps: cfg.mbps(cfg.batches, get),
		BytesBlock: getCopied, P99Ns: getP99, P999Ns: getP999})
	record(benchfmt.Result{Experiment: "transport", Name: "statmany",
		NsPerOp: float64(stat.Nanoseconds()) / statBatches, P99Ns: statP99, P999Ns: statP999})
	return nil
}

// segstoreBench measures the durable log's two hot paths: batched
// appends (the write path of every backup and repair commit on a
// durable node) and the recovery scan a restart pays to rebuild its
// index.
func segstoreBench(cfg netConfig) error {
	dir, err := os.MkdirTemp("", "aebench-segstore-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	s, err := segstore.Open(dir, segstore.Options{})
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(13))
	fmt.Printf("Segstore append/recovery — %d batches of %d × %d KiB\n",
		cfg.batches, cfg.blocks, cfg.blockSize>>10)

	// Payloads and keys are generated outside the timed loop: the append
	// measurement should price the store, not the PRNG. One batch worth
	// of blocks is reused across batches under fresh keys.
	data := make([][]byte, cfg.blocks)
	for i := range data {
		data[i] = make([]byte, cfg.blockSize)
		rng.Read(data[i])
	}
	batchKeys := make([][]string, cfg.batches)
	for b := range batchKeys {
		batchKeys[b] = make([]string, cfg.blocks)
		for i := range batchKeys[b] {
			batchKeys[b][i] = fmt.Sprintf("b%02d-k%04d", b, i)
		}
	}
	items := make([]store.KV, cfg.blocks)
	appendMeter, appendLat := startCopyMeter(), newLatMeter()
	start := time.Now()
	for b := 0; b < cfg.batches; b++ {
		for i := range items {
			items[i] = store.KV{Key: batchKeys[b][i], Data: data[i]}
		}
		if err := appendLat.time(func() error { return s.PutBatch(items) }); err != nil {
			s.Close()
			return err
		}
	}
	appendD := time.Since(start)
	appendP99, appendP999 := appendLat.tails()
	appendCopied := appendMeter.perBlock(cfg.batches * cfg.blocks)
	if err := s.Close(); err != nil {
		return err
	}

	start = time.Now()
	s, err = segstore.Open(dir, segstore.Options{})
	if err != nil {
		return err
	}
	recoverD := time.Since(start)
	blocks := s.Len()
	if err := s.Close(); err != nil {
		return err
	}
	if blocks != cfg.batches*cfg.blocks {
		return fmt.Errorf("aebench: recovery found %d blocks, want %d", blocks, cfg.batches*cfg.blocks)
	}

	fmt.Printf("  append:  %8.1f MB/s (%v, %.0f bytes copied/block, batch p99 %s)\n",
		cfg.mbps(cfg.batches, appendD), appendD.Round(time.Millisecond), *appendCopied, time.Duration(appendP99))
	fmt.Printf("  recover: %8.1f MB/s (%v for %d blocks)\n",
		cfg.mbps(cfg.batches, recoverD), recoverD.Round(time.Millisecond), blocks)
	record(benchfmt.Result{Experiment: "segstore", Name: "append",
		NsPerOp: float64(appendD.Nanoseconds()) / float64(blocks), MBps: cfg.mbps(cfg.batches, appendD),
		BytesBlock: appendCopied, P99Ns: appendP99, P999Ns: appendP999})
	record(benchfmt.Result{Experiment: "segstore", Name: "recover",
		NsPerOp: float64(recoverD.Nanoseconds()) / float64(blocks), MBps: cfg.mbps(cfg.batches, recoverD)})
	return nil
}
