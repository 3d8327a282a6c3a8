package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"time"

	"aecodes"
	"aecodes/internal/lattice"
	"aecodes/internal/obs"
	"aecodes/internal/segstore"
	"aecodes/internal/store"
)

// archiveStore is one segment store with a lattice view on it, optionally
// traced: what an archive is written into.
type archiveStore struct {
	seg  *segstore.Store
	view *segstore.Lattice
	bs   store.BlockStore // view, or the traced wrapper around it
}

// openArchiveStore opens the store in dir. A fresh store gets a new
// lattice view; reopen restores the view the directory already holds,
// which is what the durability check does after closing it. The store
// fsyncs where segstore always does, on segment seal and Close, like the
// fleet's durable nodes.
func openArchiveStore(dir string, blockSize int, reopen bool, tr *tracer) (*archiveStore, error) {
	seg, err := segstore.Open(dir, segstore.Options{})
	if err != nil {
		return nil, err
	}
	var view *segstore.Lattice
	if reopen {
		view, err = segstore.OpenLattice(seg)
	} else {
		view, err = segstore.NewLattice(seg, segstore.Shape{Params: codeParams, BlockSize: blockSize})
	}
	if err != nil {
		seg.Close()
		return nil, err
	}
	a := &archiveStore{seg: seg, view: view, bs: view}
	if tr != nil {
		a.bs = &tracedStore{inner: view, t: tr}
	}
	return a, nil
}

// writeArchive streams payload through a fresh writer in archiveOpBytes
// calls, timing each, and returns the data blocks written.
func writeArchive(ctx context.Context, st store.BlockStore, blockSize int, payload []byte, tr *tracer) (lats []float64, blocks int, err error) {
	code, err := aecodes.New(codeParams, blockSize)
	if err != nil {
		return nil, 0, err
	}
	w, err := aecodes.NewArchiveWriterContext(ctx, code, st, aecodes.ArchiveOptions{})
	if err != nil {
		return nil, 0, err
	}
	for off := 0; off < len(payload); off += archiveOpBytes {
		end := tr.op(spanWrite)
		t := time.Now()
		_, err := w.Write(payload[off:min(off+archiveOpBytes, len(payload))])
		d := time.Since(t)
		end()
		if err != nil {
			w.Close()
			return nil, 0, fmt.Errorf("archive Write at %d: %w", off, err)
		}
		lats = append(lats, ms(d))
	}
	// Close drains the pipeline: part of the phase, not one of its ops.
	end := tr.op("archive.close")
	err = w.Close()
	end()
	if err != nil {
		return nil, 0, fmt.Errorf("archive Close: %w", err)
	}
	return lats, w.Blocks(), nil
}

// readArchive streams the archive back through a fresh reader in
// archiveOpBytes calls, timing each. It reads into buf, which must have
// room for one byte more than the archive holds, so a too-long archive
// shows; the caller reuses buf across reads, which keeps first-touch page
// faults of a fresh buffer out of the timings.
func readArchive(ctx context.Context, st store.BlockStore, blockSize int, buf []byte, tr *tracer) (lats []float64, got []byte, err error) {
	code, err := aecodes.New(codeParams, blockSize)
	if err != nil {
		return nil, nil, err
	}
	r := aecodes.OpenArchiveContext(ctx, code, st, aecodes.ArchiveOptions{})
	off := 0
	for off < len(buf) {
		end := tr.op(spanAread)
		t := time.Now()
		n, err := r.Read(buf[off:min(off+archiveOpBytes, len(buf))])
		d := time.Since(t)
		end()
		off += n
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, nil, fmt.Errorf("archive Read at %d: %w", off, err)
		}
		lats = append(lats, ms(d))
	}
	return lats, buf[:off], nil
}

// runArchiveCycle is one lifecycle of the in-process archive path: no
// network, no tenant, no router; the archive API over a segstore.Lattice.
func (e *env) runArchiveCycle(ctx context.Context, w workload, cycle int, traced bool, dir string) (*cycleResult, error) {
	r := newCycleResult(traced)
	cpuBefore := selfUsage()
	lat, err := lattice.New(codeParams)
	if err != nil {
		return nil, err
	}
	payload := e.inputs[0].slab
	userBytes := float64(len(payload))
	var tr *tracer
	if traced {
		tr = newTracer(0, time.Now())
	}
	deltas := map[string]snapDelta{}
	// The stores are in this process, so its own registry is the
	// server-side view.
	window := func(phase string) func() {
		before := obs.Default.Snapshot()
		tr.setPhase(phase)
		return func() {
			tr.setPhase("")
			deltas[phase] = diffSnap(before, obs.Default.Snapshot())
		}
	}

	// Set-up: open the store and stream a small throwaway archive into a
	// second one, so pools and the page cache are warm.
	setupStart := time.Now()
	warmStore, err := openArchiveStore(filepath.Join(dir, "warm"), w.blockSize, false, nil)
	if err != nil {
		return nil, err
	}
	_, _, err = writeArchive(ctx, warmStore.bs, w.blockSize, payload[:min(w.warm*archiveOpBytes, len(payload))], nil)
	warmStore.seg.Close()
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	dataDir := filepath.Join(dir, "data")
	st, err := openArchiveStore(dataDir, w.blockSize, false, tr)
	if err != nil {
		return nil, err
	}
	defer func() { st.seg.Close() }()
	r.vals["setup_s"] = time.Since(setupStart).Seconds()

	// Ingest.
	done := window(phaseIngest)
	start := time.Now()
	lats, blocks, err := writeArchive(ctx, st.bs, w.blockSize, payload, tr)
	r.wall[phaseIngest] = time.Since(start)
	done()
	if err != nil {
		return nil, err
	}
	if err := st.view.SetBlocks(blocks); err != nil {
		return nil, err
	}
	r.samples[phaseIngest] = lats
	r.attempted += len(lats)
	r.vals["ingest_mb_s"] = userBytes / 1e6 / r.wall[phaseIngest].Seconds()
	stored, err := dirBytes(dataDir)
	if err != nil {
		return nil, err
	}
	r.vals["stored_bytes_per_user_byte"] = float64(stored) / userBytes

	// Durability: close the store, open the directory again, and ask for
	// every block the writer was told is stored.
	if err := st.seg.Close(); err != nil {
		return nil, err
	}
	reopenStart := time.Now()
	reopened, err := openArchiveStore(dataDir, w.blockSize, true, tr)
	if err != nil {
		return nil, err
	}
	recoverTime := time.Since(reopenStart)
	st = reopened // the deferred Close now closes this one; the old one is closed
	seg := st.seg
	keys := archiveKeys(lat, blocks)
	for i, size := range seg.StatBatch(keys) {
		r.check(size == w.blockSize, "durability: block %s gone after reopening the store", keys[i])
	}

	// Restore.
	done = window(phaseRestore)
	start = time.Now()
	lats, got, err := readArchive(ctx, st.bs, w.blockSize, e.readBuf, tr)
	r.wall[phaseRestore] = time.Since(start)
	done()
	if err != nil {
		return nil, err
	}
	r.samples[phaseRestore] = lats
	r.attempted += len(lats)
	r.check(bytes.Equal(got, payload), "restore: archive read back differs from what was written")
	r.vals["restore_mb_s"] = userBytes / 1e6 / r.wall[phaseRestore].Seconds()

	// Damage: a seeded 15 % of data and parity blocks, remembering what
	// each one held.
	d, err := pickDamage(lat, blocks, true, newRand(e.seed, cycle, 3))
	if err != nil {
		return nil, err
	}
	lost := map[string][sha256.Size]byte{}
	for _, i := range d.data {
		lost[store.DataRef(i).String()] = [sha256.Size]byte{}
	}
	for _, edge := range d.parities {
		lost[store.ParityRef(edge).String()] = [sha256.Size]byte{}
	}
	for key := range lost {
		b, ok := seg.Get(key)
		if !ok {
			return nil, fmt.Errorf("block %s missing before damage", key)
		}
		lost[key] = sha256.Sum256(b)
		seg.Del(key)
	}

	// Degraded: stream the whole archive through the damaged store.
	done = window(phaseDegraded)
	start = time.Now()
	lats, got, err = readArchive(ctx, st.bs, w.blockSize, e.readBuf, tr)
	r.wall[phaseDegraded] = time.Since(start)
	done()
	if err != nil {
		return nil, err
	}
	r.samples[phaseDegraded] = lats
	r.attempted += len(lats)
	r.check(bytes.Equal(got, payload), "degraded: archive read back differs from what was written")

	// Repair to convergence.
	code, err := aecodes.New(codeParams, w.blockSize)
	if err != nil {
		return nil, err
	}
	done = window(phaseRepair)
	end := tr.op(spanArepair)
	start = time.Now()
	stats, err := code.Repair(ctx, st.bs, aecodes.RepairOptions{})
	r.wall[phaseRepair] = time.Since(start)
	end()
	done()
	if err != nil {
		return nil, fmt.Errorf("Repair: %w", err)
	}
	rebuilt := stats.DataRepaired + stats.ParityRepaired
	left := len(stats.UnrepairedData) + len(stats.UnrepairedParities)
	r.attempted += rebuilt + left
	if left > 0 {
		r.fail(left, "repair: %d blocks left unrepaired", left)
	}
	r.vals["repair_blocks_s"] = float64(rebuilt) / r.wall[phaseRepair].Seconds()
	r.vals["repair_read_blocks_per_block"] = ratio(float64(stats.BytesRead)/float64(w.blockSize), float64(rebuilt))

	// After repair: healthy, and every deleted block is back unchanged.
	h, err := code.Health(ctx, st.view, blocks)
	if err != nil {
		return nil, fmt.Errorf("Health: %w", err)
	}
	r.check(h.Healthy(), "after repair: store still misses %d data and %d parity blocks", h.MissingData(), h.MissingParities())
	for key, want := range lost {
		b, ok := seg.Get(key)
		r.check(ok && sha256.Sum256(b) == want, "after repair: block %s differs from what was deleted", key)
	}
	segStats := seg.Stats()
	diskBytes, err := dirBytes(dataDir)
	if err != nil {
		return nil, err
	}
	if err := seg.Close(); err != nil {
		return nil, err
	}

	self := selfUsage()
	gib := userBytes / (1 << 30)
	cpu := self.cpuS - cpuBefore.cpuS
	r.vals["cpu_s_per_user_gib"] = cpu / gib
	r.vals["peak_rss_mib"] = self.maxRSSMiB
	r.vals["failed_ops_share"] = ratio(float64(r.failed), float64(r.attempted))
	r.vals["proc.client_cpu_s_per_user_gib"] = cpu / gib
	r.vals["proc.client_peak_rss_mib"] = self.maxRSSMiB
	r.spans = tr.take()

	if traced {
		in := archiveLayerInputs{
			w: w, blocks: blocks, deltas: deltas, userBytes: userBytes,
			liveBytes: float64(segStats.LiveBytes), deadBytes: float64(segStats.DeadBytes),
			diskBytes: diskBytes, recoverTime: recoverTime, repairRounds: stats.Rounds,
		}
		in.fill(r)
	}
	return r, nil
}

// archiveKeys names every block an archive of n data blocks stores, as
// the lattice view keys them.
func archiveKeys(lat *lattice.Lattice, n int) []string {
	keys := make([]string, 0, n*(1+codeParams.Alpha))
	for i := 1; i <= n; i++ {
		keys = append(keys, store.DataRef(i).String())
	}
	for _, e := range lat.RealOutEdges(n) {
		keys = append(keys, store.ParityRef(e).String())
	}
	return keys
}
