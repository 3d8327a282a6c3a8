// Codec and layer benchmarks of the root package: AE encode and
// single-failure repair (the §III/§VII claims about lightweight XOR-only
// coding and a fixed two-block repair), the encode pipeline,
// whole-lattice repair rounds and archive reads.
//
//	go test -run '^$' -bench . -benchmem
//
// The encode and repair-round benchmarks are among those CI guards
// (GUARDED_BENCH in .github/workflows/ci.yml). Other layers' benchmarks
// live in their packages; the paper's tables and figures are printed by
// cmd/aebench.
package aecodes_test

import (
	"errors"
	"io"
	"math/rand"
	"testing"

	"aecodes"
	"aecodes/internal/entangle"
	"aecodes/internal/lattice"
	"aecodes/internal/pipeline"
	"aecodes/internal/segstore"
	"aecodes/internal/store/storetest"
	"aecodes/internal/xorblock"
)

// --- codec micro-benchmarks -------------------------------------------

const microBlockSize = 4096

func benchmarkEncodeAE(b *testing.B, params aecodes.Params) {
	b.Helper()
	code, err := aecodes.New(params, microBlockSize)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, microBlockSize)
	rand.New(rand.NewSource(1)).Read(data)
	b.SetBytes(microBlockSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := code.Entangle(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeAE1(b *testing.B) { benchmarkEncodeAE(b, aecodes.Params{Alpha: 1, S: 1, P: 0}) }
func BenchmarkEncodeAE2(b *testing.B) { benchmarkEncodeAE(b, aecodes.Params{Alpha: 2, S: 2, P: 5}) }
func BenchmarkEncodeAE3(b *testing.B) { benchmarkEncodeAE(b, aecodes.Params{Alpha: 3, S: 2, P: 5}) }

// BenchmarkRepairSingleFailureAE3 measures AE's fixed two-block repair.
func BenchmarkRepairSingleFailureAE3(b *testing.B) {
	code, err := aecodes.New(aecodes.Params{Alpha: 3, S: 2, P: 5}, microBlockSize)
	if err != nil {
		b.Fatal(err)
	}
	store := aecodes.NewMemoryStore(microBlockSize)
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, microBlockSize)
	for i := 1; i <= 100; i++ {
		rng.Read(data)
		ent, err := code.Entangle(data)
		if err != nil {
			b.Fatal(err)
		}
		if err := store.PutData(bg, ent.Index, data); err != nil {
			b.Fatal(err)
		}
		for _, p := range ent.Parities {
			if err := store.PutParity(bg, p.Edge, p.Data); err != nil {
				b.Fatal(err)
			}
		}
	}
	store.LoseData(50)
	b.SetBytes(microBlockSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := code.RepairData(bg, store, 50); err != nil {
			b.Fatal(err)
		}
	}
}

// --- pipeline benchmarks ---------------------------------------------

// pipeBlockSize is the 1 MiB block size of the encode-throughput
// acceptance target: pipelined AE(3,5,5) encode must beat sequential by
// ≥2× (compare BenchmarkEncodeSequentialAE355 with
// BenchmarkEncodePipelinedAE355 MB/s).
const pipeBlockSize = 1 << 20

// pipeBatch is how many blocks one benchmark iteration encodes.
const pipeBatch = 32

var pipeParams = lattice.Params{Alpha: 3, S: 5, P: 5}

// BenchmarkEncodeSequentialAE355 is the single-goroutine baseline:
// allocation-free EntangleInto, one strand op at a time.
func BenchmarkEncodeSequentialAE355(b *testing.B) {
	enc, err := entangle.NewEncoder(pipeParams, pipeBlockSize)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, pipeBlockSize)
	rand.New(rand.NewSource(1)).Read(data)
	bufs := make([][]byte, pipeParams.Alpha)
	for i := range bufs {
		bufs[i] = make([]byte, pipeBlockSize)
	}
	b.SetBytes(int64(pipeBlockSize) * pipeBatch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < pipeBatch; j++ {
			if _, err := enc.EntangleInto(data, bufs); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkEncodePipelinedAE355 runs the same workload through the strand-
// sharded worker pipeline with pooled buffers.
func BenchmarkEncodePipelinedAE355(b *testing.B) {
	enc, err := entangle.NewEncoder(pipeParams, pipeBlockSize)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, pipeBlockSize)
	rand.New(rand.NewSource(1)).Read(data)
	pool := xorblock.PoolFor(pipeBlockSize)
	fill := func(_ int, buf []byte) { copy(buf, data) }
	b.SetBytes(int64(pipeBlockSize) * pipeBatch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pipeline.EncodePooled(bg, enc, pipeBatch, fill, pipeline.NullSink{}, pool, pipeline.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchmarkRepairRound measures whole-lattice round-based repair latency
// after a 30% correlated failure, serial vs parallel planning, with the
// most fetched block bytes the repair held at once (peak-MiB/op): at most
// one window of a round.
func benchmarkRepairRound(b *testing.B, workers int) {
	const n, blockSize = 400, 32 << 10
	params := lattice.Params{Alpha: 3, S: 2, P: 5}
	lat, err := lattice.New(params)
	if err != nil {
		b.Fatal(err)
	}
	rep, err := entangle.NewRepairer(params, blockSize)
	if err != nil {
		b.Fatal(err)
	}
	build := func() *entangle.MemoryStore {
		enc, err := entangle.NewEncoder(params, blockSize)
		if err != nil {
			b.Fatal(err)
		}
		store := entangle.NewMemoryStore(blockSize)
		data := make([]byte, blockSize)
		rng := rand.New(rand.NewSource(7))
		for i := 1; i <= n; i++ {
			rng.Read(data)
			ent, err := enc.Entangle(data)
			if err != nil {
				b.Fatal(err)
			}
			if err := store.PutData(bg, ent.Index, data); err != nil {
				b.Fatal(err)
			}
			for _, p := range ent.Parities {
				if err := store.PutParity(bg, p.Edge, p.Data); err != nil {
					b.Fatal(err)
				}
			}
		}
		dmg := rand.New(rand.NewSource(99))
		for i := 1; i <= n; i++ {
			if dmg.Float64() < 0.3 {
				store.LoseData(i)
			}
			for _, class := range lat.Classes() {
				if dmg.Float64() < 0.3 {
					e, err := lat.OutEdge(class, i)
					if err != nil {
						b.Fatal(err)
					}
					store.LoseParity(e)
				}
			}
		}
		return store
	}
	var peak int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		held := &storetest.Held{BlockStore: build()}
		b.StartTimer()
		if _, err := rep.Repair(bg, held, entangle.Options{Workers: workers}); err != nil {
			b.Fatal(err)
		}
		peak = max(peak, held.Peak())
	}
	b.ReportMetric(float64(peak*blockSize)/(1<<20), "peak-MiB/op")
}

func BenchmarkRepairRoundsSerial(b *testing.B)   { benchmarkRepairRound(b, 1) }
func BenchmarkRepairRoundsParallel(b *testing.B) { benchmarkRepairRound(b, 8) }

// BenchmarkArchiveRead streams an archive back out of a segstore.Lattice
// in 1 MiB Read calls at three block sizes, clean and with 15 % of its
// data blocks and of its parities deleted. The small sizes show what a
// goroutine hand-off per window costs where a window is only 64 KiB; the
// damaged 1 MiB case shows a window's missing blocks decoded in one batch.
// The damage spares the last pp-tuple of every deleted data block, so the
// stream always completes and some blocks need their second or third
// tuple.
func BenchmarkArchiveRead(b *testing.B) {
	params := aecodes.Params{Alpha: 3, S: 2, P: 5}
	for _, size := range []struct {
		name              string
		blockSize, blocks int
	}{{"4KiB", 4 << 10, 1024}, {"64KiB", 64 << 10, 256}, {"1MiB", 1 << 20, 64}} {
		seg, err := segstore.Open(b.TempDir(), segstore.Options{})
		if err != nil {
			b.Fatal(err)
		}
		view, err := segstore.NewLattice(seg, segstore.Shape{Params: params, BlockSize: size.blockSize})
		if err != nil {
			b.Fatal(err)
		}
		code, err := aecodes.New(params, size.blockSize)
		if err != nil {
			b.Fatal(err)
		}
		payload := make([]byte, size.blocks*(size.blockSize-8))
		rand.New(rand.NewSource(1)).Read(payload)
		w, err := aecodes.NewArchiveWriter(code, view, aecodes.ArchiveOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := w.Write(payload); err != nil {
			b.Fatal(err)
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
		read := func(b *testing.B) {
			buf := make([]byte, 1<<20)
			b.SetBytes(int64(len(payload)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := aecodes.OpenArchive(code, view)
				total := 0
				for {
					n, err := r.Read(buf)
					total += n
					if errors.Is(err, io.EOF) {
						break
					}
					if err != nil {
						b.Fatal(err)
					}
				}
				if total != len(payload) {
					b.Fatalf("read %d bytes of %d", total, len(payload))
				}
			}
		}
		b.Run(size.name+"/clean", read)

		rng := rand.New(rand.NewSource(2))
		spared := make(map[aecodes.Edge]bool)
		for i := 1; i <= size.blocks; i++ {
			if rng.Float64() < 0.15 {
				seg.Del(aecodes.DataRef(i).String())
				tuples, err := code.Lattice().Tuples(i)
				if err != nil {
					b.Fatal(err)
				}
				last := tuples[len(tuples)-1]
				spared[last.In], spared[last.Out] = true, true
			}
		}
		for i := 1; i <= size.blocks; i++ {
			tuples, err := code.Lattice().Tuples(i)
			if err != nil {
				b.Fatal(err)
			}
			for _, tu := range tuples {
				if !spared[tu.Out] && rng.Float64() < 0.15 {
					seg.Del(aecodes.ParityRef(tu.Out).String())
				}
			}
		}
		b.Run(size.name+"/damaged", read)
		if err := seg.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
