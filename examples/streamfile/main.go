// Streaming file archival through the root package's Archive API: a
// 8 MiB payload flows through the concurrent encode pipeline into a
// BlockStore with bounded memory (the writer holds at most the pipeline's
// in-flight window of blocks), random damage is repaired, and the exact
// bytes stream back out — including a degraded read that regenerates
// missing blocks on the fly.
//
// Run with:
//
//	go run ./examples/streamfile
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"log"
	"math/rand"

	"aecodes"
)

const (
	blockSize   = 4096
	payloadSize = 8 << 20
)

func main() {
	ctx := context.Background()
	params := aecodes.Params{Alpha: 3, S: 2, P: 5}
	store := aecodes.NewMemoryStore(blockSize)

	// Encode: any io.Reader streams in; here an 8 MiB pseudorandom payload.
	// io.Copy hands the writer one bounded buffer at a time — the whole
	// payload is never resident.
	code, err := aecodes.New(params, blockSize)
	if err != nil {
		log.Fatal(err)
	}
	w, err := aecodes.NewArchiveWriterContext(ctx, code, store, aecodes.ArchiveOptions{
		Workers: 4,
		Depth:   4, // in-flight window: ≤ 4×4+2 blocks live at once
	})
	if err != nil {
		log.Fatal(err)
	}
	hasher := sha256.New()
	payload := io.TeeReader(io.LimitReader(rand.New(rand.NewSource(2018)), payloadSize), hasher)
	if _, err := io.Copy(w, payload); err != nil {
		log.Fatal(err)
	}
	if err := w.Close(); err != nil {
		log.Fatal(err)
	}
	wantSum := hasher.Sum(nil)
	fmt.Printf("streamed %d bytes into %d data blocks + %d parities (%v)\n",
		w.Bytes(), w.Blocks(), w.Blocks()*params.Alpha, params)

	// Damage: lose 10% of the data blocks.
	rng := rand.New(rand.NewSource(7))
	lost := 0
	for i := 1; i <= w.Blocks(); i++ {
		if rng.Float64() < 0.10 {
			store.LoseData(i)
			lost++
		}
	}
	fmt.Printf("lost %d data blocks\n", lost)

	// Degraded read: no repair pass — the reader rebuilds each missing
	// block from its strands as the stream crosses it (one XOR each).
	readCode, err := aecodes.New(params, blockSize)
	if err != nil {
		log.Fatal(err)
	}
	hasher.Reset()
	n, err := io.Copy(hasher, aecodes.OpenArchive(readCode, store))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("degraded read: %d bytes, checksum ok = %v\n", n, bytes.Equal(hasher.Sum(nil), wantSum))

	// Whole-system repair puts the lattice itself back to full redundancy:
	// one enumeration of the store, then per round one batched fetch of the
	// tuples it will XOR and one batched commit.
	stats, err := readCode.Repair(ctx, store, aecodes.RepairOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("repair: %d data blocks regenerated in %d round(s), data loss = %d\n",
		stats.DataRepaired, stats.Rounds, stats.DataLoss())

	// And the stream still matches.
	verifyCode, err := aecodes.New(params, blockSize)
	if err != nil {
		log.Fatal(err)
	}
	hasher.Reset()
	if _, err := io.Copy(hasher, aecodes.OpenArchive(verifyCode, store)); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("post-repair read: checksum ok = %v\n", bytes.Equal(hasher.Sum(nil), wantSum))
}
