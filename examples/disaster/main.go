// Disaster recovery across locations: the §V.C experiment in miniature
// and with real block content. 10,000 blocks are entangled with
// AE(3,2,5) and spread over 100 locations by a hash of their names; a
// disaster knocks out 30% of the locations, losing every block placed
// there; round-based repair regenerates everything reachable.
//
// Run with:
//
//	go run ./examples/disaster
package main

import (
	"cmp"
	"context"
	"fmt"
	"log"
	"math/rand"
	"slices"

	"aecodes"
	"aecodes/internal/failure"
	"aecodes/internal/placement"
)

const (
	blockSize = 256
	locations = 100
	dataCount = 10_000
	disaster  = 0.30
)

func main() {
	ctx := context.Background()
	place, err := placement.NewKeyHash(locations)
	if err != nil {
		log.Fatal(err)
	}
	code, err := aecodes.New(aecodes.Params{Alpha: 3, S: 2, P: 5}, blockSize)
	if err != nil {
		log.Fatal(err)
	}
	st := aecodes.NewMemoryStore(blockSize)

	// Entangle and store.
	rng := rand.New(rand.NewSource(11))
	buf := make([]byte, blockSize)
	for i := 1; i <= dataCount; i++ {
		rng.Read(buf)
		ent, err := code.Entangle(buf)
		if err != nil {
			log.Fatal(err)
		}
		if err := st.PutData(ctx, ent.Index, buf); err != nil {
			log.Fatal(err)
		}
		for _, p := range ent.Parities {
			if err := st.PutParity(ctx, p.Edge, p.Data); err != nil {
				log.Fatal(err)
			}
		}
	}
	fmt.Printf("placed %d data + %d parity blocks over %d locations\n",
		dataCount, st.ParityCount(), locations)

	// Disaster: 30% of locations become unavailable at once, and with
	// them every block their name hashes to.
	d, err := failure.NewDisaster(rng, locations, disaster)
	if err != nil {
		log.Fatal(err)
	}
	failed := d.FailedSet()
	for i := 1; i <= dataCount; i++ {
		if failed[place.PlaceKey(aecodes.DataRef(i).String())] {
			st.LoseData(i)
		}
	}
	for _, e := range code.Lattice().RealOutEdges(dataCount) {
		if failed[place.PlaceKey(aecodes.ParityRef(e).String())] {
			st.LoseParity(e)
		}
	}
	fmt.Printf("disaster hit %d locations: %d data blocks and %d parities unavailable\n",
		len(d.Failed), len(st.MissingData()), len(st.MissingParities()))

	// Round-based repair regenerates everything it can reach.
	stats, err := code.Repair(ctx, st, aecodes.RepairOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("repair finished in %d rounds: %d data + %d parity blocks regenerated\n",
		stats.Rounds, stats.DataRepaired, stats.ParityRepaired)
	for _, rs := range stats.PerRound {
		fmt.Printf("  round %2d: %5d data  %5d parities\n",
			rs.Round, rs.DataRepaired, rs.ParityRepaired)
	}
	fmt.Printf("data loss: %d of %d blocks (%.4f%%)\n",
		stats.DataLoss(), dataCount, 100*float64(stats.DataLoss())/dataCount)

	// What the store still misses is exactly what repair reported lost.
	left, err := st.Missing(ctx)
	if err != nil {
		log.Fatal(err)
	}
	byEdge := func(a, b aecodes.Edge) int {
		return cmp.Or(cmp.Compare(a.Class, b.Class), cmp.Compare(a.Left, b.Left), cmp.Compare(a.Right, b.Right))
	}
	lostData := slices.Sorted(slices.Values(stats.UnrepairedData))
	lostPar := slices.SortedFunc(slices.Values(stats.UnrepairedParities), byEdge)
	if !slices.Equal(left.Data, lostData) || !slices.Equal(left.Parities, lostPar) {
		log.Fatalf("store misses %d data + %d parities after repair, repair reported %d + %d",
			len(left.Data), len(left.Parities), len(lostData), len(lostPar))
	}
	if stats.DataLoss() == 0 {
		fmt.Println("every data block survived a 30% correlated disaster")
	}
}
