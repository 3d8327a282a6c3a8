// Cooperative geo-replicated backup over TCP (§IV.A of the paper): a
// community of storage nodes holds entangled parities for each user; the
// user's broker entangles locally, uploads parities, and can survive both
// storage-node failures and the loss of its own machine.
//
// This example starts five real TCP storage nodes in-process, backs up a
// payload through a broker, then walks the failure modes of Fig 5 and
// Table III.
//
// Run with:
//
//	go run ./examples/cooperative
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"math/rand"

	"aecodes"
	"aecodes/internal/cooperative"
	"aecodes/internal/transport"
)

const (
	blockSize = 512
	nodeCount = 5
)

func main() {
	ctx := context.Background()
	// Lower tier: five storage nodes, each a real TCP server.
	stores := make([]*transport.MemStore, nodeCount)
	servers := make([]*transport.Server, nodeCount)
	nodes := make([]cooperative.NodeStore, nodeCount)
	for i := range servers {
		stores[i] = transport.NewMemStore()
		srv, err := transport.NewServer(stores[i])
		if err != nil {
			log.Fatal(err)
		}
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		client, err := transport.DialPool(addr, 1)
		if err != nil {
			log.Fatal(err)
		}
		servers[i] = srv
		nodes[i] = client
		fmt.Printf("storage node %d listening on %s\n", i, addr)
	}
	defer func() {
		for _, srv := range servers {
			srv.Close()
		}
	}()

	// Upper tier: alice's broker entangles with AE(3,2,5).
	params := aecodes.Params{Alpha: 3, S: 2, P: 5}
	broker, err := cooperative.NewBroker("alice", params, blockSize, nodes)
	if err != nil {
		log.Fatal(err)
	}

	rng := rand.New(rand.NewSource(5))
	originals := make([][]byte, 41)
	for i := 1; i <= 40; i++ {
		data := make([]byte, blockSize)
		rng.Read(data)
		originals[i] = data
		if _, err := broker.Backup(ctx, data); err != nil {
			log.Fatal(err)
		}
	}
	perNode := make([]int, nodeCount)
	for i, s := range stores {
		perNode[i] = s.Len()
	}
	fmt.Printf("backed up 40 blocks; parities per node: %v\n", perNode)

	// Failure mode 1 (Fig 5): the user's machine dies. Every block is
	// decoded from remote parities.
	broker.DropLocal()
	ok := true
	for i := 1; i <= 40; i++ {
		got, err := broker.Read(ctx, i)
		if err != nil {
			log.Fatalf("Read(%d): %v", i, err)
		}
		if !bytes.Equal(got, originals[i]) {
			ok = false
		}
	}
	fmt.Printf("local machine lost: all 40 blocks decoded from the network, content ok = %v\n", ok)

	// Failure mode 2 (Table III): a storage node loses its disk; the
	// broker regenerates the missing parities from dp-tuples and
	// re-uploads them.
	lost := stores[2].Len()
	stores[2].Clear()
	stats, err := broker.Repair(ctx, aecodes.RepairOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("node 2 wiped (%d parities): regenerated %d parities in %d round(s)\n",
		lost, stats.ParityRepaired, stats.Rounds)

	// Failure mode 3: broker crash. A fresh broker recovers the strand
	// heads from the network (§IV.A) and keeps encoding identically.
	recovered, err := cooperative.NewBroker("alice", params, blockSize, nodes)
	if err != nil {
		log.Fatal(err)
	}
	local := make(map[int][]byte, 40)
	for i := 1; i <= 40; i++ {
		local[i] = originals[i]
	}
	if err := recovered.RecoverState(ctx, cooperative.RecoverOptions{Count: 40, Local: local}); err != nil {
		log.Fatal(err)
	}
	extra := make([]byte, blockSize)
	rng.Read(extra)
	pos, err := recovered.Backup(ctx, extra)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("broker recovered after crash and continued at position %d\n", pos)
}
