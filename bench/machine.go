package main

import (
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// This sandbox runs at speeds up to a third apart, for minutes at a time,
// whatever the program under test does: its neighbours take memory
// bandwidth and cache, which slows copying bytes and the kernel's socket
// path and leaves arithmetic alone (README, "Machine speed"). A whole run
// falls into one such spell, so no statistic over a run's lifecycles
// removes it. Each lifecycle therefore measures, before and after, how
// fast the machine does a miniature of the fleet's kind of work, made of
// nothing of the program under test, and reports its timings as they
// would have been at the reference speed.

const (
	// probeFrame is what one fleet_64k Backup sends: three 64 KiB parities.
	probeFrame = 192 << 10
	// probeTrips makes a probe last about 30 ms.
	probeTrips = 1000
	// referenceTripsPerS is the rate this sandbox reaches at its fastest:
	// the speed index is about 1 there.
	referenceTripsPerS = 36000
)

// machineSpeed sends probeTrips frames to a peer over loopback TCP, each
// answered by eight bytes, closed loop, and returns the rate as a share
// of the reference. The loop is bound by what a Backup or a Read is bound
// by around the program: the kernel's socket path, its copies, and
// waking the other side.
func machineSpeed() (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("speed probe: %w", err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		buf := make([]byte, probeFrame)
		for {
			// Ends when the client closes its side.
			if _, err := io.ReadFull(c, buf); err != nil {
				return
			}
			if _, err := c.Write(buf[:8]); err != nil {
				return
			}
		}
	}()
	// Runs after the client's side is closed, which ends the peer's
	// loop; closing the listener ends a peer still waiting in Accept.
	defer func() {
		ln.Close()
		wg.Wait()
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, fmt.Errorf("speed probe: %w", err)
	}
	defer c.Close()
	frame, ack := make([]byte, probeFrame), make([]byte, 8)
	start := time.Now()
	for i := 0; i < probeTrips; i++ {
		if _, err := c.Write(frame); err != nil {
			return 0, fmt.Errorf("speed probe: %w", err)
		}
		if _, err := io.ReadFull(c, ack); err != nil {
			return 0, fmt.Errorf("speed probe: %w", err)
		}
	}
	return probeTrips / time.Since(start).Seconds() / referenceTripsPerS, nil
}
