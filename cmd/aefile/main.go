// Command aefile archives files with alpha entanglement codes: it streams
// a payload of any size through the concurrent encode pipeline into a
// segment store in a directory — the log-structured, append-only
// archival store the paper targets.
//
// Encoding and decoding are fully streamed through the root package's
// Archive API: memory stays bounded by the pipeline's in-flight window
// (-workers × -depth blocks) no matter how large the input file is, and
// every data block carries a frame header (payload length plus a
// final-block flag) so the archive is self-describing. The code
// parameters, block size and data-block count live in the log beside the
// blocks. Decoding repairs missing blocks on the fly where a repair tuple
// survives; whole-system recovery uses the repair command. Every command
// that writes returns only once the log is fsynced.
//
// Usage:
//
//	aefile encode -in report.pdf -dir archive -alpha 3 -s 2 -p 5 -block 4096
//	aefile damage -dir archive -frac 0.25 -seed 7   # simulate device loss
//	aefile repair -dir archive                      # round-based recovery
//	aefile decode -dir archive -out restored.pdf
//	aefile status -dir archive
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"aecodes"
	"aecodes/internal/segstore"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "encode":
		err = cmdEncode(os.Args[2:], os.Stdout)
	case "damage":
		err = cmdDamage(os.Args[2:], os.Stdout)
	case "repair":
		err = cmdRepair(os.Args[2:], os.Stdout)
	case "decode":
		err = cmdDecode(os.Args[2:], os.Stdout)
	case "status":
		err = cmdStatus(os.Args[2:], os.Stdout)
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "aefile:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: aefile encode|damage|repair|decode|status [flags]")
}

// withStore runs fn on the segment store in dir and closes it, returning
// fn's error or else Close's: nil means what fn wrote is on disk.
func withStore(dir string, fn func(seg *segstore.Store) error) error {
	seg, err := segstore.Open(dir, segstore.Options{})
	if err != nil {
		return err
	}
	err = fn(seg)
	if cerr := seg.Close(); err == nil {
		err = cerr
	}
	return err
}

// withArchive runs fn on the archive an earlier encode left in dir.
func withArchive(dir string, fn func(code *aecodes.Code, view *segstore.Lattice) error) error {
	if _, err := os.Stat(dir); err != nil {
		return err
	}
	return withStore(dir, func(seg *segstore.Store) error {
		view, err := segstore.OpenLattice(seg)
		if err != nil {
			return fmt.Errorf("%s holds no archive (re-encode archives of older aefile versions): %w", dir, err)
		}
		sh := view.Shape()
		code, err := aecodes.New(sh.Params, sh.BlockSize)
		if err != nil {
			return err
		}
		return fn(code, view)
	})
}

func cmdEncode(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("encode", flag.ExitOnError)
	in := fs.String("in", "", "input file")
	dir := fs.String("dir", "", "archive directory")
	alpha := fs.Int("alpha", 3, "parities per block")
	s := fs.Int("s", 2, "horizontal strands")
	p := fs.Int("p", 5, "helical strands per class")
	block := fs.Int("block", 4096, "block size in bytes")
	workers := fs.Int("workers", 0, "encode pipeline workers (0 = GOMAXPROCS)")
	depth := fs.Int("depth", 0, "per-worker queue depth bounding in-flight blocks (0 = default)")
	fs.Parse(args)
	if *in == "" || *dir == "" {
		return fmt.Errorf("encode: -in and -dir are required")
	}

	params := aecodes.Params{Alpha: *alpha, S: *s, P: *p}
	code, err := aecodes.New(params, *block)
	if err != nil {
		return err
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()

	return withStore(*dir, func(seg *segstore.Store) error {
		// An archive is written once: appending a second one would leave
		// the first one's blocks live in the log, never reclaimed.
		if _, err := segstore.OpenLattice(seg); !errors.Is(err, aecodes.ErrNotFound) {
			return fmt.Errorf("encode: %s already holds an archive; remove it or pick another -dir", *dir)
		}
		view, err := segstore.NewLattice(seg, segstore.Shape{Params: params, BlockSize: *block})
		if err != nil {
			return err
		}
		// The file streams through the pipeline: io.Copy hands the writer
		// one bounded buffer at a time, never the whole payload.
		w, err := aecodes.NewArchiveWriterContext(context.Background(), code, view, aecodes.ArchiveOptions{
			Workers: *workers,
			Depth:   *depth,
		})
		if err != nil {
			return err
		}
		if _, err := io.Copy(w, f); err != nil {
			w.Close()
			return fmt.Errorf("encode: streaming %s: %w", *in, err)
		}
		if err := w.Close(); err != nil {
			return err
		}
		if err := view.SetBlocks(w.Blocks()); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "encoded %d bytes into %d data blocks + %d parities (%v, block %dB) in %s\n",
			w.Bytes(), w.Blocks(), w.Parities(), params, *block, *dir)
		return nil
	})
}

func cmdDamage(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("damage", flag.ExitOnError)
	dir := fs.String("dir", "", "archive directory")
	frac := fs.Float64("frac", 0.2, "fraction of blocks to delete")
	seed := fs.Int64("seed", 1, "random seed")
	fs.Parse(args)
	if *dir == "" {
		return fmt.Errorf("damage: -dir is required")
	}
	if *frac < 0 || *frac > 1 {
		return fmt.Errorf("damage: -frac must be in [0,1]")
	}
	return withArchive(*dir, func(code *aecodes.Code, view *segstore.Lattice) error {
		// The archive's blocks: data 1..n and every real parity they
		// emit, under the keys the view stores them by.
		n := view.Shape().Blocks
		var keys []string
		for i := 1; i <= n; i++ {
			keys = append(keys, aecodes.DataRef(i).String())
		}
		for _, e := range code.Lattice().RealOutEdges(n) {
			keys = append(keys, aecodes.ParityRef(e).String())
		}
		st := view.Store()
		sizes := st.StatBatch(keys)
		rng := rand.New(rand.NewSource(*seed))
		deleted := 0
		for k, key := range keys {
			if rng.Float64() < *frac && sizes[k] >= 0 {
				st.Del(key)
				deleted++
			}
		}
		fmt.Fprintf(stdout, "deleted %d of %d blocks\n", deleted, len(keys))
		return nil
	})
}

func cmdRepair(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("repair", flag.ExitOnError)
	dir := fs.String("dir", "", "archive directory")
	fs.Parse(args)
	if *dir == "" {
		return fmt.Errorf("repair: -dir is required")
	}
	return withArchive(*dir, func(code *aecodes.Code, view *segstore.Lattice) error {
		stats, err := code.Repair(context.Background(), view, aecodes.RepairOptions{})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "repaired %d data + %d parity blocks in %d rounds\n",
			stats.DataRepaired, stats.ParityRepaired, stats.Rounds)
		for _, rs := range stats.PerRound {
			fmt.Fprintf(stdout, "  round %d: %d data, %d parities\n", rs.Round, rs.DataRepaired, rs.ParityRepaired)
		}
		if stats.DataLoss() > 0 {
			return fmt.Errorf("repair: %d data blocks are unrecoverable: %v",
				stats.DataLoss(), stats.UnrepairedData)
		}
		if len(stats.UnrepairedParities) > 0 {
			fmt.Fprintf(stdout, "warning: %d parities unrecoverable\n", len(stats.UnrepairedParities))
		}
		return nil
	})
}

func cmdDecode(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("decode", flag.ExitOnError)
	dir := fs.String("dir", "", "archive directory")
	out := fs.String("out", "", "output file")
	window := fs.Int("window", 16, "read-ahead window in blocks")
	fs.Parse(args)
	if *dir == "" || *out == "" {
		return fmt.Errorf("decode: -dir and -out are required")
	}
	return withArchive(*dir, func(code *aecodes.Code, view *segstore.Lattice) error {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()

		r := aecodes.OpenArchiveContext(context.Background(), code, view, aecodes.ArchiveOptions{
			Window: *window,
		})
		n, err := io.Copy(f, r)
		if err != nil {
			return fmt.Errorf("decode: streaming to %s after %d bytes (run `aefile repair` first?): %w", *out, n, err)
		}
		fmt.Fprintf(stdout, "decoded %d bytes to %s\n", n, *out)
		return nil
	})
}

func cmdStatus(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("status", flag.ExitOnError)
	dir := fs.String("dir", "", "archive directory")
	fs.Parse(args)
	if *dir == "" {
		return fmt.Errorf("status: -dir is required")
	}
	return withArchive(*dir, func(code *aecodes.Code, view *segstore.Lattice) error {
		sh := view.Shape()
		h, err := code.Health(context.Background(), view, sh.Blocks)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "archive %s: %v, block %dB, %d data blocks\n",
			*dir, sh.Params, sh.BlockSize, sh.Blocks)
		fmt.Fprintf(stdout, "missing: %d data blocks, %d parities (health score %.2f)\n",
			h.MissingData(), h.MissingParities(), h.Score)
		for _, i := range h.FragileFirst() {
			if h.IntactTuples[i] <= 1 {
				fmt.Fprintf(stdout, "  d%d: %d intact repair tuple(s) left — repair soon\n", i, h.IntactTuples[i])
			}
		}
		return nil
	})
}
