// Command aemep searches for minimal erasure patterns of alpha
// entanglement codes — the fault-tolerance analysis of the paper's §V.A.
//
// Usage:
//
//	aemep -alpha 3 -s 2 -p 5 -x 2          # one search
//	aemep -alpha 2 -s 2 -p 2 -x 4 -draw    # and the pattern on the lattice
//
// The paper's Figs 6–9 are printed by `aebench -exp fig6,fig7,fig8,fig9`.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"

	"aecodes/internal/lattice"
	"aecodes/internal/mep"
)

func main() {
	var (
		alpha  = flag.Int("alpha", 3, "α of the code")
		s      = flag.Int("s", 2, "s of the code")
		p      = flag.Int("p", 5, "p of the code")
		x      = flag.Int("x", 2, "number of data blocks in the pattern")
		window = flag.Int("window", 0, "search window override (0 = default)")
		draw   = flag.Bool("draw", false, "draw the found pattern on an ASCII lattice")
	)
	flag.Parse()

	if err := search(*alpha, *s, *p, *x, *window, *draw); err != nil {
		fmt.Fprintln(os.Stderr, "aemep:", err)
		os.Exit(1)
	}
}

func search(alpha, s, p, x, window int, draw bool) error {
	params := lattice.Params{Alpha: alpha, S: s, P: p}
	pat, err := mep.MinimalErasure(params, x, mep.Options{Window: window})
	if err != nil {
		return err
	}
	fmt.Println(pat)
	fmt.Println("  nodes:", pat.Nodes)
	for _, e := range pat.Edges {
		fmt.Println("  edge: ", e)
	}
	if draw {
		lat, err := lattice.New(params)
		if err != nil {
			return err
		}
		first, last := slices.Min(pat.Nodes), slices.Max(pat.Nodes)
		for _, e := range pat.Edges {
			if e.Right > last {
				last = e.Right
			}
		}
		cols := (last-first)/max(s, 1) + 2
		out, err := lat.Render(lattice.RenderOptions{
			From:      first,
			Columns:   cols,
			MarkNodes: pat.Nodes,
			MarkEdges: pat.Edges,
		})
		if err != nil {
			return err
		}
		fmt.Print(out)
	}
	return nil
}
