package main

import (
	"math"
	"sort"
)

// quantile returns the q-th quantile (0..1) of xs by linear
// interpolation between order statistics; xs is not modified. It
// returns 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// typical folds what a run's lifecycles measured into the run's value:
// the mean of all but the lowest and the highest, or of all when there
// are fewer than four. Dropping the extremes keeps one lifecycle with a
// stall in it, and the first one with its cold caches, from moving the
// value; a mean of the rest, where a median would be taken, is what
// holds still when lifecycles fall into two clusters, as the in-process
// pipeline's do (README, "Steadiness").
func typical(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) >= 4 {
		s = s[1 : len(s)-1]
	}
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// ratio is a/b, or 0 when b is 0: a layer that did no work reports 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
