package main

import (
	"math"
	"sort"
	"time"
)

// enough reports whether a measuring loop should stop after a repetition
// that began at start: it stops when less time is left before the deadline
// than half that repetition took, so a run ends within half a repetition
// of its deadline instead of up to a whole one past it.
func enough(start, deadline time.Time) bool {
	now := time.Now()
	return deadline.Sub(now) < now.Sub(start)/2
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (q in [0,1]); NaN for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// geomean is the geometric mean of positive ratios (NaN when empty).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	t := 0.0
	for _, x := range xs {
		t += math.Log(x)
	}
	return math.Exp(t / float64(len(xs)))
}
