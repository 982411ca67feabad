package main

import (
	"fmt"
	"sort"
	"time"
)

// tailLadder lists the percentiles a latency tail may be reported at, highest
// first.
var tailLadder = []float64{0.999, 0.99, 0.9, 0.5}

// tailQuantile returns the highest percentile of tailLadder that still has at
// least ten samples beyond it among n samples, or false when even the median
// has fewer.
func tailQuantile(n int) (float64, bool) {
	for _, q := range tailLadder {
		if float64(n)*(1-q) >= 10-1e-9 {
			return q, true
		}
	}
	return 0, false
}

// quantile returns the nearest-rank q-quantile of the samples (sorted in
// place). It refuses a quantile with fewer than ten samples beyond it, so a
// reported tail is never one or two outliers.
func quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("quantile of no samples")
	}
	if q > 0.5 && float64(len(xs))*(1-q) < 10-1e-9 {
		return 0, fmt.Errorf("p%g needs at least %d samples, have %d", q*100, int(10/(1-q)+0.5), len(xs))
	}
	sort.Float64s(xs)
	rank := int(q*float64(len(xs))+1-1e-9) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(xs) {
		rank = len(xs) - 1
	}
	return xs[rank], nil
}

// slotMedians takes the per-slot latencies of several runs of one
// deterministic episode (runs[r][k] is slot k of run r) and returns, for
// every slot all runs reached, the median over the runs. The same slot
// does the same work in every run, so the median keeps each slot's own
// cost and drops a run where noise from outside the process hit it.
func slotMedians(runs [][]float64) []float64 {
	if len(runs) == 0 {
		return nil
	}
	n := len(runs[0])
	for _, r := range runs {
		n = min(n, len(r))
	}
	out := make([]float64, n)
	col := make([]float64, len(runs))
	for k := range out {
		for r := range runs {
			col[r] = runs[r][k]
		}
		out[k] = median(col)
	}
	return out
}

// median returns the median of the samples (sorted in place); 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func sumFloats(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// mean returns the arithmetic mean; 0 when empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sumFloats(xs) / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
