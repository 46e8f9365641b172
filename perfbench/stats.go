package main

import (
	"math"
	"slices"
	"time"
)

// tailPerMille returns the highest of the standard tail percentiles (in
// per-mille: p99.9, p99, p90, p50) that has at least ten samples beyond it
// among n, or 0 when n is too small for even the median to qualify. A
// percentile with fewer samples beyond it is one or two outliers, not a
// repeatable number.
func tailPerMille(n int) int {
	for _, pm := range []int{999, 990, 900, 500} {
		if n*(1000-pm)/1000 >= 10 {
			return pm
		}
	}
	return 0
}

// quantile returns the nearest-rank per-mille quantile of sorted.
func quantile(sorted []float64, perMille int) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := (len(sorted)*perMille + 999) / 1000 // ceil(n·p)
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// dist summarizes one sample of durations in milliseconds.
type dist struct {
	n        int
	p50, p90 float64
	tail     float64 // value at tailPM
	tailPM   int     // per-mille of tail (tailPerMille(n))
}

func summarize(xs []float64) dist {
	d := dist{n: len(xs)}
	if d.n == 0 {
		return d
	}
	s := sortedCopy(xs)
	d.p50 = quantile(s, 500)
	d.p90 = quantile(s, 900)
	d.tailPM = tailPerMille(d.n)
	if d.tailPM > 0 {
		d.tail = quantile(s, d.tailPM)
	}
	return d
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 500) }

func sortedCopy(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}
