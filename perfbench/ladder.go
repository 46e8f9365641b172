package main

import "math"

// rung is the verdict on one ladder step.
type rung struct {
	rate    float64 // offered requests per second
	n       int
	tailPM  int     // per-mille of the tail percentile judged (tailPerMille(n))
	tail    float64 // its latency, ms
	failed  int
	backlog bool
	pass    bool
}

// judgeRung passes a rung when p99 of latency from the due instant (or,
// on a rung too short for ten samples beyond p99, the highest percentile
// that has them) stays within the limit, no request failed, and the backlog did
// not grow. A failed request counts as missing the limit.
func judgeRung(ss []sample, limitMs float64) rung {
	g := rung{n: len(ss)}
	lat := make([]float64, len(ss))
	for i, s := range ss {
		lat[i] = ms(s.lat)
		if s.failed {
			g.failed++
			lat[i] = math.Inf(1)
		}
	}
	d := summarize(lat)
	g.tailPM = min(990, d.tailPM)
	if g.tailPM > 0 {
		g.tail = quantile(sortedCopy(lat), g.tailPM)
	}
	g.backlog = backlogged(lat, limitMs)
	g.pass = g.failed == 0 && g.tailPM > 0 && g.tail <= limitMs && !g.backlog
	return g
}

// backlogged reports whether latency grew across the rung: the median of
// its last quarter is more than twice the median of its first quarter and
// above a quarter of the limit. Below the knee both quarters sit at the
// service time; past it every request queues behind the previous ones and
// latency climbs for as long as the rung lasts, before the tail percentile
// of a short rung need show it.
func backlogged(latMs []float64, limitMs float64) bool {
	q := len(latMs) / 4
	if q < 5 {
		return false
	}
	head, tail := median(latMs[:q]), median(latMs[len(latMs)-q:])
	return tail > 2*head && tail > limitMs/4
}

// climb finds the highest offered rate that passes, on a fixed geometric
// ladder nominal·step^k refined by bisection. From a passing nominal rung it
// climbs until the first failing rung (or maxRungs); from a failing one it
// steps down until a rung passes (at most four steps). It then bisects the
// last passing and first failing rates bisect times, in log space. A rung
// that fails is run once more and fails only if the retry fails too, so a
// burst of host noise does not end the climb. It returns the highest
// passing rate (0 if none passed) and every rung it ran.
func climb(nominal, step float64, maxRungs, bisect int, run func(rate float64) rung) (float64, []rung) {
	var rungs []rung
	try := func(r float64) bool {
		for attempt := 0; attempt < 2; attempt++ {
			g := run(r)
			g.rate = r
			rungs = append(rungs, g)
			if g.pass {
				return true
			}
		}
		return false
	}
	lo, hi := 0.0, 0.0
	if try(nominal) {
		lo = nominal
		for k := 1; k < maxRungs; k++ {
			r := nominal * math.Pow(step, float64(k))
			if !try(r) {
				hi = r
				break
			}
			lo = r
		}
		if hi == 0 {
			return lo, rungs // passed the whole ladder
		}
	} else {
		hi = nominal
		for k := 1; k <= 4 && lo == 0; k++ {
			r := nominal / math.Pow(step, float64(k))
			if try(r) {
				lo = r
			} else {
				hi = r
			}
		}
		if lo == 0 {
			return 0, rungs
		}
	}
	for b := 0; b < bisect; b++ {
		mid := math.Sqrt(lo * hi)
		if try(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, rungs
}
