package main

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// The host's speed drifts: over an hour on the calibration host the same
// run's CPU time moved by a factor of 1.8, and within one run it held its
// level, so no run length steadies it. Every CPU figure the benchmark
// bounds is therefore divided by the host's speed, measured in the same run
// by a fixed piece of work, and reported at a fixed reference speed. The
// serve workloads measure the speed by their load generator's CPU time per
// item (a workload's client_us_per_item is its reference value). The
// in-process workloads measure it by the yardstick below, run between
// their ops; yardstickRefUs is its reference value.
const yardstickRefUs = 16000

// atRefSpeed scales v, measured on a host where the speed probe took
// probe, to the host speed at which it takes ref.
func atRefSpeed(v, probe, ref float64) float64 { return atRefSpeedExp(v, probe, ref, 1) }

// atRefSpeedExp is atRefSpeed for a figure that moves as the probe's e-th
// power from one host speed to another.
func atRefSpeedExp(v, probe, ref, e float64) float64 {
	if probe <= 0 {
		return 0
	}
	return v * math.Pow(ref/probe, e)
}

// yardRecord is one record of the yardstick's fixed input.
type yardRecord struct {
	id, w, l, deadline, milliProfit int64
	key                             string
}

var yardInput = func() []yardRecord {
	rng := rand.New(rand.NewSource(1))
	rs := make([]yardRecord, 2000)
	for i := range rs {
		rs[i] = yardRecord{id: int64(i + 1), w: 1 + rng.Int63n(256), l: 1 + rng.Int63n(24),
			deadline: 1 + rng.Int63n(200), milliProfit: rng.Int63n(10000), key: "k" + strconv.Itoa(rng.Int())}
	}
	return rs
}()

// yardState is the yardstick's working memory, allocated once, so the
// yardstick allocates nothing and the collector, whose work depends on the
// program's heap, never runs on its behalf.
type yardState struct {
	buf  []byte
	recs []yardRecord
	m    map[string]int
}

var yard = &yardState{recs: make([]yardRecord, len(yardInput)), m: make(map[string]int, len(yardInput))}

// yardstick is a fixed piece of the kind of work a server and a simulator
// do: rendering records as text and parsing them back, sorting them and
// indexing them in a map. It uses the standard library alone, so no change
// to the program moves it, and it returns the CPU time of its own thread.
func yardstick() time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0 := threadCPU()
	for round := 0; round < 40; round++ {
		b := yard.buf[:0]
		for _, r := range yardInput {
			for _, v := range [...]int64{r.id, r.w, r.l, r.deadline, r.milliProfit} {
				b = strconv.AppendInt(b, v, 10)
				b = append(b, ',')
			}
		}
		yard.buf = b
		var f [5]int64
		k, n := 0, int64(0)
		for _, c := range b {
			if c == ',' {
				f[k%5] = n
				if k%5 == 4 {
					i := k / 5
					yard.recs[i] = yardRecord{id: f[0], w: f[1], l: f[2], deadline: f[3], milliProfit: f[4], key: yardInput[i].key}
				}
				k, n = k+1, 0
				continue
			}
			n = 10*n + int64(c-'0')
		}
		slices.SortFunc(yard.recs, func(a, b yardRecord) int {
			if a.milliProfit != b.milliProfit {
				return int(a.milliProfit - b.milliProfit)
			}
			return int(a.id - b.id)
		})
		clear(yard.m)
		for i, r := range yard.recs {
			yard.m[r.key] = i
		}
	}
	return threadCPU() - c0
}

// threadCPU is the calling thread's CPU time, from
// clock_gettime(CLOCK_THREAD_CPUTIME_ID), to the nanosecond. (getrusage's
// per-thread times count in scheduler ticks.)
func threadCPU() time.Duration {
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// yardstickUs runs the yardstick k times and returns the median CPU time in
// microseconds.
func yardstickUs(k int) float64 {
	ts := make([]float64, k)
	for i := range ts {
		ts[i] = float64(yardstick()) / float64(time.Microsecond)
	}
	return median(ts)
}
