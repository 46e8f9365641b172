package sim

import (
	"fmt"
	"testing"
	"testing/quick"

	"dagsched/internal/dag"
	"dagsched/internal/profit"
	"dagsched/internal/rational"
)

// resultsEqual compares every observable field of two results.
func resultsEqual(t *testing.T, a, b *Result) error {
	t.Helper()
	if a.TotalProfit != b.TotalProfit {
		return fmt.Errorf("profit %v vs %v", a.TotalProfit, b.TotalProfit)
	}
	if a.Completed != b.Completed || a.Expired != b.Expired {
		return fmt.Errorf("completed/expired %d/%d vs %d/%d", a.Completed, a.Expired, b.Completed, b.Expired)
	}
	if a.BusyProcTicks != b.BusyProcTicks || a.IdleProcTicks != b.IdleProcTicks {
		return fmt.Errorf("busy/idle %d/%d vs %d/%d", a.BusyProcTicks, a.IdleProcTicks, b.BusyProcTicks, b.IdleProcTicks)
	}
	if a.Ticks != b.Ticks {
		return fmt.Errorf("ticks %d vs %d", a.Ticks, b.Ticks)
	}
	byID := func(js []JobStat) map[int]JobStat {
		m := map[int]JobStat{}
		for _, s := range js {
			m[s.ID] = s
		}
		return m
	}
	am, bm := byID(a.Jobs), byID(b.Jobs)
	if len(am) != len(bm) {
		return fmt.Errorf("job stats %d vs %d", len(am), len(bm))
	}
	for id, as := range am {
		bs := bm[id]
		if as != bs {
			return fmt.Errorf("job %d stats %+v vs %+v", id, as, bs)
		}
	}
	return nil
}

// runJump runs jobs through RunAuto with an event-safe scheduler, so the
// session holds each decision until the next event, and checks the routing.
func runJump(cfg Config, jobs []*Job) (*Result, error) {
	res, err := RunAuto(cfg, jobs, &markedSched{safe: true})
	if err == nil && res.Engine != EngineEvented {
		return nil, fmt.Errorf("routed to %q, want %q", res.Engine, EngineEvented)
	}
	return res, err
}

func TestEventedMatchesTickSingleJob(t *testing.T) {
	j := func() *Job {
		return &Job{ID: 1, Graph: dag.ForkJoin(2, 3, 7), Release: 0, Profit: step(t, 5, 500)}
	}
	cfg := Config{M: 4}
	a, err := Run(cfg, []*Job{j()}, &fifoSched{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := runJump(cfg, []*Job{j()})
	if err != nil {
		t.Fatal(err)
	}
	if err := resultsEqual(t, a, b); err != nil {
		t.Fatal(err)
	}
}

func TestEventedMatchesTickWithSpeed(t *testing.T) {
	jobs := func() []*Job {
		return []*Job{
			{ID: 1, Graph: dag.Chain(5, 6), Release: 0, Profit: step(t, 3, 100)},
			{ID: 2, Graph: dag.Block(9, 4), Release: 7, Profit: step(t, 2, 50)},
		}
	}
	for _, sp := range []rational.Rat{rational.One(), rational.New(3, 2), rational.New(7, 4)} {
		cfg := Config{M: 3, Speed: sp}
		a, err := Run(cfg, jobs(), &fifoSched{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := runJump(cfg, jobs())
		if err != nil {
			t.Fatal(err)
		}
		if err := resultsEqual(t, a, b); err != nil {
			t.Fatalf("speed %v: %v", sp, err)
		}
	}
}

func TestEventedExpiryMatches(t *testing.T) {
	jobs := func() []*Job {
		return []*Job{
			{ID: 1, Graph: dag.Chain(50, 2), Release: 0, Profit: step(t, 3, 30)}, // cannot finish
			{ID: 2, Graph: dag.Chain(4, 2), Release: 40, Profit: step(t, 2, 20)},
		}
	}
	cfg := Config{M: 1}
	a, err := Run(cfg, jobs(), &fifoSched{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := runJump(cfg, jobs())
	if err != nil {
		t.Fatal(err)
	}
	if err := resultsEqual(t, a, b); err != nil {
		t.Fatal(err)
	}
	if a.Expired != 1 {
		t.Errorf("expired = %d, want 1", a.Expired)
	}
}

func TestEventedHorizonMatches(t *testing.T) {
	jobs := func() []*Job {
		return []*Job{{ID: 1, Graph: dag.Chain(100, 3), Release: 0, Profit: step(t, 1, 1000)}}
	}
	cfg := Config{M: 1, Horizon: 37}
	a, err := Run(cfg, jobs(), &fifoSched{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := runJump(cfg, jobs())
	if err != nil {
		t.Fatal(err)
	}
	if err := resultsEqual(t, a, b); err != nil {
		t.Fatal(err)
	}
}

func TestEventedTraceExpandsToTicks(t *testing.T) {
	j := &Job{ID: 1, Graph: dag.Chain(4, 5), Release: 0, Profit: step(t, 1, 100)}
	res, err := runJump(Config{M: 1, Record: true}, []*Job{j})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace.Ticks) != 20 {
		t.Errorf("trace ticks = %d, want 20 (4 nodes × 5 work)", len(res.Trace.Ticks))
	}
	for i, tick := range res.Trace.Ticks {
		if tick.T != int64(i) {
			t.Fatalf("tick %d has T=%d", i, tick.T)
		}
	}
}

func TestPropEventedEquivalence(t *testing.T) {
	// Random workloads and speeds: holding decisions across events must
	// match ticking for an event-stationary scheduler.
	f := func(seed int64) bool {
		jobs, m, sp := randomInstance(seed)
		cfg := Config{M: m, Speed: sp}
		a, err := Run(cfg, jobs, &fifoSched{})
		if err != nil {
			return false
		}
		jobs2, _, _ := randomInstance(seed)
		b, err := runJump(cfg, jobs2)
		if err != nil {
			return false
		}
		return resultsEqualBool(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// randomInstance builds a deterministic pseudo-random workload from a seed
// without importing math/rand (keep it cheap and reproducible).
func randomInstance(seed int64) ([]*Job, int, rational.Rat) {
	x := uint64(seed)*2654435761 + 12345
	rnd := func(n int) int {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return int(x % uint64(n))
	}
	m := 1 + rnd(4)
	speeds := []rational.Rat{rational.One(), rational.New(3, 2), rational.New(2, 1)}
	sp := speeds[rnd(3)]
	n := 2 + rnd(6)
	jobs := make([]*Job, 0, n)
	release := int64(0)
	for i := 0; i < n; i++ {
		var g *dag.DAG
		switch rnd(4) {
		case 0:
			g = dag.Chain(1+rnd(6), int64(1+rnd(4)))
		case 1:
			g = dag.Block(1+rnd(8), int64(1+rnd(4)))
		case 2:
			g = dag.ForkJoin(1+rnd(2), 1+rnd(4), int64(1+rnd(3)))
		default:
			g = dag.Wavefront(1+rnd(4), int64(1+rnd(2)))
		}
		d := g.Span() + int64(rnd(int(g.TotalWork())+5))
		fn, err := profit.NewStep(float64(1+rnd(9)), d)
		if err != nil {
			panic(err)
		}
		jobs = append(jobs, &Job{ID: i, Graph: g, Release: release, Profit: fn})
		release += int64(rnd(7))
	}
	return jobs, m, sp
}

func resultsEqualBool(a, b *Result) bool {
	if a.TotalProfit != b.TotalProfit || a.Completed != b.Completed ||
		a.Expired != b.Expired || a.BusyProcTicks != b.BusyProcTicks ||
		a.IdleProcTicks != b.IdleProcTicks || a.Ticks != b.Ticks {
		return false
	}
	am := map[int]JobStat{}
	for _, s := range a.Jobs {
		am[s.ID] = s
	}
	for _, s := range b.Jobs {
		if am[s.ID] != s {
			return false
		}
	}
	return len(a.Jobs) == len(b.Jobs)
}

func TestEventedRejectsBadConfig(t *testing.T) {
	j := &Job{ID: 1, Graph: dag.Chain(1, 1), Release: 0, Profit: step(t, 1, 5)}
	if _, err := runJump(Config{M: 0}, []*Job{j}); err == nil {
		t.Error("accepted M=0")
	}
	if _, err := runJump(Config{M: 1, Speed: rational.New(-1, 1)}, []*Job{j}); err == nil {
		t.Error("accepted negative speed")
	}
}

func BenchmarkTickVsEventedCoarse(b *testing.B) {
	// A coarse-grained workload (few large nodes): holding decisions across
	// events should be far faster than ticking. Run both to compare in
	// -bench output.
	mk := func(t *testing.B) []*Job {
		t.Helper()
		var jobs []*Job
		for i := 0; i < 10; i++ {
			fn, err := profit.NewStep(1, 100000)
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, &Job{ID: i, Graph: dag.Chain(4, 2000), Release: int64(i * 100), Profit: fn})
		}
		return jobs
	}
	b.Run("tick", func(b *testing.B) {
		jobs := mk(b)
		for i := 0; i < b.N; i++ {
			if _, err := Run(Config{M: 4}, jobs, &markedSched{safe: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("evented", func(b *testing.B) {
		jobs := mk(b)
		for i := 0; i < b.N; i++ {
			if _, err := RunAuto(Config{M: 4}, jobs, &markedSched{safe: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
