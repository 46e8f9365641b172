package sim

import (
	"reflect"
	"testing"

	"dagsched/internal/dag"
	"dagsched/internal/faults"
	"dagsched/internal/rational"
)

// faultyJobs is a small mixed workload for fault tests.
func faultyJobs(t *testing.T) []*Job {
	t.Helper()
	return []*Job{
		{ID: 1, Graph: dag.ForkJoin(2, 3, 2), Release: 0, Profit: step(t, 5, 60)},
		{ID: 2, Graph: dag.Block(9, 1), Release: 4, Profit: step(t, 3, 40)},
		{ID: 3, Graph: dag.Chain(6, 2), Release: 2, Profit: step(t, 9, 50)},
		{ID: 4, Graph: dag.Block(4, 2), Release: 8, Profit: step(t, 2, 30)},
	}
}

func TestZeroRateFaultsMatchFaultFree(t *testing.T) {
	jobs := func() []*Job {
		return []*Job{
			{ID: 1, Graph: dag.ForkJoin(2, 3, 2), Release: 0, Profit: step(t, 5, 60)},
			{ID: 2, Graph: dag.Block(9, 1), Release: 4, Profit: step(t, 3, 40)},
			{ID: 3, Graph: dag.Chain(6, 2), Release: 2, Profit: step(t, 9, 50)},
		}
	}
	for _, sp := range []rational.Rat{rational.One(), rational.New(3, 2)} {
		clean, err := Run(Config{M: 3, Speed: sp, Record: true}, jobs(), &fifoSched{})
		if err != nil {
			t.Fatal(err)
		}
		// A fault model with every rate zero must leave execution untouched.
		faulty, err := Run(Config{M: 3, Speed: sp, Record: true, Faults: &faults.Config{Seed: 5}}, jobs(), &fifoSched{})
		if err != nil {
			t.Fatal(err)
		}
		if clean.Faults != nil {
			t.Fatal("fault stats on a fault-free run")
		}
		if faulty.Faults == nil {
			t.Fatal("no fault stats with Config.Faults set")
		}
		if *faulty.Faults != (FaultStats{MinCapacity: 3}) {
			t.Errorf("zero-rate model accrued fault stats: %+v", faulty.Faults)
		}
		if err := resultsEqual(t, clean, faulty); err != nil {
			t.Fatalf("speed %v: zero-rate faults diverged: %v", sp, err)
		}
		for i, tick := range clean.Trace.Ticks {
			if !reflect.DeepEqual(tick.Allocs, faulty.Trace.Ticks[i].Allocs) {
				t.Fatalf("speed %v: tick %d allocs diverged", sp, tick.T)
			}
		}
	}
}

func TestFaultRunDeterministic(t *testing.T) {
	cfg := Config{M: 3, Record: true, Faults: &faults.Config{
		Seed: 11, MTBF: 15, MTTR: 4, CrashRate: 0.2, StragglerFrac: 0.5, StragglerSlow: 3,
	}}
	mk := func() []*Job {
		return []*Job{
			{ID: 1, Graph: dag.ForkJoin(2, 3, 2), Release: 0, Profit: step(t, 5, 60)},
			{ID: 2, Graph: dag.Block(9, 1), Release: 4, Profit: step(t, 3, 40)},
			{ID: 3, Graph: dag.Chain(6, 2), Release: 2, Profit: step(t, 9, 50)},
		}
	}
	a, err := Run(cfg, mk(), &fifoSched{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, mk(), &fifoSched{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different results:\n%+v\nvs\n%+v", a, b)
	}
}

func TestExecFailuresDiscardWorkAndDegradeProfit(t *testing.T) {
	mk := func() []*Job {
		return []*Job{
			{ID: 1, Graph: dag.Chain(8, 3), Release: 0, Profit: step(t, 10, 40)},
			{ID: 2, Graph: dag.Block(6, 2), Release: 0, Profit: step(t, 4, 30)},
		}
	}
	clean, err := Run(Config{M: 2}, mk(), &fifoSched{})
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := Run(Config{M: 2, Faults: &faults.Config{Seed: 3, CrashRate: 0.4}}, mk(), &fifoSched{})
	if err != nil {
		t.Fatal(err)
	}
	if faulty.Faults.Retries == 0 {
		t.Fatal("crash rate 0.4 produced no execution failures")
	}
	if faulty.Faults.LostWork == 0 {
		t.Error("failures discarded no work")
	}
	if faulty.TotalProfit > clean.TotalProfit {
		t.Errorf("faults increased profit: %v > %v", faulty.TotalProfit, clean.TotalProfit)
	}
}

func TestCrashesCutCapacity(t *testing.T) {
	fc := &faults.Config{Seed: 2, MTBF: 10, MTTR: 6}
	res, err := Run(Config{M: 4, Faults: fc}, faultyJobs(t), &fifoSched{})
	if err != nil {
		t.Fatal(err)
	}
	fs := res.Faults
	if fs.DegradedTicks == 0 || fs.DownProcTicks == 0 {
		t.Fatalf("MTBF 10 over %d ticks caused no degradation: %+v", res.Ticks, fs)
	}
	if fs.MinCapacity < 0 || fs.MinCapacity > 4 {
		t.Errorf("min capacity %d outside [0, 4]", fs.MinCapacity)
	}
	if fs.CrashEvents == 0 {
		t.Error("no crash events observed")
	}
	// fifoSched keeps allocating M procs, so some grants must be dropped.
	if fs.DroppedProcTicks == 0 {
		t.Error("capacity-oblivious scheduler never lost an allocation")
	}
}

func TestStragglersStallProgress(t *testing.T) {
	mk := func() []*Job {
		return []*Job{{ID: 1, Graph: dag.Chain(10, 1), Release: 0, Profit: step(t, 1, 200)}}
	}
	clean, err := Run(Config{M: 1}, mk(), &fifoSched{})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Run(Config{M: 1, Faults: &faults.Config{Seed: 4, StragglerFrac: 1, StragglerSlow: 4}}, mk(), &fifoSched{})
	if err != nil {
		t.Fatal(err)
	}
	if slow.Faults.StraggleProcTicks == 0 {
		t.Fatal("full straggler machine never stalled")
	}
	if slow.Jobs[0].CompletedAt <= clean.Jobs[0].CompletedAt {
		t.Errorf("straggler run completed at %d, clean at %d", slow.Jobs[0].CompletedAt, clean.Jobs[0].CompletedAt)
	}
}

// The recorded trace of a faulty run, replayed under the same fault config,
// must reproduce identical per-tick allocations and the same final profit.
func TestReplayReproducesFaultyRun(t *testing.T) {
	fc := &faults.Config{Seed: 17, MTBF: 20, MTTR: 5, CrashRate: 0.15, StragglerFrac: 0.5, StragglerSlow: 2}
	for _, sp := range []rational.Rat{rational.One(), rational.New(3, 2)} {
		cfg := Config{M: 3, Speed: sp, Record: true, Faults: fc}
		orig, err := Run(cfg, faultyJobs(t), &fifoSched{})
		if err != nil {
			t.Fatal(err)
		}
		replayed, err := Run(cfg, faultyJobs(t), NewReplay(orig.Trace))
		if err != nil {
			t.Fatal(err)
		}
		if err := resultsEqual(t, orig, replayed); err != nil {
			t.Fatalf("speed %v: faulty replay diverged: %v", sp, err)
		}
		if !reflect.DeepEqual(orig.Faults, replayed.Faults) {
			t.Fatalf("speed %v: fault stats diverged: %+v vs %+v", sp, orig.Faults, replayed.Faults)
		}
		if len(orig.Trace.Ticks) != len(replayed.Trace.Ticks) {
			t.Fatalf("speed %v: tick counts differ", sp)
		}
		for i, tick := range orig.Trace.Ticks {
			rt := replayed.Trace.Ticks[i]
			if tick.T != rt.T || !reflect.DeepEqual(tick.Allocs, rt.Allocs) {
				t.Fatalf("speed %v: tick %d diverged:\n%+v\nvs\n%+v", sp, tick.T, tick, rt)
			}
		}
	}
}

// capacitySpy records CapacityAware callbacks while allocating greedily.
type capacitySpy struct {
	fifoSched
	capChanges []int
	lost       int64
}

func (c *capacitySpy) OnCapacityChange(t int64, capacity int) {
	c.capChanges = append(c.capChanges, capacity)
}

func (c *capacitySpy) OnWorkLost(t int64, jobID int, lost int64) { c.lost += lost }

func TestCapacityAwareCallbacks(t *testing.T) {
	spy := &capacitySpy{}
	fc := &faults.Config{Seed: 8, MTBF: 12, MTTR: 6, CrashRate: 0.3}
	res, err := Run(Config{M: 4, Faults: fc}, faultyJobs(t), spy)
	if err != nil {
		t.Fatal(err)
	}
	if len(spy.capChanges) == 0 {
		t.Fatal("no capacity changes announced despite MTBF 12")
	}
	last := 4
	for _, c := range spy.capChanges {
		if c < 0 || c > 4 {
			t.Errorf("announced capacity %d outside [0, 4]", c)
		}
		if c == last {
			t.Errorf("announced unchanged capacity %d", c)
		}
		last = c
	}
	if res.Faults.Retries > 0 && spy.lost == 0 && res.Faults.LostWork > 0 {
		t.Error("work was lost but OnWorkLost reported none")
	}
}

// TestEventedRejectsFaults checks that fault injection keeps even an
// event-safe scheduler on the per-tick path: faults are per-tick events.
func TestEventedRejectsFaults(t *testing.T) {
	j := &Job{ID: 1, Graph: dag.Chain(1, 1), Release: 0, Profit: step(t, 1, 5)}
	cfg := Config{M: 1, Faults: &faults.Config{Seed: 1}}
	var why string
	cfg.OnRoute = func(_, reason string) { why = reason }
	res, err := RunAuto(cfg, []*Job{j}, &markedSched{safe: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine != EngineTick || why != reasonFaults {
		t.Errorf("faulty run on %q (%q), want %q (%q)", res.Engine, why, EngineTick, reasonFaults)
	}
	s, err := NewSession(cfg, []*Job{j}, &markedSched{safe: true})
	if err != nil {
		t.Fatal(err)
	}
	if s.EventSafe() {
		t.Error("faulty session holds decisions across ticks")
	}
}

func TestRunRejectsInvalidFaultConfig(t *testing.T) {
	j := &Job{ID: 1, Graph: dag.Chain(1, 1), Release: 0, Profit: step(t, 1, 5)}
	if _, err := Run(Config{M: 1, Faults: &faults.Config{CrashRate: 2}}, []*Job{j}, &fifoSched{}); err == nil {
		t.Error("accepted crash rate 2")
	}
}
