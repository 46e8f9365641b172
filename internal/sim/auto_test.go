package sim

import (
	"testing"

	"dagsched/internal/dag"
	"dagsched/internal/faults"
	"dagsched/internal/telemetry"
)

// markedSched wraps fifoSched with an explicit EventSafe answer, standing in
// for schedulers whose safety depends on configuration.
type markedSched struct {
	fifoSched
	safe bool
}

func (s *markedSched) EventSafe() bool { return s.safe }

func autoJobs(t *testing.T) []*Job {
	t.Helper()
	return []*Job{
		{ID: 1, Graph: dag.ForkJoin(2, 3, 5), Release: 0, Profit: step(t, 4, 200)},
		{ID: 2, Graph: dag.Chain(6, 3), Release: 4, Profit: step(t, 2, 60)},
	}
}

// TestRouteEngineDecisions pins the routing table: every guard that forces
// the tick engine, and the one combination that unlocks the evented engine.
func TestRouteEngineDecisions(t *testing.T) {
	probed := telemetry.NewRecorder()
	probed.Probe = telemetry.NewProbe(1, false)
	cases := []struct {
		name   string
		cfg    Config
		sched  Scheduler
		engine string
		reason string
	}{
		{"faults", Config{M: 2, Faults: &faults.Config{Seed: 1}}, &markedSched{safe: true}, EngineTick, reasonFaults},
		{"probe", Config{M: 2, Telemetry: probed}, &markedSched{safe: true}, EngineTick, reasonProbe},
		{"no-marker", Config{M: 2}, &fifoSched{}, EngineTick, reasonSchedOptOut},
		{"marker-false", Config{M: 2}, &markedSched{safe: false}, EngineTick, reasonSchedUnsafe},
		{"unsafe-policy", Config{M: 2, Policy: dag.Random{}}, &markedSched{safe: true}, EngineTick, reasonPolicy},
		{"safe-nil-policy", Config{M: 2}, &markedSched{safe: true}, EngineEvented, reasonSafe},
		{"safe-byid", Config{M: 2, Policy: dag.ByID{}}, &markedSched{safe: true}, EngineEvented, reasonSafe},
		{"safe-unlucky", Config{M: 2, Policy: dag.Unlucky{}}, &markedSched{safe: true}, EngineEvented, reasonSafe},
		{"unsafe-cpf", Config{M: 2, Policy: dag.CriticalPathFirst{}}, &markedSched{safe: true}, EngineTick, reasonPolicy},
	}
	for _, tc := range cases {
		eng, why := routeEngine(tc.cfg, tc.sched)
		if eng != tc.engine || why != tc.reason {
			t.Errorf("%s: routed (%s, %q), want (%s, %q)", tc.name, eng, why, tc.engine, tc.reason)
		}
	}
}

// TestRunAutoMatchesExplicitEngines cross-checks RunAuto against the engine
// it claims to have used: the OnRoute hook must agree with Result.Engine, and
// the result must equal an explicit run on both engines when safe.
func TestRunAutoMatchesExplicitEngines(t *testing.T) {
	cfg := Config{M: 3}
	var hookEng, hookReason string
	cfg.OnRoute = func(e, r string) { hookEng, hookReason = e, r }

	auto, err := RunAuto(cfg, autoJobs(t), &markedSched{safe: true})
	if err != nil {
		t.Fatal(err)
	}
	if hookEng != EngineEvented || hookReason != reasonSafe {
		t.Fatalf("hook saw (%s, %q), want evented/safe", hookEng, hookReason)
	}
	if auto.Engine != EngineEvented {
		t.Fatalf("Result.Engine = %q, want %q", auto.Engine, EngineEvented)
	}
	tick, err := Run(Config{M: 3}, autoJobs(t), &markedSched{safe: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := resultsEqual(t, auto, tick); err != nil {
		t.Fatalf("auto (evented) vs explicit tick: %v", err)
	}

	auto2, err := RunAuto(cfg, autoJobs(t), &markedSched{safe: false})
	if err != nil {
		t.Fatal(err)
	}
	if hookEng != EngineTick || auto2.Engine != EngineTick {
		t.Fatalf("unsafe scheduler routed to %q (hook %q), want tick", auto2.Engine, hookEng)
	}
	if err := resultsEqual(t, auto2, tick); err != nil {
		t.Fatalf("auto (tick) vs explicit tick: %v", err)
	}
}

// TestRunEnginesStamped checks that both entry points stamp Result.Engine,
// so -json reports and tests can always tell runs apart.
func TestRunEnginesStamped(t *testing.T) {
	a, err := Run(Config{M: 2}, autoJobs(t), &fifoSched{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Engine != EngineTick {
		t.Errorf("Run stamped %q, want %q", a.Engine, EngineTick)
	}
	b, err := RunAuto(Config{M: 2}, autoJobs(t), &markedSched{safe: true})
	if err != nil {
		t.Fatal(err)
	}
	if b.Engine != EngineEvented {
		t.Errorf("RunAuto stamped %q, want %q", b.Engine, EngineEvented)
	}
}

// TestRouteStatsCount checks the aggregate counter used by experiment grids.
func TestRouteStatsCount(t *testing.T) {
	var rs RouteStats
	rs.Count(EngineEvented, "x")
	rs.Count(EngineTick, "y")
	rs.Count(EngineTick, "z")
	if rs.Evented() != 1 || rs.Tick() != 2 {
		t.Errorf("counts evented=%d tick=%d, want 1/2", rs.Evented(), rs.Tick())
	}
}

// TestRunAutoEventTelemetryMatches checks that an event-only recorder (no
// probe) does not block evented routing and produces the same decision-event
// stream either way.
func TestRunAutoEventTelemetryMatches(t *testing.T) {
	run := func(f func(Config, []*Job, Scheduler) (*Result, error)) (*Result, int) {
		rec := telemetry.NewRecorder()
		res, err := f(Config{M: 3, Telemetry: rec}, autoJobs(t), &markedSched{safe: true})
		if err != nil {
			t.Fatal(err)
		}
		return res, len(rec.Events())
	}
	auto, autoEvents := run(RunAuto)
	if auto.Engine != EngineEvented {
		t.Fatalf("event-only recorder routed to %q, want evented", auto.Engine)
	}
	tick, tickEvents := run(Run)
	if err := resultsEqual(t, auto, tick); err != nil {
		t.Fatal(err)
	}
	if autoEvents != tickEvents {
		t.Errorf("event counts differ: evented %d vs tick %d", autoEvents, tickEvents)
	}
}
