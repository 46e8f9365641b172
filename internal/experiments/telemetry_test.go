package experiments

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"dagsched/internal/baselines"
	"dagsched/internal/core"
	"dagsched/internal/rational"
	"dagsched/internal/runner"
	"dagsched/internal/sim"
	"dagsched/internal/telemetry"
	"dagsched/internal/workload"
)

// eventStream runs sched on inst with a fresh recorder and returns the
// encoded decision-event stream. evented runs through sim.RunAuto and
// requires it to hold decisions across events; otherwise sim.Run ticks.
func eventStream(t *testing.T, inst *workload.Instance, sched sim.Scheduler, evented bool) []byte {
	t.Helper()
	rec := telemetry.NewRecorder()
	telemetry.Attach(sched, rec)
	cfg := sim.Config{M: inst.M, Speed: rational.One(), Telemetry: rec}
	run, want := sim.Run, sim.EngineTick
	if evented {
		run, want = sim.RunAuto, sim.EngineEvented
	}
	res, err := run(cfg, inst.Jobs, sched)
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine != want {
		t.Fatalf("ran on %q, want %q", res.Engine, want)
	}
	return telemetry.EventsJSONL(rec.Events())
}

func telemetryInstance(t *testing.T, seed int64) *workload.Instance {
	t.Helper()
	inst, err := workload.Generate(workload.Config{
		Seed: seed, N: 50, M: 8, Eps: 1, SlackSpread: 0.4, Load: 2.5, Scale: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// TestEventStreamRepeatDeterministic re-runs the same instance and demands a
// byte-identical stream: no map-order, timer, or pointer artifacts leak into
// the telemetry.
func TestEventStreamRepeatDeterministic(t *testing.T) {
	inst := telemetryInstance(t, 21)
	a := eventStream(t, inst, core.NewSchedulerS(core.Options{Params: core.MustParams(1)}), false)
	b := eventStream(t, inst, core.NewSchedulerS(core.Options{Params: core.MustParams(1)}), false)
	if !bytes.Equal(a, b) {
		t.Error("two runs of the same instance produced different event streams")
	}
}

// TestEventStreamCrossEngineIdentical is the engine-equivalence contract
// extended to telemetry: for event-stationary schedulers the tick engine and
// the evented engine must emit byte-identical decision streams.
func TestEventStreamCrossEngineIdentical(t *testing.T) {
	inst := telemetryInstance(t, 22)
	mks := map[string]func() sim.Scheduler{
		"paper-S":   func() sim.Scheduler { return core.NewSchedulerS(core.Options{Params: core.MustParams(1)}) },
		"edf":       func() sim.Scheduler { return &baselines.ListScheduler{Order: baselines.OrderEDF} },
		"federated": func() sim.Scheduler { return &baselines.Federated{} },
	}
	for name, mk := range mks {
		tick := eventStream(t, inst, mk(), false)
		evented := eventStream(t, inst, mk(), true)
		if !bytes.Equal(tick, evented) {
			t.Errorf("%s: tick and evented engines emitted different event streams", name)
		}
	}
}

// TestEventStreamIdenticalAcrossWorkers runs one instrumented simulation per
// seed through runner.Map at 1 and 8 workers and compares the streams cell by
// cell: scheduling cells onto goroutines must not reorder or alter any run's
// telemetry.
func TestEventStreamIdenticalAcrossWorkers(t *testing.T) {
	seeds := []int64{31, 32, 33, 34, 35, 36}
	collect := func(workers int) [][]byte {
		out, err := runner.Map(context.Background(), "telemetry", seeds,
			runner.Options{Parallel: workers},
			func(_ context.Context, seed int64, _ int) ([]byte, error) {
				inst, err := workload.Generate(workload.Config{
					Seed: seed, N: 40, M: 8, Eps: 1, SlackSpread: 0.4, Load: 2, Scale: 2,
				})
				if err != nil {
					return nil, err
				}
				rec := telemetry.NewRecorder()
				sched := core.NewSchedulerS(core.Options{Params: core.MustParams(1)})
				telemetry.Attach(sched, rec)
				if _, err := sim.Run(sim.Config{M: inst.M, Telemetry: rec}, inst.Jobs, sched); err != nil {
					return nil, err
				}
				return telemetry.EventsJSONL(rec.Events()), nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial := collect(1)
	parallel := collect(8)
	for i := range seeds {
		if !bytes.Equal(serial[i], parallel[i]) {
			t.Errorf("seed %d: event stream differs between 1 and 8 workers", seeds[i])
		}
	}
}

// TestTelemetrySinkIndependentOfParallel folds the per-run registries of a
// whole experiment grid at two worker counts; the commutative merge must make
// the aggregates identical.
func TestTelemetrySinkIndependentOfParallel(t *testing.T) {
	run := func(workers int) map[string]int64 {
		sink := telemetry.NewSink()
		cfg := Config{Quick: true, Seeds: 2, Parallel: workers, Telemetry: sink}
		if _, err := RunADV(cfg); err != nil {
			t.Fatal(err)
		}
		return sink.Counters()
	}
	serial := run(1)
	parallel := run(8)
	if len(serial) == 0 {
		t.Fatal("instrumented grid recorded no counters")
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("telemetry aggregates differ across worker counts:\n1 worker: %v\n8 workers: %v", serial, parallel)
	}
}
