package experiments

import (
	"testing"

	"dagsched/internal/baselines"
	"dagsched/internal/core"
	"dagsched/internal/rational"
	"dagsched/internal/sim"
	"dagsched/internal/workload"
)

// TestEventedEngineMatchesTickForRealSchedulers is the strong integration
// check of event jumping: the paper's scheduler (plain and work-conserving)
// and the event-stationary baselines must route to the evented engine under
// sim.RunAuto and produce results bit-identical to sim.Run on generated
// workloads.
func TestEventedEngineMatchesTickForRealSchedulers(t *testing.T) {
	makers := map[string]func() sim.Scheduler{
		"S": func() sim.Scheduler { return freshS(1) },
		"S+wc": func() sim.Scheduler {
			return core.NewSchedulerS(core.Options{Params: core.MustParams(1), WorkConserving: true})
		},
		"edf":       func() sim.Scheduler { return &baselines.ListScheduler{Order: baselines.OrderEDF} },
		"fifo":      func() sim.Scheduler { return &baselines.ListScheduler{Order: baselines.OrderFIFO} },
		"hdf":       func() sim.Scheduler { return &baselines.ListScheduler{Order: baselines.OrderHDF} },
		"federated": func() sim.Scheduler { return &baselines.Federated{} },
	}
	for seed := int64(0); seed < 4; seed++ {
		inst, err := workload.Generate(workload.Config{
			Seed: 2000 + seed, N: 25, M: 6, Eps: 1, SlackSpread: 0.4, Load: 2, Scale: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, sp := range []rational.Rat{rational.One(), rational.New(3, 2)} {
			for name, mk := range makers {
				cfg := sim.Config{M: inst.M, Speed: sp}
				a, err := sim.Run(cfg, inst.Jobs, mk())
				if err != nil {
					t.Fatalf("%s tick: %v", name, err)
				}
				b, err := sim.RunAuto(cfg, inst.Jobs, mk())
				if err != nil {
					t.Fatalf("%s evented: %v", name, err)
				}
				if b.Engine != sim.EngineEvented {
					t.Fatalf("%s: RunAuto ran on %q, want %q", name, b.Engine, sim.EngineEvented)
				}
				if a.TotalProfit != b.TotalProfit || a.Completed != b.Completed ||
					a.BusyProcTicks != b.BusyProcTicks || a.Ticks != b.Ticks {
					t.Errorf("seed %d speed %v %s: tick (profit=%v done=%d busy=%d ticks=%d) vs evented (profit=%v done=%d busy=%d ticks=%d)",
						seed, sp, name,
						a.TotalProfit, a.Completed, a.BusyProcTicks, a.Ticks,
						b.TotalProfit, b.Completed, b.BusyProcTicks, b.Ticks)
				}
			}
		}
	}
}
