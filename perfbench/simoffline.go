package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"dagsched/internal/cliflags"
	"dagsched/internal/faults"
	"dagsched/internal/opt"
	"dagsched/internal/sim"
	"dagsched/internal/workload"
)

// simConfig is the offline-simulator workload: generator instances run
// through sim.RunAuto with Scheduler S, fault-free (evented engine) and
// with a fault spec (tick engine).
type simConfig struct {
	M         int     `json:"m"`
	Jobs      int     `json:"jobs"`
	Instances int     `json:"instances"`
	Load      float64 `json:"load"`
	Eps       float64 `json:"eps"`
	Scale     float64 `json:"scale"`
	Faults    string  `json:"faults"`
}

func (c *simConfig) instances(seed int64) ([]*workload.Instance, error) {
	out := make([]*workload.Instance, c.Instances)
	for k := range out {
		in, err := workload.Generate(workload.Config{
			Seed: seed*1000 + int64(k), N: c.Jobs, M: c.M, Eps: c.Eps, SlackSpread: 1,
			Load: c.Load, Shapes: []workload.Shape{workload.ShapeLayered}, Scale: c.Scale,
		})
		if err != nil {
			return nil, err
		}
		out[k] = in
	}
	return out, nil
}

func (c *simConfig) run(in *workload.Instance, fc *faults.Config, ts *timedScheduler) (*sim.Result, error) {
	s, err := cliflags.MakeScheduler("s", c.Eps, false)
	if err != nil {
		return nil, err
	}
	if ts != nil {
		ts.inner = s
		s = ts
	}
	return sim.RunAuto(sim.Config{M: c.M, Faults: fc}, in.Jobs, s)
}

func resultJSON(r *sim.Result) []byte {
	b, _ := json.Marshal(r)
	return b
}

func runSimOffline(env *runEnv) (*outcome, error) {
	var cfg simConfig
	if err := loadConfig(env, "sim-offline", &cfg); err != nil {
		return nil, err
	}
	fc, err := faults.ParseSpec(cfg.Faults)
	if err != nil {
		return nil, err
	}
	fc.Seed = env.seed
	o := newOutcome()
	var insts []*workload.Instance
	// Set-up is the median process CPU time of generating the instance
	// pool, each generation from a collected heap and scaled by a yardstick
	// run right after it, so the figure follows the host's speed at set-up.
	var setups, setupsRef []float64
	for i := 0; i < 15; i++ {
		runtime.GC()
		c0 := selfCPU()
		if insts, err = cfg.instances(env.seed); err != nil {
			return nil, err
		}
		g := (selfCPU() - c0).Seconds()
		setups = append(setups, g)
		setupsRef = append(setupsRef, atRefSpeed(g, yardstickUs(1), yardstickRefUs))
	}
	setup := median(setups)

	// Correctness, untimed: the tick engine agrees with RunAuto on the
	// fault-free instance, a rerun reproduces the Result, and profit stays
	// within the offline optimum's upper bound.
	var earned, offered float64
	for k, in := range insts {
		auto, err := cfg.run(in, nil, nil)
		if err != nil {
			return nil, err
		}
		if auto.Engine != sim.EngineEvented {
			o.problem("instance %d: fault-free run routed to %s", k, auto.Engine)
		}
		s, err := cliflags.MakeScheduler("s", cfg.Eps, false)
		if err != nil {
			return nil, err
		}
		tick, err := sim.Run(sim.Config{M: cfg.M}, in.Jobs, s)
		if err != nil {
			return nil, err
		}
		a, b := *auto, *tick
		a.Engine, b.Engine = "", ""
		if !bytes.Equal(resultJSON(&a), resultJSON(&b)) {
			o.problem("instance %d: sim.Run and sim.RunAuto differ", k)
		}
		again, err := cfg.run(in, nil, nil)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(resultJSON(auto), resultJSON(again)) {
			o.problem("instance %d: rerun differs", k)
		}
		if ub := opt.Bound(opt.TasksFromJobs(in.Jobs, cfg.M, 1), cfg.M, 1); auto.TotalProfit > ub*(1+1e-9) {
			o.problem("instance %d: profit %.3f above the OPT bound %.3f", k, auto.TotalProfit, ub)
		}
		earned += auto.TotalProfit
		offered += auto.OfferedProfit
	}
	o.values["profit_frac"] = earned / offered

	// The measured loop: one op is the fault-free and the faulty run of one
	// instance; one cycle runs every instance of the pool once. Cycles
	// repeat until the run's time is spent; only whole cycles count, so
	// every instance weighs the same. After each cycle the yardstick
	// measures the host's speed, its CPU time left out.
	var ts, tsFaulty *timedScheduler
	if env.trace {
		ts, tsFaulty = &timedScheduler{classify: true}, &timedScheduler{}
	}
	type cycle struct {
		ops           []float64
		clean, faulty time.Duration
	}
	var cycles []cycle
	var yard []float64
	var ticks int64
	t0, cpu0 := time.Now(), selfCPU()
	for len(cycles) < 4 || time.Since(t0).Seconds() < env.seconds {
		var cy cycle
		for _, in := range insts {
			a := time.Now()
			r1, err := cfg.run(in, nil, ts)
			if err != nil {
				return nil, err
			}
			b := time.Now()
			r2, err := cfg.run(in, &fc, tsFaulty)
			if err != nil {
				return nil, err
			}
			c := time.Now()
			if r2.Engine != sim.EngineTick {
				o.problem("faulty run routed to %s", r2.Engine)
			}
			cy.clean += b.Sub(a)
			cy.faulty += c.Sub(b)
			cy.ops = append(cy.ops, ms(c.Sub(a)))
			o.attempted += 2
			if len(cycles) == 0 {
				ticks += r1.Ticks
			}
		}
		cycles = append(cycles, cy)
		c1 := selfCPU()
		yard = append(yard, yardstickUs(1))
		cpu0 += selfCPU() - c1
	}
	cpu := selfCPU() - cpu0

	var opMs []float64
	var clean, faulty time.Duration
	for _, cy := range cycles {
		opMs = append(opMs, cy.ops...)
		clean += cy.clean
		faulty += cy.faulty
	}
	jobs := len(cycles) * len(insts) * cfg.Jobs
	jobsFaulty := jobs
	op := summarize(opMs)
	v := o.values
	v["op_p50_ms"] = op.p50
	v["op_p90_ms"] = op.p90
	cpuUs := float64(cpu) / float64(time.Microsecond) / float64(jobs+jobsFaulty)
	yardUs := median(yard)
	v["cpu_us_per_item"] = atRefSpeed(cpuUs, yardUs, yardstickRefUs)
	v["setup_s"] = median(setupsRef)
	o.note("ledger cpu: %.2f us/job, set-up %.4f s; yardstick %.0f us against %d for the reference speed; at the reference speed %.2f us/job, set-up %.4f s (each generation scaled by its own yardstick)",
		cpuUs, setup, yardUs, yardstickRefUs, v["cpu_us_per_item"], v["setup_s"])
	v["peak_rss_mb"] = float64(selfHWM()) / (1 << 20)
	v["sim.jobs_per_s"] = float64(jobs) / clean.Seconds()
	v["sim.faulty_jobs_per_s"] = float64(jobsFaulty) / faulty.Seconds()
	v["sim.ticks_per_job"] = float64(ticks) / float64(len(insts)*cfg.Jobs)
	if ts != nil {
		n := float64(jobs)
		v["core.on_arrival_us"] = ts.arrival.meanUs()
		v["core.assign_us"] = ts.assign.meanUs()
		v["core.on_completion_us"] = ts.completion.meanUs()
		v["core.calls_per_job"] = float64(ts.calls()) / n
		v["sim.self_us_per_job"] = float64(clean-ts.inside()) / float64(time.Microsecond) / n
		v["core.admit_frac"] = float64(ts.admitted) / n
		v["core.park_frac"] = float64(ts.parked) / n
		v["core.reject_frac"] = float64(ts.rejected) / n
	}
	o.note("ledger sim-offline: %d cycles over %d instances of %d jobs (m=%d); fault-free %.0f jobs/s, faulty %.0f jobs/s; op p50 %.3f ms p90 %.3f ms",
		len(cycles), len(insts), cfg.Jobs, cfg.M, v["sim.jobs_per_s"], v["sim.faulty_jobs_per_s"], op.p50, op.p90)
	if ts != nil {
		o.note("ledger sim-offline layers (us): OnArrival %.2f, Assign %.2f, OnCompletion %.2f, %.1f scheduler calls/job; engine self %.1f us/job",
			v["core.on_arrival_us"], v["core.assign_us"], v["core.on_completion_us"], v["core.calls_per_job"], v["sim.self_us_per_job"])
	}
	if len(opMs) == 0 {
		return nil, fmt.Errorf("no sim ops ran")
	}
	return o, nil
}
