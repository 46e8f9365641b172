package sim

import "sync/atomic"

// RouteStats counts RunAuto engine choices. Safe for concurrent use, so one
// instance can aggregate a whole experiment grid across runner workers; wire
// it up through Config.OnRoute with (*RouteStats).Count.
type RouteStats struct {
	tick    atomic.Int64
	evented atomic.Int64
}

// Count records one routing decision; it has the Config.OnRoute signature's
// first argument and ignores the reason.
func (r *RouteStats) Count(engine, _ string) {
	switch engine {
	case EngineEvented:
		r.evented.Add(1)
	default:
		r.tick.Add(1)
	}
}

// Tick returns how many runs decided every tick.
func (r *RouteStats) Tick() int64 { return r.tick.Load() }

// Evented returns how many runs held decisions across events.
func (r *RouteStats) Evented() int64 { return r.evented.Load() }

// EventSafe marks schedulers (and node-pick policies) whose decisions are
// stationary between engine events. A scheduler is event-safe when its Assign
// output depends only on state that changes at events — arrivals, expiries,
// completions — never on the clock or on executed work read between events.
// A policy is event-safe when its pick is invariant across an interval in
// which the ready set is unchanged and only picked nodes' remaining work
// shrinks. RunAuto consults the marker; implementations that cannot promise
// stationarity must simply not implement it.
type EventSafe interface {
	// EventSafe reports whether this configuration of the implementation is
	// event-stationary. A type whose safety depends on options (e.g. a list
	// scheduler whose LLF order reads the clock) returns false for the
	// unsafe configurations.
	EventSafe() bool
}

// Routing reasons reported through Config.OnRoute.
const (
	reasonFaults      = "fault injection is per-tick"
	reasonProbe       = "telemetry probes sample per tick"
	reasonSchedOptOut = "scheduler does not declare event safety"
	reasonSchedUnsafe = "scheduler configuration is not event-stationary"
	reasonPolicy      = "node-pick policy is not event-stationary"
	reasonSafe        = "scheduler and policy are event-stationary"
)

// routeEngine decides whether a session may hold an allocation across ticks
// (EngineEvented) or must decide every tick (EngineTick), and why. Holding is
// chosen only when equivalence is provable: no fault injection (faults are
// defined per tick), no telemetry probes (they sample per tick), an
// event-safe scheduler, and an event-safe policy (nil means dag.ByID, which
// is safe).
func routeEngine(cfg Config, sched Scheduler) (engine, reason string) {
	if cfg.Faults != nil {
		return EngineTick, reasonFaults
	}
	if cfg.Telemetry != nil && cfg.Telemetry.Probe != nil {
		return EngineTick, reasonProbe
	}
	es, ok := sched.(EventSafe)
	if !ok {
		return EngineTick, reasonSchedOptOut
	}
	if !es.EventSafe() {
		return EngineTick, reasonSchedUnsafe
	}
	if cfg.Policy != nil {
		pes, ok := cfg.Policy.(EventSafe)
		if !ok || !pes.EventSafe() {
			return EngineTick, reasonPolicy
		}
	}
	return EngineEvented, reasonSafe
}

// RunAuto simulates jobs under sched, fast-forwarding between events when
// the (scheduler, policy, faults, probe) combination permits it and ticking
// otherwise. Results are bit-identical to Run either way; Result.Engine
// records the choice, and Config.OnRoute (if set) observes it before the run
// starts.
func RunAuto(cfg Config, jobs []*Job, sched Scheduler) (*Result, error) {
	eng, reason := routeEngine(cfg, sched)
	if cfg.OnRoute != nil {
		cfg.OnRoute(eng, reason)
	}
	return run(cfg, jobs, sched, eng == EngineEvented)
}
