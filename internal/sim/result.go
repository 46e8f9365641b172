package sim

import "dagsched/internal/dag"

// JobStat is the per-job outcome of a run.
type JobStat struct {
	ID          int
	Released    int64
	W           int64
	L           int64
	Completed   bool
	CompletedAt int64   // absolute completion time (0 when not completed)
	Latency     int64   // CompletedAt − Released (0 when not completed)
	Profit      float64 // profit earned (0 when not completed or too late)
	ProcTicks   int64   // processor-ticks allocated to the job
	Preemptions int64   // times the job was paused while unfinished
}

// Engine names for Result.Engine and the Config.OnRoute hook.
const (
	// EngineTick: the session decides every tick (Run).
	EngineTick = "tick"
	// EngineEvented: the session holds each decision until the next event
	// (RunAuto and NewSession on event-safe configurations).
	EngineEvented = "evented"
)

// Result is the outcome of one simulation run.
type Result struct {
	Scheduler string
	M         int
	Speed     float64
	Engine    string // which engine produced the run: EngineTick or EngineEvented
	Ticks     int64  // ticks simulated (the clock value after the last tick)

	TotalProfit   float64 // Σ profit of completed-in-time jobs
	OfferedProfit float64 // Σ maximum per-job profit (completion latency 1)
	Completed     int
	Expired       int

	BusyProcTicks int64 // processor-ticks spent executing nodes
	IdleProcTicks int64 // processor-ticks without a node to run

	Jobs   []JobStat
	Trace  *Trace      // nil unless Config.Record
	Faults *FaultStats `json:",omitempty"` // nil unless Config.Faults
}

// FaultStats aggregates fault-injection outcomes over the simulated
// (non-idle) ticks of a run; nil on fault-free runs. Processor-ticks lost
// to crashes, drops, and straggling are not productive, so they also appear
// in IdleProcTicks — Utilization keeps meaning "productive fraction".
type FaultStats struct {
	DegradedTicks     int64 // ticks with fewer than M processors up
	MinCapacity       int   // smallest per-tick capacity observed
	CrashEvents       int64 // up→down transitions between consecutive simulated ticks
	DownProcTicks     int64 // processor-ticks spent crashed
	DroppedProcTicks  int64 // granted processor-ticks that found no live processor
	StraggleProcTicks int64 // granted processor-ticks stalled on straggling processors
	Retries           int64 // node executions that failed, forcing re-execution
	LostWork          int64 // declared-scale work units discarded by those failures
}

// Utilization returns the fraction of processor-ticks spent executing.
func (r *Result) Utilization() float64 {
	total := r.BusyProcTicks + r.IdleProcTicks
	if total == 0 {
		return 0
	}
	return float64(r.BusyProcTicks) / float64(total)
}

// CompletionRate returns completed jobs over all jobs.
func (r *Result) CompletionRate() float64 {
	if len(r.Jobs) == 0 {
		return 0
	}
	return float64(r.Completed) / float64(len(r.Jobs))
}

// ProfitFraction returns earned profit over offered profit.
func (r *Result) ProfitFraction() float64 {
	if r.OfferedProfit == 0 {
		return 0
	}
	return r.TotalProfit / r.OfferedProfit
}

// Trace records, tick by tick, which jobs ran on how many processors and
// which nodes executed. It is the input to Gantt rendering and to the
// schedule validator.
type Trace struct {
	M     int
	Ticks []TickRecord
}

// TickRecord is the trace of one tick.
type TickRecord struct {
	T      int64
	Allocs []AllocRecord
	Faults *TickFaults `json:",omitempty"` // nil on fault-free runs
}

// TickFaults records the fault events of one traced tick.
type TickFaults struct {
	Capacity int           // operational processors this tick
	Down     []int         `json:",omitempty"` // crashed processor ids
	Slow     []int         `json:",omitempty"` // granted stragglers that stalled
	Failed   []NodeFailure `json:",omitempty"` // discarded node executions
}

// NodeFailure is one failed node-execution attempt: the node restarts from
// scratch, losing its accumulated work (in engine-scaled units).
type NodeFailure struct {
	JobID int
	Node  dag.NodeID
	Lost  int64
}

// AllocRecord is one job's execution during one tick.
type AllocRecord struct {
	JobID int
	Procs int          // processors granted
	Nodes []dag.NodeID // nodes actually executed (≤ Procs)
}
