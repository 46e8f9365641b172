package main

import (
	"time"

	"dagsched/internal/core"
	"dagsched/internal/sim"
)

// span accumulates the calls into one scheduler callback.
type span struct {
	n int64
	d time.Duration
}

func (s *span) add(t0 time.Time) {
	s.n++
	s.d += time.Since(t0)
}

func (s span) meanUs() float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.d) / float64(s.n) / float64(time.Microsecond)
}

// timedScheduler wraps a sim.Scheduler and times every callback into it.
// It forwards the optional engine interfaces (EventSafe, Committer,
// CapacityAware) with the inner scheduler's answers, so RunAuto routes the
// wrapped scheduler to the same engine and the run is identical; a method
// the inner scheduler lacks answers as if the interface were absent.
type timedScheduler struct {
	inner                      sim.Scheduler
	arrival, expire, assign    span
	completion                 span
	classify                   bool // count S's verdicts (costs a Plan query per arrival, outside the timed call)
	admitted, parked, rejected int64
}

// queueSizer and planner are the parts of core.SchedulerS the verdict
// classification reads.
type queueSizer interface{ QueueSizes() (q, p int) }
type planner interface{ Plan(sim.JobView) core.Plan }

func (s *timedScheduler) Name() string     { return s.inner.Name() }
func (s *timedScheduler) Init(env sim.Env) { s.inner.Init(env) }

func (s *timedScheduler) OnArrival(t int64, v sim.JobView) {
	qs, okQ := s.inner.(queueSizer)
	pl, okP := s.inner.(planner)
	classify := s.classify && okQ && okP
	var q0 int
	var good bool
	if classify {
		q0, _ = qs.QueueSizes()
		good = pl.Plan(v).Good
	}
	t0 := time.Now()
	s.inner.OnArrival(t, v)
	s.arrival.add(t0)
	if classify {
		q1, _ := qs.QueueSizes()
		switch {
		case q1 > q0:
			s.admitted++
		case good:
			s.parked++
		default:
			s.rejected++
		}
	}
}

func (s *timedScheduler) OnExpire(t int64, jobID int) {
	t0 := time.Now()
	s.inner.OnExpire(t, jobID)
	s.expire.add(t0)
}

func (s *timedScheduler) Assign(t int64, view sim.AssignView, dst []sim.Alloc) []sim.Alloc {
	t0 := time.Now()
	dst = s.inner.Assign(t, view, dst)
	s.assign.add(t0)
	return dst
}

func (s *timedScheduler) OnCompletion(t int64, jobID int) {
	t0 := time.Now()
	s.inner.OnCompletion(t, jobID)
	s.completion.add(t0)
}

func (s *timedScheduler) EventSafe() bool {
	es, ok := s.inner.(sim.EventSafe)
	return ok && es.EventSafe()
}

func (s *timedScheduler) Committed(jobID int) bool {
	c, ok := s.inner.(sim.Committer)
	return ok && c.Committed(jobID)
}

func (s *timedScheduler) OnCapacityChange(t int64, capacity int) {
	if ca, ok := s.inner.(sim.CapacityAware); ok {
		ca.OnCapacityChange(t, capacity)
	}
}

func (s *timedScheduler) OnWorkLost(t int64, jobID int, lost int64) {
	if ca, ok := s.inner.(sim.CapacityAware); ok {
		ca.OnWorkLost(t, jobID, lost)
	}
}

// inside is the total time spent in the inner scheduler.
func (s *timedScheduler) inside() time.Duration {
	return s.arrival.d + s.expire.d + s.assign.d + s.completion.d
}

func (s *timedScheduler) calls() int64 {
	return s.arrival.n + s.expire.n + s.assign.n + s.completion.n
}
