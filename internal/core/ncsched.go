package core

import (
	"fmt"
	"math"

	"dagsched/internal/queue"
	"dagsched/internal/sim"
	"dagsched/internal/telemetry"
)

// SchedulerNC explores the paper's third open question: can a *fully
// non-clairvoyant* scheduler — one that knows a job's release, deadline, and
// profit but neither its total work W nor its span L — approach the
// semi-non-clairvoyant guarantee?
//
// It runs scheduler S's machinery on doubling guesses: each job starts with
// the optimistic guess Ŵ = m (and the balanced-shape assumption L̂ = Ŵ/m),
// from which the allotment, x̂, and density are derived exactly as in S.
// Whenever a job's observed executed work reaches its guess without the job
// completing, the guess doubles and the job is re-admitted under its new
// parameters (possibly parked in P if its band is now full or it is no
// longer fresh). The total work wasted by under-guessing is at most a
// constant factor (the guesses form a geometric series), which is the
// standard non-clairvoyant doubling argument; the open question is whether
// the admission structure survives, and the EXT experiment measures the
// price empirically.
type SchedulerNC struct {
	opts  Options
	m     int
	speed float64

	q    queue.DensityList
	p    queue.DensityList
	band queue.BandIndex
	info map[int]*ncJob
	qVer uint64 // Q's version for band memos: bumped by admit and dropFromQ

	started   int
	startedPr float64
	regrows   int // total guess doublings

	tel *telemetry.Recorder // nil unless a run recorder is attached
}

// ncJob is NC's per-job bookkeeping under the current guess.
type ncJob struct {
	view   sim.JobView
	guessW float64 // Ŵ

	alloc   int
	x       float64
	weight  float64
	density float64
	profit  float64
	good    bool
	inQ     bool
	band    bandMemo // N(Q, v_j, c·v_j) while the job is in Q
}

// NewSchedulerNC returns a configured non-clairvoyant scheduler. It panics
// on invalid parameters.
func NewSchedulerNC(opts Options) *SchedulerNC {
	if err := opts.Params.Validate(); err != nil {
		panic(err)
	}
	if opts.NewBand == nil {
		opts.NewBand = func() queue.BandIndex { return queue.NewTreapBand(0x5eed) }
	}
	return &SchedulerNC{opts: opts}
}

// Name implements sim.Scheduler.
func (s *SchedulerNC) Name() string {
	return fmt.Sprintf("paper-NC(eps=%g)", s.opts.Params.Epsilon)
}

// Init implements sim.Scheduler.
func (s *SchedulerNC) Init(env sim.Env) {
	s.m = env.M
	s.speed = env.Speed
	s.q = queue.DensityList{}
	s.p = queue.DensityList{}
	s.band = s.opts.NewBand()
	s.info = make(map[int]*ncJob)
	s.started = 0
	s.startedPr = 0
	s.regrows = 0
}

// SetTelemetry implements telemetry.Instrumentable.
func (s *SchedulerNC) SetTelemetry(rec *telemetry.Recorder) { s.tel = rec }

// Started mirrors SchedulerS.Started.
func (s *SchedulerNC) Started() (count int, totalProfit float64) {
	return s.started, s.startedPr
}

// Regrows returns how many guess doublings occurred — the non-clairvoyance
// overhead counter.
func (s *SchedulerNC) Regrows() int { return s.regrows }

// recompute derives the S parameters from the current guess. The job's true
// W and L are deliberately never read.
func (s *SchedulerNC) recompute(j *ncJob) {
	par := s.opts.Params
	w := j.guessW / s.speed
	l := w / float64(s.m) // balanced-shape assumption
	d := float64(j.view.RelDeadline())
	j.profit = j.view.Profit.At(j.view.RelDeadline())

	denom := d/(1+2*par.Delta) - l
	switch {
	case denom <= 0:
		j.alloc = s.m
		j.x = math.Inf(1)
		j.weight = float64(s.m)
		j.density = 0
		j.good = false
		return
	default:
		a := int(math.Ceil((w - l) / denom))
		if a < 1 {
			a = 1
		}
		if a > s.m {
			a = s.m
		}
		j.alloc = a
	}
	j.x = (w-l)/float64(j.alloc) + l
	j.weight = float64(j.alloc) * j.x * (1 + 2*par.Delta) / d
	j.density = j.profit / (j.x * float64(j.alloc))
	j.good = (1+2*par.Delta)*j.x <= d
}

// bandOK is condition (2) against the current Q (same structure as in S):
// the scan starts at the first queued job with density ≤ v, and queued jobs'
// band sums are memoized until Q next changes.
func (s *SchedulerNC) bandOK(cand *ncJob) bool {
	par := s.opts.Params
	bm := par.B() * float64(s.m)
	v := cand.density
	if s.band.SumRange(v, par.C*v)+cand.weight > bm {
		return false
	}
	ok := true
	s.q.ForEachFrom(v, func(it queue.Item) bool {
		if it.Density*par.C <= v {
			return false
		}
		if s.info[it.ID].band.get(s.qVer, s.band, it, par.C)+cand.weight > bm {
			ok = false
			return false
		}
		return true
	})
	return ok
}

func (s *SchedulerNC) admit(j *ncJob) {
	it := queue.Item{ID: j.view.ID, Density: j.density, Weight: j.weight}
	s.q.Insert(it)
	s.band.Insert(it)
	s.qVer++
	if !j.inQ {
		s.started++
		s.startedPr += j.profit
	}
	j.inQ = true
}

func (s *SchedulerNC) dropFromQ(id int) {
	if it, ok := s.q.Get(id); ok {
		s.q.Remove(id)
		s.band.Remove(id, it.Density)
		s.qVer++
	}
	if j, ok := s.info[id]; ok {
		j.inQ = false
	}
}

// OnArrival implements sim.Scheduler.
func (s *SchedulerNC) OnArrival(t int64, v sim.JobView) {
	j := &ncJob{view: v, guessW: float64(s.m)}
	s.info[v.ID] = j
	s.recompute(j)
	if j.good && s.bandOK(j) {
		s.admit(j)
		if s.tel != nil {
			ev := telemetry.JobEvent(t, telemetry.KindAdmit, v.ID)
			ev.Procs = j.alloc
			ev.Value = j.density
			s.tel.Emit(ev)
		}
		return
	}
	if s.tel != nil {
		ev := telemetry.JobEvent(t, telemetry.KindPark, v.ID)
		if !j.good {
			ev.Why = "not-delta-good"
		} else {
			ev.Why = "band-full"
		}
		s.tel.Emit(ev)
	}
	s.p.Insert(queue.Item{ID: v.ID, Density: j.density, Weight: j.weight})
}

// OnExpire implements sim.Scheduler.
func (s *SchedulerNC) OnExpire(t int64, jobID int) {
	s.dropFromQ(jobID)
	s.p.Remove(jobID)
	delete(s.info, jobID)
}

// OnCompletion implements sim.Scheduler: free the band, then scan P.
func (s *SchedulerNC) OnCompletion(t int64, jobID int) {
	s.dropFromQ(jobID)
	delete(s.info, jobID)
	s.scanP(t + 1)
}

// scanP admits δ-fresh waiting jobs whose bands have room.
func (s *SchedulerNC) scanP(now int64) {
	par := s.opts.Params
	var admitted, stale []int
	s.p.ForEach(func(it queue.Item) bool {
		j := s.info[it.ID]
		if float64(j.view.AbsDeadline()) <= float64(now) {
			stale = append(stale, it.ID)
			return true
		}
		fresh := float64(j.view.AbsDeadline()-now) >= (1+par.Delta)*j.x
		if fresh && s.bandOK(j) {
			s.admit(j)
			admitted = append(admitted, it.ID)
			if s.tel != nil {
				ev := telemetry.JobEvent(now, telemetry.KindReadmit, it.ID)
				ev.Procs = j.alloc
				ev.Value = j.density
				s.tel.Emit(ev)
			}
		}
		return true
	})
	for _, id := range admitted {
		s.p.Remove(id)
	}
	for _, id := range stale {
		s.p.Remove(id)
		delete(s.info, id)
		if s.tel != nil {
			ev := telemetry.JobEvent(now, telemetry.KindAbandon, id)
			ev.Why = "stale"
			s.tel.Emit(ev)
		}
	}
}

// Assign implements sim.Scheduler. Before allocating it settles guesses:
// any running job whose executed work reached its guess without completing
// gets its guess doubled and is re-filed (Q if still fresh and band-feasible,
// else P).
func (s *SchedulerNC) Assign(t int64, view sim.AssignView, dst []sim.Alloc) []sim.Alloc {
	par := s.opts.Params
	// Settle guesses.
	var regrow []int
	s.q.ForEach(func(it queue.Item) bool {
		j := s.info[it.ID]
		if float64(view.ExecutedWork(it.ID)) >= j.guessW {
			regrow = append(regrow, it.ID)
		}
		return true
	})
	for _, id := range regrow {
		j := s.info[id]
		s.dropFromQ(id)
		for j.guessW <= float64(view.ExecutedWork(id)) {
			j.guessW *= 2
		}
		s.regrows++
		s.recompute(j)
		if s.tel != nil {
			ev := telemetry.JobEvent(t, telemetry.KindRegrow, id)
			ev.Value = j.guessW
			s.tel.Emit(ev)
		}
		fresh := float64(j.view.AbsDeadline()-t) >= (1+par.Delta)*j.x
		if j.good && fresh && s.bandOK(j) {
			s.admit(j)
		} else {
			s.p.Insert(queue.Item{ID: id, Density: j.density, Weight: j.weight})
		}
	}
	// Allocate exactly as S does.
	free := s.m
	var expired []int
	s.q.ForEach(func(it queue.Item) bool {
		j := s.info[it.ID]
		if j.view.AbsDeadline() <= t {
			expired = append(expired, it.ID)
			return true
		}
		if free >= j.alloc {
			dst = append(dst, sim.Alloc{JobID: it.ID, Procs: j.alloc})
			free -= j.alloc
		}
		return free > 0
	})
	for _, id := range expired {
		s.dropFromQ(id)
		delete(s.info, id)
		if s.tel != nil {
			ev := telemetry.JobEvent(t, telemetry.KindAbandon, id)
			ev.Why = "past-deadline"
			s.tel.Emit(ev)
		}
	}
	return dst
}

var _ sim.Scheduler = (*SchedulerNC)(nil)
