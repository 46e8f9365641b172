package core

import (
	"fmt"
	"math"
	"sort"

	"dagsched/internal/queue"
	"dagsched/internal/sim"
	"dagsched/internal/telemetry"
)

// Ablation selects deliberately-weakened variants of scheduler S for the
// ablation experiments; AblationNone is the paper's algorithm.
type Ablation int

const (
	// AblationNone runs the paper's algorithm unmodified.
	AblationNone Ablation = iota
	// AblationNoBandCheck admits every δ-good job to Q immediately,
	// removing condition (2). This voids the Observation 3 invariant that
	// the whole analysis rests on; empirically (ABL1) it trades the
	// worst-case guarantee for extra profit on stochastic workloads, since
	// density-ordered execution self-limits dilution there.
	AblationNoBandCheck
	// AblationNoFreshness admits jobs from P without the δ-fresh test,
	// spending processor steps on jobs that can no longer finish (ABL3).
	AblationNoFreshness
	// AblationAllotOne forces n_i = 1 regardless of the formula (ABL2).
	AblationAllotOne
	// AblationAllotAll forces n_i = m regardless of the formula (ABL2).
	AblationAllotAll
)

// String names the ablation for reports.
func (a Ablation) String() string {
	switch a {
	case AblationNone:
		return "none"
	case AblationNoBandCheck:
		return "no-band-check"
	case AblationNoFreshness:
		return "no-freshness"
	case AblationAllotOne:
		return "allot-1"
	case AblationAllotAll:
		return "allot-m"
	default:
		return fmt.Sprintf("ablation(%d)", int(a))
	}
}

// Options configures a SchedulerS instance.
type Options struct {
	// Params are the ε-derived constants; required.
	Params Params
	// NewBand constructs the band index used for condition (2). Nil means
	// queue.NewTreapBand with a fixed seed.
	NewBand func() queue.BandIndex
	// Ablation optionally weakens the algorithm for ablation studies.
	Ablation Ablation
	// WorkConserving enables the paper's "future work" extension: after the
	// paper's allocation pass, leftover processors are distributed to
	// admitted jobs in density order, up to each job's ready-node count.
	// Admission (δ-good, δ-fresh, condition (2)) is unchanged, so the
	// worst-case analysis is unaffected — extra processors only ever add
	// progress.
	WorkConserving bool
	// ExactSearch makes SchedulerGP scan every candidate deadline as the
	// paper specifies, instead of advancing geometrically after a failed
	// constant-value segment. Exact on any profit family; Θ(horizon²) worst
	// case on continuously-decaying profits.
	ExactSearch bool
	// Commitment is the scheduler-wide commitment policy, overridable per job
	// through sim.Job.Commitment. Under a binding policy (delta, on-arrival)
	// an admitted job is promised completion: it is never abandoned past its
	// commit point, keeps its band weight and allotment until it finishes —
	// even past its deadline, for zero profit — and, under on-arrival, a job
	// that cannot be admitted at release is refused outright instead of
	// parked (the admission verdict is final). The zero value (or
	// sim.CommitmentNone / sim.CommitmentOnAdmission) keeps the paper's
	// semantics: admission is best-effort and overdue jobs are abandoned.
	Commitment sim.Commitment
	// Resilient makes S react to fault-injection feedback (sim.CapacityAware).
	// Planning (allotments, admission) stays against the nominal m — crashes
	// are transient, so a job's lifetime-average capacity is still ≈ m — but
	// each tick's allocation budget follows the announced capacity and is
	// re-partitioned (partial grants) while degraded, jobs whose lost work
	// provably cannot be re-executed before their deadline are expired from Q
	// early with their band refilled from P, and capacity recoveries trigger
	// re-admission from P. Without faults the callbacks never fire beyond the
	// initial capacity, so behavior is identical to the plain scheduler.
	Resilient bool
}

// jobInfo is S's per-job bookkeeping, computed once on arrival (Remark in
// Section 3.1: the allotment is deliberately fixed at arrival).
type jobInfo struct {
	view sim.JobView

	alloc   int     // A_i = min(m, max(1, ceil(n_i))): processors granted when run
	nReal   float64 // the paper's real-valued n_i (for diagnostics)
	x       float64 // x_i = (W_eff−L_eff)/A_i + L_eff in ticks
	weight  float64 // band weight: A_i·x_i·(1+2δ)/D_i = the paper's n_i when exact
	density float64 // v_i = p_i / (x_i·A_i)
	profit  float64 // p_i = profit if completed by the deadline
	good    bool    // δ-good: (1+2δ)·x_i ≤ D_i

	// committed: the scheduler has promised this job completion (set at the
	// commit point of a binding commitment level); it may no longer be
	// abandoned, not even past its deadline.
	committed bool

	band bandMemo // N(Q, v_i, c·v_i) while the job is in Q
}

// bandMemo memoizes one queued job's band sum N(Q, v_j, c·v_j) for condition
// (2), tagged with the version of Q it was read against. A scheduler bumps
// its Q version on every insert into or removal from Q; the band index
// changes only together with Q, so a memo whose version is current holds
// exactly what SumRange would return. Memos are per job and filled lazily:
// a completion that re-runs condition (2) for every parked job reads each
// queued job's band once, and rebuilding a whole-Q table on each change
// instead would cost O(|Q|) per arrival.
type bandMemo struct {
	sum float64
	ver uint64
}

// get returns the band sum of queued item it, reading band only when the
// memo is older than Q version ver.
func (m *bandMemo) get(ver uint64, band queue.BandIndex, it queue.Item, c float64) float64 {
	if m.ver != ver {
		m.sum = band.SumRange(it.Density, c*it.Density)
		m.ver = ver
	}
	return m.sum
}

// SchedulerS is the paper's Section 3 algorithm for jobs with deadlines and
// profits. It implements sim.Scheduler.
type SchedulerS struct {
	opts  Options
	m     int
	speed float64

	q    *queue.DensityTreap // started jobs, density-descending
	p    *queue.DensityTreap // waiting jobs, density-descending
	band queue.BandIndex     // allotments of Q by density
	info map[int]*jobInfo
	qVer uint64 // Q's version for band memos: bumped by admit and dropFromQ

	admitBuf, staleBuf []int // admitFromP scratch, reused across calls
	expiredBuf         []int // Assign scratch, reused across ticks

	started   int     // |R|: jobs ever admitted to Q
	startedPr float64 // ||R||: their total profit

	mEff int          // announced capacity (= m unless Resilient under faults)
	lost map[int]bool // jobs with discarded work awaiting a slack re-check

	tel *telemetry.Recorder // nil unless a run recorder is attached
}

// NewSchedulerS returns a configured scheduler S. It panics on invalid
// parameters (programmer error).
func NewSchedulerS(opts Options) *SchedulerS {
	if err := opts.Params.Validate(); err != nil {
		panic(err)
	}
	if !opts.Commitment.Valid() {
		panic(fmt.Errorf("core: unknown commitment policy %q", opts.Commitment))
	}
	if opts.NewBand == nil {
		opts.NewBand = func() queue.BandIndex { return queue.NewTreapBand(0x5eed) }
	}
	return &SchedulerS{opts: opts}
}

// Name implements sim.Scheduler.
func (s *SchedulerS) Name() string {
	n := fmt.Sprintf("paper-S(eps=%g)", s.opts.Params.Epsilon)
	if s.opts.Ablation != AblationNone {
		n += "/" + s.opts.Ablation.String()
	}
	if s.opts.WorkConserving {
		n += "+wc"
	}
	if s.opts.Resilient {
		n += "+res"
	}
	if s.opts.Commitment.Binding() {
		n += "+commit=" + string(s.opts.Commitment)
	}
	return n
}

// SetCommitment replaces the scheduler-wide commitment policy. The serving
// tier calls it between construction and the first arrival (cliflags
// factories predate the policy knob); changing it mid-run would re-interpret
// promises already made, so callers set it before Init-time use.
func (s *SchedulerS) SetCommitment(c sim.Commitment) error {
	if !c.Valid() {
		return fmt.Errorf("core: unknown commitment policy %q", c)
	}
	s.opts.Commitment = c
	return nil
}

// Commitment returns the scheduler-wide commitment policy.
func (s *SchedulerS) Commitment() sim.Commitment { return s.opts.Commitment }

// commitmentOf resolves a job's effective commitment level: its own request,
// or the scheduler-wide policy when the job defers.
func (s *SchedulerS) commitmentOf(v sim.JobView) sim.Commitment {
	return v.Commitment.Resolve(s.opts.Commitment)
}

// Committed implements sim.Committer: whether S has promised the job
// completion. The engine consults it before expiring an overdue job.
func (s *SchedulerS) Committed(jobID int) bool {
	info, ok := s.info[jobID]
	return ok && info.committed
}

// EventSafe implements sim.EventSafe: every decision S takes — admission on
// arrival, refill from P on completion, expiry on deadline, density-ordered
// allocation — is driven by events, never by the clock or executed work
// between events. This holds for every ablation and for the work-conserving
// extension (ReadyCount is interval-stable); the Resilient callbacks fire
// only under fault injection, which RunAuto already routes to the tick
// engine.
func (s *SchedulerS) EventSafe() bool { return true }

// Init implements sim.Scheduler.
func (s *SchedulerS) Init(env sim.Env) {
	s.m = env.M
	s.speed = env.Speed
	s.q = queue.NewDensityTreap(0x51eed0)
	s.p = queue.NewDensityTreap(0x51eed1)
	s.band = s.opts.NewBand()
	s.info = make(map[int]*jobInfo)
	s.started = 0
	s.startedPr = 0
	s.mEff = env.M
	s.lost = nil
}

// SetTelemetry implements telemetry.Instrumentable: decision events (admit,
// park, readmit, abandon) are emitted into rec for the next runs. Nil
// detaches.
func (s *SchedulerS) SetTelemetry(rec *telemetry.Recorder) { s.tel = rec }

// Started returns |R| and ||R||: how many jobs S ever admitted to Q and
// their total profit. The analysis bounds both ||C|| and ||OPT|| against
// ||R||; experiments report it.
func (s *SchedulerS) Started() (count int, totalProfit float64) {
	return s.started, s.startedPr
}

// computeInfo evaluates the arrival-time formulas of Section 3.1 for a job.
// All times are "effective ticks": work and span divided by the machine
// speed, so the same code serves speed-augmented runs.
func (s *SchedulerS) computeInfo(v sim.JobView) *jobInfo {
	par := s.opts.Params
	w := float64(v.W) / s.speed
	l := float64(v.L) / s.speed
	d := float64(v.RelDeadline())
	profitVal := v.Profit.At(v.RelDeadline())

	info := &jobInfo{view: v, profit: profitVal}

	denom := d/(1+2*par.Delta) - l
	switch {
	case w == l: // pure chain: one processor suffices, x = L
		info.nReal = 0
		info.alloc = 1
	case denom <= 0: // cannot be δ-good at any allotment
		info.nReal = math.Inf(1)
		info.alloc = s.m
	default:
		info.nReal = (w - l) / denom
		a := int(math.Ceil(info.nReal))
		if a < 1 {
			a = 1
		}
		if a > s.m {
			a = s.m
		}
		info.alloc = a
	}
	switch s.opts.Ablation {
	case AblationAllotOne:
		info.alloc = 1
	case AblationAllotAll:
		info.alloc = s.m
	}
	info.x = (w-l)/float64(info.alloc) + l
	den := info.x * float64(info.alloc)
	if den > 0 {
		info.density = info.profit / den
	}
	// Band weight: the job's time-averaged processor demand within its
	// scheduling window, A_i·x_i/(D_i/(1+2δ)). With the paper's exact
	// real-valued n_i this is n_i itself (x_i·n_i spread over the window);
	// rounding A_i up shrinks x_i by the same factor, so the product stays
	// faithful — unlike summing integral A_i, which over-counts jobs whose
	// n_i < 1 and starves admission.
	if d > 0 && !math.IsInf(info.x, 1) {
		info.weight = float64(info.alloc) * info.x * (1 + 2*par.Delta) / d
	} else {
		info.weight = float64(info.alloc)
	}
	info.good = (1+2*par.Delta)*info.x <= d && !math.IsInf(info.x, 1)
	return info
}

// Plan describes the arrival-time decisions S would take for a job: its
// allotment, maximum execution time, density, and δ-goodness. It is exposed
// for experiments, examples, and tests; Init must have been called.
type Plan struct {
	Alloc   int     // A_i: processors granted when the job runs
	NReal   float64 // the paper's real-valued n_i
	X       float64 // x_i in ticks
	Weight  float64 // band weight (time-averaged processor demand)
	Density float64 // v_i
	Good    bool    // δ-good
	Profit  float64 // p_i
}

// Plan returns the arrival-time plan for a job view.
func (s *SchedulerS) Plan(v sim.JobView) Plan {
	info := s.computeInfo(v)
	return Plan{
		Alloc:   info.alloc,
		NReal:   info.nReal,
		X:       info.x,
		Weight:  info.weight,
		Density: info.density,
		Good:    info.good,
		Profit:  info.profit,
	}
}

// Decision is the outcome of a standalone admission query: the arrival-time
// Plan plus whether S would start the job now and, when it would not, why.
type Decision struct {
	Plan   Plan
	Admit  bool
	Reason string // "" when admitted; "not-delta-good" or "band-full" otherwise
}

// Admission reports the decision OnArrival would take for a job view at this
// instant, without taking it: δ-goodness, condition (2) against the current
// band occupancy, and the arrival-time plan. It reads but never mutates the
// queues, so a serving front end can answer an admit/reject query before
// committing the arrival to the engine (it may fill the band-sum memos of
// queued jobs, which changes no verdict). Init must have been called.
func (s *SchedulerS) Admission(v sim.JobView) Decision {
	info := s.computeInfo(v)
	d := Decision{Plan: Plan{
		Alloc:   info.alloc,
		NReal:   info.nReal,
		X:       info.x,
		Weight:  info.weight,
		Density: info.density,
		Good:    info.good,
		Profit:  info.profit,
	}}
	switch {
	case info.good && (s.opts.Ablation == AblationNoBandCheck || s.bandOK(info)):
		d.Admit = true
	case !info.good:
		d.Reason = "not-delta-good"
	default:
		d.Reason = "band-full"
	}
	return d
}

// bandOK checks condition (2) for admitting cand into Q: for every job J_j
// in Q∪{cand}, the total allotment with density in [v_j, c·v_j) must stay
// ≤ b·m. Only bands containing cand's density can change, so it suffices to
// check cand's own band plus the bands of queued jobs J_j with
// v_j ∈ (v_cand/c, v_cand]. ForEachFrom lands on the first such job in
// O(log n) — the denser prefix, whose bands cannot contain v, is skipped
// structurally. cand's own band is one O(log n) treap query; each queued
// job's band sum is memoized until Q next changes (bandMemo), so the check
// costs O(log n + k) for the k jobs inside one multiplicative band, plus
// O(log n) per band sum not yet read against the current Q.
func (s *SchedulerS) bandOK(cand *jobInfo) bool {
	par := s.opts.Params
	bm := par.B() * float64(s.m)
	v := cand.density
	add := cand.weight

	if s.band.SumRange(v, par.C*v)+add > bm {
		return false
	}
	ok := true
	s.q.ForEachFrom(v, func(it queue.Item) bool {
		if it.Density*par.C <= v {
			return false // from here on all bands end below v
		}
		extra := 0.0
		if v >= it.Density && v < it.Density*par.C {
			extra = add
		}
		if s.info[it.ID].band.get(s.qVer, s.band, it, par.C)+extra > bm {
			ok = false
			return false
		}
		return true
	})
	return ok
}

// admit moves a job into Q (it is "started"). Admission to Q is the commit
// point of every binding commitment level: on-arrival jobs are only ever
// admitted here at release (refusal is final, see OnArrival), and δ-commitment
// commits when the job starts — whether at arrival or later from P, where
// δ-freshness guarantees a (1+δ)x window remains.
func (s *SchedulerS) admit(info *jobInfo) {
	info.committed = s.commitmentOf(info.view).Binding()
	it := queue.Item{ID: info.view.ID, Density: info.density, Weight: info.weight}
	s.q.Insert(it)
	s.band.Insert(it)
	s.qVer++
	s.started++
	s.startedPr += info.profit
}

// dropFromQ removes a job from Q and the band index if present.
func (s *SchedulerS) dropFromQ(id int) {
	if it, ok := s.q.Get(id); ok {
		s.q.Remove(id)
		s.band.Remove(id, it.Density)
		s.qVer++
	}
}

// OnArrival implements sim.Scheduler: compute the allotment, then admit to Q
// if the job is δ-good and condition (2) holds, else park in P.
func (s *SchedulerS) OnArrival(t int64, v sim.JobView) {
	info := s.computeInfo(v)
	s.info[v.ID] = info
	if info.good && (s.opts.Ablation == AblationNoBandCheck || s.bandOK(info)) {
		s.admit(info)
		if s.tel != nil {
			ev := telemetry.JobEvent(t, telemetry.KindAdmit, v.ID)
			ev.Procs = info.alloc
			ev.Value = info.density
			s.tel.Emit(ev)
		}
		return
	}
	if s.commitmentOf(v) == sim.CommitmentOnArrival {
		// On-arrival commitment makes the release-time verdict final: a job
		// that cannot be admitted now is refused outright, never parked —
		// P's second chance would turn the refusal into a "maybe later",
		// which is exactly what this level promises not to say.
		delete(s.info, v.ID)
		if s.tel != nil {
			ev := telemetry.JobEvent(t, telemetry.KindAbandon, v.ID)
			ev.Why = "commitment-refused"
			s.tel.Emit(ev)
		}
		return
	}
	if s.tel != nil {
		ev := telemetry.JobEvent(t, telemetry.KindPark, v.ID)
		if !info.good {
			ev.Why = "not-delta-good"
		} else {
			ev.Why = "band-full"
		}
		s.tel.Emit(ev)
	}
	s.p.Insert(queue.Item{ID: v.ID, Density: info.density, Weight: info.weight})
}

// OnExpire implements sim.Scheduler.
func (s *SchedulerS) OnExpire(t int64, jobID int) {
	s.dropFromQ(jobID)
	s.p.Remove(jobID)
	delete(s.info, jobID)
}

// OnCompletion implements sim.Scheduler: free the finished job's band, then
// refill Q from P. The completion takes effect for the next tick.
func (s *SchedulerS) OnCompletion(t int64, jobID int) {
	s.dropFromQ(jobID)
	delete(s.info, jobID)
	s.admitFromP(t + 1)
}

// admitFromP scans P from highest to lowest density, admitting every job
// that is δ-fresh and passes condition (2) at time now. Jobs past their
// deadline are discarded.
func (s *SchedulerS) admitFromP(now int64) {
	par := s.opts.Params
	admitted, stale := s.admitBuf[:0], s.staleBuf[:0]
	s.p.ForEach(func(it queue.Item) bool {
		info := s.info[it.ID]
		if float64(info.view.AbsDeadline()) <= float64(now) {
			stale = append(stale, it.ID)
			return true
		}
		fresh := float64(info.view.AbsDeadline()-now) >= (1+par.Delta)*info.x
		if s.opts.Ablation == AblationNoFreshness {
			fresh = info.good
		}
		if fresh && s.bandOK(info) {
			s.admit(info)
			admitted = append(admitted, it.ID)
			if s.tel != nil {
				ev := telemetry.JobEvent(now, telemetry.KindReadmit, it.ID)
				ev.Procs = info.alloc
				ev.Value = info.density
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
	s.admitBuf, s.staleBuf = admitted[:0], stale[:0]
}

// OnCapacityChange implements sim.CapacityAware. Under Options.Resilient the
// announced capacity becomes the next ticks' allocation budget; a recovery
// additionally re-opens admission from P, which only happens on completions
// otherwise.
func (s *SchedulerS) OnCapacityChange(t int64, capacity int) {
	if !s.opts.Resilient {
		return
	}
	grew := capacity > s.mEff
	s.mEff = capacity
	if grew {
		s.admitFromP(t)
	}
}

// OnWorkLost implements sim.CapacityAware. Under Options.Resilient the job is
// marked for a slack re-check at the next Assign: if the re-executed work no
// longer fits before the deadline even at full allotment, the job is expired
// from Q early and its band refilled from P.
func (s *SchedulerS) OnWorkLost(t int64, jobID int, lost int64) {
	if !s.opts.Resilient {
		return
	}
	if s.lost == nil {
		s.lost = make(map[int]bool)
	}
	s.lost[jobID] = true
}

// recheckLost expires marked jobs whose remaining work provably cannot finish
// by the deadline on their planned allotment, then refills Q from P if
// anything was dropped. Resilient mode only.
func (s *SchedulerS) recheckLost(t int64, view sim.AssignView) {
	if len(s.lost) == 0 {
		return
	}
	ids := make([]int, 0, len(s.lost))
	for id := range s.lost {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	s.lost = nil
	dropped := false
	for _, id := range ids {
		info, ok := s.info[id]
		if !ok || info.committed {
			continue
		}
		if _, inQ := s.q.Get(id); !inQ {
			continue
		}
		// Provable hopelessness only: even running the full planned allotment
		// every remaining tick (capacity may recover), the re-executed work
		// cannot fit before the deadline. Clamping to the momentary capacity
		// here would expire jobs a short outage merely delays.
		remain := float64(info.view.W - view.ExecutedWork(id))
		left := float64(info.view.AbsDeadline() - t)
		if remain > left*s.speed*float64(info.alloc) {
			s.dropFromQ(id)
			delete(s.info, id)
			dropped = true
			if s.tel != nil {
				ev := telemetry.JobEvent(t, telemetry.KindAbandon, id)
				ev.Why = "hopeless-lost-work"
				s.tel.Emit(ev)
			}
		}
	}
	if dropped {
		s.admitFromP(t)
	}
}

// Assign implements sim.Scheduler: walk Q from highest to lowest density,
// granting each job its full allotment when enough processors remain;
// otherwise skip it and continue. With Options.WorkConserving, leftover
// processors are then topped up onto admitted jobs in density order.
func (s *SchedulerS) Assign(t int64, view sim.AssignView, dst []sim.Alloc) []sim.Alloc {
	if s.opts.Resilient {
		s.recheckLost(t, view)
	}
	free := s.mEff
	base := len(dst)
	expired := s.expiredBuf[:0]
	s.q.ForEach(func(it queue.Item) bool {
		info := s.info[it.ID]
		// A committed job is never abandoned at its deadline: it keeps its
		// allotment (and band weight) past it and runs to a zero-profit
		// completion — the scheduler-side half of the commitment contract.
		if info.view.AbsDeadline() <= t && !info.committed {
			expired = append(expired, it.ID)
			return true
		}
		// While degraded, re-partition: grant what is left rather than letting
		// jobs starve behind an all-or-nothing check sized for lost capacity.
		// At full capacity this never triggers, so the fault-free schedule is
		// untouched.
		a := info.alloc
		if s.opts.Resilient && s.mEff < s.m && a > free {
			a = free
		}
		if a > 0 && free >= a {
			dst = append(dst, sim.Alloc{JobID: it.ID, Procs: a})
			free -= a
		}
		return free > 0 || s.opts.WorkConserving
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
	s.expiredBuf = expired[:0]
	if s.opts.WorkConserving && free > 0 {
		dst = s.topUp(t, view, dst, base, free)
	}
	return dst
}

// topUp makes the schedule work-conserving: base grants are first trimmed
// to each job's ready-node count (processors beyond that are provably idle
// this tick), then the pooled leftovers go to admitted jobs in density
// order, up to their ready counts.
func (s *SchedulerS) topUp(t int64, view sim.AssignView, dst []sim.Alloc, base, free int) []sim.Alloc {
	granted := make(map[int]int, len(dst)-base)
	for _, a := range dst[base:] {
		g := a.Procs
		if r := view.ReadyCount(a.JobID); r < g {
			g = r
			free += a.Procs - r
		}
		granted[a.JobID] = g
	}
	s.q.ForEach(func(it queue.Item) bool {
		if free == 0 {
			return false
		}
		info := s.info[it.ID]
		if info.view.AbsDeadline() <= t && !info.committed {
			return true
		}
		extra := view.ReadyCount(it.ID) - granted[it.ID]
		if extra > free {
			extra = free
		}
		if extra > 0 {
			granted[it.ID] += extra
			free -= extra
		}
		return true
	})
	// Re-emit merged allocations in density order.
	dst = dst[:base]
	s.q.ForEach(func(it queue.Item) bool {
		if p := granted[it.ID]; p > 0 {
			dst = append(dst, sim.Alloc{JobID: it.ID, Procs: p})
		}
		return true
	})
	return dst
}

// CheckInvariants verifies, by exhaustive recomputation, that every band of
// Q satisfies N(Q, v_j, c·v_j) ≤ b·m + tol (Observation 3). Tests call it
// after every event. The paper's invariant is exact; tol absorbs float
// rounding only.
func (s *SchedulerS) CheckInvariants() error {
	par := s.opts.Params
	bm := par.B()*float64(s.m) + 1e-9
	var items []queue.Item
	items = s.q.Snapshot(items)
	for _, ji := range items {
		var sum float64
		for _, jj := range items {
			if jj.Density >= ji.Density && jj.Density < par.C*ji.Density {
				sum += jj.Weight
			}
		}
		if sum > bm {
			return fmt.Errorf("core: band [%g, %g) holds %g > b·m = %g",
				ji.Density, par.C*ji.Density, sum, bm)
		}
	}
	return nil
}

// QueueSizes returns |Q| and |P| for diagnostics.
func (s *SchedulerS) QueueSizes() (q, p int) { return s.q.Len(), s.p.Len() }

// Occupancy returns the total band weight held by Q relative to the b·m
// admission budget of condition (2): 0 is an empty scheduler, values near 1
// mean arriving jobs are likely to be parked. The serving tier's placer
// routes submissions by it. Returns 0 before Init.
func (s *SchedulerS) Occupancy() float64 {
	if s.band == nil || s.m <= 0 {
		return 0
	}
	bm := s.opts.Params.B() * float64(s.m)
	if bm <= 0 {
		return 0
	}
	return s.band.SumFrom(0) / bm
}

var (
	_ sim.Scheduler     = (*SchedulerS)(nil)
	_ sim.CapacityAware = (*SchedulerS)(nil)
	_ sim.Committer     = (*SchedulerS)(nil)
)
