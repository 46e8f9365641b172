package core

import (
	"encoding/json"
	"testing"

	"dagsched/internal/dag"
	"dagsched/internal/faults"
	"dagsched/internal/sim"
	"dagsched/internal/workload"
)

func TestCommitmentNameAndValidation(t *testing.T) {
	plain := NewSchedulerS(Options{Params: MustParams(1)})
	if got := plain.Name(); got != "paper-S(eps=1)" {
		t.Fatalf("default Name = %q (the non-binding default must not change it)", got)
	}
	soft := NewSchedulerS(Options{Params: MustParams(1), Commitment: sim.CommitmentOnAdmission})
	if got := soft.Name(); got != "paper-S(eps=1)" {
		t.Fatalf("on-admission Name = %q (non-binding, must stay unsuffixed)", got)
	}
	bound := NewSchedulerS(Options{Params: MustParams(1), Commitment: sim.CommitmentDelta})
	if got := bound.Name(); got != "paper-S(eps=1)+commit=delta" {
		t.Fatalf("delta Name = %q", got)
	}
	if bound.Commitment() != sim.CommitmentDelta {
		t.Fatalf("Commitment() = %q", bound.Commitment())
	}
	if err := bound.SetCommitment("bogus"); err == nil {
		t.Fatal("SetCommitment accepted an unknown policy")
	}
	if err := bound.SetCommitment(sim.CommitmentOnArrival); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("NewSchedulerS accepted an invalid commitment policy")
		}
	}()
	NewSchedulerS(Options{Params: MustParams(1), Commitment: "bogus"})
}

// TestOnArrivalRefusalIsFinal: under on-arrival commitment the release-time
// verdict is the contract — a job that cannot be admitted immediately is
// refused outright, never parked for a later chance, and every admitted job
// is committed from that instant.
func TestOnArrivalRefusalIsFinal(t *testing.T) {
	mk := func() []*sim.Job {
		var jobs []*sim.Job
		for i := 1; i <= 6; i++ {
			jobs = append(jobs, &sim.Job{ID: i, Graph: dag.Block(8, 2), Release: 0, Profit: stepFn(t, 1, 14)})
		}
		return jobs
	}

	// Baseline: the default policy parks the overflow in P.
	base := newS(t, 1.0)
	base.Init(sim.Env{M: 4, Speed: 1})
	for _, j := range mk() {
		base.OnArrival(0, sim.JobView{ID: j.ID, W: j.Graph.TotalWork(), L: j.Graph.Span(), Profit: j.Profit})
	}
	_, basePark := base.QueueSizes()
	if basePark == 0 {
		t.Fatal("workload too light: nothing parked under the default policy")
	}

	s := NewSchedulerS(Options{Params: MustParams(1), Commitment: sim.CommitmentOnArrival})
	s.Init(sim.Env{M: 4, Speed: 1})
	admitted := 0
	for _, j := range mk() {
		v := sim.JobView{ID: j.ID, W: j.Graph.TotalWork(), L: j.Graph.Span(), Profit: j.Profit}
		s.OnArrival(0, v)
		if s.Committed(j.ID) {
			admitted++
		}
	}
	q, p := s.QueueSizes()
	if p != 0 {
		t.Fatalf("on-arrival parked %d jobs; refusal must be final", p)
	}
	if q != admitted || admitted == 0 || admitted == 6 {
		t.Fatalf("q=%d admitted=%d, want a committed strict subset in Q", q, admitted)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// End to end: admitted-and-committed jobs complete, refused ones expire.
	s2 := NewSchedulerS(Options{Params: MustParams(1), Commitment: sim.CommitmentOnArrival})
	res, err := sim.Run(sim.Config{M: 4}, mk(), s2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != admitted || res.Expired != 6-admitted {
		t.Fatalf("completed=%d expired=%d, want %d and %d", res.Completed, res.Expired, admitted, 6-admitted)
	}
}

// commitProbe wraps SchedulerS and snapshots the commitment ledger after
// every scheduler event, so the test sees a job as committed even if it
// completes (and is forgotten) later the same run.
type commitProbe struct {
	*SchedulerS
	arrived   []int
	committed map[int]bool
}

func (cp *commitProbe) poll() {
	for _, id := range cp.arrived {
		if cp.SchedulerS.Committed(id) {
			cp.committed[id] = true
		}
	}
}

func (cp *commitProbe) OnArrival(t int64, v sim.JobView) {
	cp.arrived = append(cp.arrived, v.ID)
	cp.SchedulerS.OnArrival(t, v)
	cp.poll()
}

func (cp *commitProbe) Assign(t int64, view sim.AssignView, dst []sim.Alloc) []sim.Alloc {
	out := cp.SchedulerS.Assign(t, view, dst)
	cp.poll() // δ-commitment also fires on re-admission from P inside Assign
	return out
}

// TestCommittedJobIsNeverAborted is the acceptance property: across faulty,
// overloaded runs under δ-commitment, every job the scheduler ever committed
// to finishes — none expire, even when crashes push them past their
// deadlines.
func TestCommittedJobIsNeverAborted(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		in, err := workload.Generate(workload.Config{
			Seed: seed, N: 40, M: 8, Eps: 1, SlackSpread: 1, Load: 1.8, MaxProfit: 10,
		})
		if err != nil {
			t.Fatal(err)
		}
		cp := &commitProbe{
			SchedulerS: NewSchedulerS(Options{Params: MustParams(1), Commitment: sim.CommitmentDelta}),
			committed:  make(map[int]bool),
		}
		res, err := sim.Run(sim.Config{
			M:      8,
			Faults: &faults.Config{Seed: seed, MTBF: 12, MTTR: 8},
		}, in.Jobs, cp)
		if err != nil {
			t.Fatal(err)
		}
		if len(cp.committed) == 0 {
			t.Fatalf("seed %d: nothing was ever committed; workload too light", seed)
		}
		done := make(map[int]bool)
		for _, js := range res.Jobs {
			if js.Completed {
				done[js.ID] = true
			}
		}
		for id := range cp.committed {
			if !done[id] {
				t.Errorf("seed %d: committed job %d did not complete", seed, id)
			}
		}
	}
}

// TestDeltaTickEventedEquivalent pins that holding decisions across events
// (RunAuto) skips committed expiries exactly as ticking does under
// δ-commitment.
func TestDeltaTickEventedEquivalent(t *testing.T) {
	mk := func(tt *testing.T) []*sim.Job {
		in, err := workload.Generate(workload.Config{
			Seed: 9, N: 50, M: 8, Eps: 1, SlackSpread: 1, Load: 1.6, MaxProfit: 10,
		})
		if err != nil {
			tt.Fatal(err)
		}
		return in.Jobs
	}
	a, err := sim.Run(sim.Config{M: 8}, mk(t),
		NewSchedulerS(Options{Params: MustParams(1), Commitment: sim.CommitmentDelta}))
	if err != nil {
		t.Fatal(err)
	}
	b, err := sim.RunAuto(sim.Config{M: 8}, mk(t),
		NewSchedulerS(Options{Params: MustParams(1), Commitment: sim.CommitmentDelta}))
	if err != nil {
		t.Fatal(err)
	}
	if b.Engine != sim.EngineEvented {
		t.Fatalf("RunAuto ran on %q, want %q", b.Engine, sim.EngineEvented)
	}
	if a.TotalProfit != b.TotalProfit || a.Completed != b.Completed ||
		a.Expired != b.Expired || a.BusyProcTicks != b.BusyProcTicks {
		t.Errorf("engines diverge under delta: tick (%v,%d,%d,%d) vs evented (%v,%d,%d,%d)",
			a.TotalProfit, a.Completed, a.Expired, a.BusyProcTicks,
			b.TotalProfit, b.Completed, b.Expired, b.BusyProcTicks)
	}
}

// TestPerJobOverrideCommits: a single job requesting delta on a scheduler
// whose daemon-wide policy is none is committed at admission, while its
// unmarked twin is not.
func TestPerJobOverrideCommits(t *testing.T) {
	s := newS(t, 1.0)
	s.Init(sim.Env{M: 4, Speed: 1})
	s.OnArrival(0, sim.JobView{ID: 1, W: 32, L: 4, Profit: stepFn(t, 10, 40), Commitment: sim.CommitmentDelta})
	s.OnArrival(0, sim.JobView{ID: 2, W: 32, L: 4, Profit: stepFn(t, 10, 40)})
	if !s.Committed(1) {
		t.Error("job 1 requested delta and was admitted; must be committed")
	}
	if s.Committed(2) {
		t.Error("job 2 inherited policy none; must not be committed")
	}
}

// tickOnlyS is Scheduler S with its event-safety marker withdrawn, so a
// session over it decides every tick: the per-tick reference schedule.
type tickOnlyS struct{ *SchedulerS }

func (tickOnlyS) EventSafe() bool { return false }

// TestSessionClippedIntervalsMatchTickingS feeds Scheduler S, plain and under
// δ-commitment, the same online arrivals in an event-safe session and in a
// per-tick one, advancing both to irregular, lagged clocks. Every held
// interval must stop at the AdvanceTo target: the fingerprints and every
// job's Lookup agree after each call, and the final Results match.
func TestSessionClippedIntervalsMatchTickingS(t *testing.T) {
	in, err := workload.Generate(workload.Config{
		Seed: 17, N: 60, M: 8, Eps: 1, SlackSpread: 1, Load: 1.8, MaxProfit: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []sim.Commitment{sim.CommitmentDefault, sim.CommitmentDelta} {
		mk := func() *SchedulerS {
			return NewSchedulerS(Options{Params: MustParams(1), Commitment: c})
		}
		jump, err := sim.NewSession(sim.Config{M: 8}, nil, mk())
		if err != nil {
			t.Fatal(err)
		}
		tick, err := sim.NewSession(sim.Config{M: 8}, nil, tickOnlyS{mk()})
		if err != nil {
			t.Fatal(err)
		}
		if !jump.EventSafe() || tick.EventSafe() {
			t.Fatal("want one event-safe session and one per-tick session")
		}
		same := func(when string) {
			t.Helper()
			if jump.Now() != tick.Now() || jump.Fingerprint() != tick.Fingerprint() {
				t.Fatalf("%q %s: clock %d vs %d, fingerprints differ", c, when, jump.Now(), tick.Now())
			}
			for _, j := range in.Jobs {
				as, astate := jump.Lookup(j.ID)
				bs, bstate := tick.Lookup(j.ID)
				if as != bs || astate != bstate {
					t.Fatalf("%q %s: job %d is %s %+v vs %s %+v", c, when, j.ID, astate, as, bstate, bs)
				}
			}
		}
		// Submission gaps follow the generator's release gaps; each AdvanceTo
		// target lags the clock by a varying amount, sometimes repeating.
		var now, prev int64
		for i, j := range in.Jobs {
			now += j.Release - prev
			prev = j.Release
			for _, target := range []int64{now - int64(i%5), now - int64(i%5), now} {
				for _, s := range []*sim.Session{jump, tick} {
					if err := s.AdvanceTo(target); err != nil {
						t.Fatal(err)
					}
				}
				same("after AdvanceTo")
			}
			for _, s := range []*sim.Session{jump, tick} {
				jj := *j
				jj.Release = s.Now()
				if err := s.Arrive(&jj); err != nil {
					t.Fatal(err)
				}
			}
			same("after Arrive")
		}
		for target := now; !jump.Idle() || !tick.Idle(); target += 7 {
			for _, s := range []*sim.Session{jump, tick} {
				if err := s.AdvanceTo(target); err != nil {
					t.Fatal(err)
				}
			}
			same("draining")
		}
		a, b := jump.Finish(), tick.Finish()
		if a.Engine != sim.EngineEvented || b.Engine != sim.EngineTick {
			t.Fatalf("engines %q/%q, want %q/%q", a.Engine, b.Engine, sim.EngineEvented, sim.EngineTick)
		}
		b.Engine = a.Engine
		aj, _ := json.Marshal(a)
		bj, _ := json.Marshal(b)
		if string(aj) != string(bj) {
			t.Fatalf("%q: results diverge:\n jump %s\n tick %s", c, aj, bj)
		}
		if a.Completed == 0 || a.Expired == 0 {
			t.Fatalf("%q: completed=%d expired=%d, want both outcomes exercised", c, a.Completed, a.Expired)
		}
	}
}
