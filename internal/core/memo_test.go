package core

import (
	"math"
	"math/rand"
	"testing"

	"dagsched/internal/queue"
	"dagsched/internal/sim"
)

// refBandOK is condition (2) without memos: every band sum is a fresh
// SumRange against the current band index, and all of Q is scanned.
func refBandOK(s *SchedulerS, cand *jobInfo) bool {
	par := s.opts.Params
	bm := par.B() * float64(s.m)
	v := cand.density
	if s.band.SumRange(v, par.C*v)+cand.weight > bm {
		return false
	}
	for _, it := range s.q.Snapshot(nil) {
		if it.Density > v || it.Density*par.C <= v {
			continue
		}
		extra := 0.0
		if v >= it.Density && v < it.Density*par.C {
			extra = cand.weight
		}
		if s.band.SumRange(it.Density, par.C*it.Density)+extra > bm {
			return false
		}
	}
	return true
}

// checkBandMemos requires every band-sum memo that claims to be current to
// equal a fresh SumRange bit for bit.
func checkBandMemos(t *testing.T, q []queue.Item, memo func(id int) (sum float64, current bool), band queue.BandIndex, c float64) {
	t.Helper()
	for _, it := range q {
		sum, current := memo(it.ID)
		if !current {
			continue
		}
		if want := band.SumRange(it.Density, c*it.Density); math.Float64bits(sum) != math.Float64bits(want) {
			t.Fatalf("job %d: memoized band sum %v, SumRange %v", it.ID, sum, want)
		}
	}
}

// randomWorkView is an AssignView reporting random executed work, so
// SchedulerNC's Assign regrows guesses and moves jobs between Q and P.
// Scheduler S without Options.Resilient does not read it.
type randomWorkView struct{ rng *rand.Rand }

func (randomWorkView) ReadyCount(int) int       { return 1 }
func (v randomWorkView) ExecutedWork(int) int64 { return v.rng.Int63n(64) }

// randomView draws a job released at now whose density, allotment and
// δ-goodness vary widely, so condition (2) both admits and refuses.
func randomView(t *testing.T, rng *rand.Rand, id int, now int64) sim.JobView {
	w := 1 + rng.Int63n(400)
	l := 1 + rng.Int63n(w)
	d := l + rng.Int63n(2*l+40)
	return view(t, id, w, l, now, now+d, float64(1+rng.Intn(40)))
}

// TestMemoizedAdmissionMatchesReference drives scheduler S through
// interleaved arrivals, completions (which re-run condition (2) for P),
// expiries and Assign calls (which drop overdue jobs), and before every
// event asks Admission about fresh probe jobs: each verdict must equal the
// unmemoized reference, and every current memo must equal a fresh SumRange.
// A change to Q that did not invalidate the memos would fail here.
func TestMemoizedAdmissionMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var admits, fulls int
	for trial := 0; trial < 6; trial++ {
		s := NewSchedulerS(Options{Params: MustParams(1)})
		s.Init(sim.Env{M: 16, Speed: 1})
		memo := func(id int) (float64, bool) {
			m := s.info[id].band
			return m.sum, m.ver == s.qVer
		}
		var live []int
		next := 0
		for step := int64(0); step < 400; step++ {
			for probe := 0; probe < 3; probe++ {
				v := randomView(t, rng, 1_000_000+probe, step)
				info := s.computeInfo(v)
				want := info.good && refBandOK(s, info)
				if got := s.Admission(v).Admit; got != want {
					t.Fatalf("trial %d step %d: Admission = %v, reference %v", trial, step, got, want)
				}
				switch {
				case want:
					admits++
				case info.good:
					fulls++
				}
			}
			checkBandMemos(t, s.q.Snapshot(nil), memo, s.band, s.opts.Params.C)
			switch r := rng.Intn(10); {
			case r < 5 || len(live) == 0:
				s.OnArrival(step, randomView(t, rng, next, step))
				if _, ok := s.info[next]; ok {
					live = append(live, next)
				}
				next++
			case r < 8:
				k := rng.Intn(len(live))
				id := live[k]
				live = append(live[:k], live[k+1:]...)
				if _, inQ := s.q.Get(id); inQ {
					s.OnCompletion(step, id)
				} else {
					s.OnExpire(step, id)
				}
			default:
				s.Assign(step, randomWorkView{rng}, nil)
			}
			kept := live[:0]
			for _, id := range live {
				if _, ok := s.info[id]; ok {
					kept = append(kept, id)
				}
			}
			live = kept
		}
	}
	if admits == 0 || fulls == 0 {
		t.Fatalf("probes never exercised both verdicts: %d admitted, %d band-full", admits, fulls)
	}
}

// TestNCBandMemosStayCurrent is the SchedulerNC counterpart: through
// arrivals, completions, expiries and Assign (which regrows guesses and
// re-files jobs), every current band-sum memo equals a fresh SumRange.
func TestNCBandMemosStayCurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	s := newNC(t, 1)
	s.Init(sim.Env{M: 8, Speed: 1})
	memo := func(id int) (float64, bool) {
		m := s.info[id].band
		return m.sum, m.ver == s.qVer
	}
	var live []int
	for step := int64(0); step < 600; step++ {
		switch r := rng.Intn(10); {
		case r < 5 || len(live) == 0:
			id := int(step)
			s.OnArrival(step, randomView(t, rng, id, step))
			live = append(live, id)
		case r < 7:
			k := rng.Intn(len(live))
			id := live[k]
			live = append(live[:k], live[k+1:]...)
			switch _, inQ := s.q.Get(id); {
			case inQ:
				s.OnCompletion(step, id)
			case s.info[id] != nil:
				s.OnExpire(step, id)
			}
		default:
			s.Assign(step, randomWorkView{rng}, nil)
		}
		checkBandMemos(t, s.q.Snapshot(nil), memo, s.band, s.opts.Params.C)
	}
}
