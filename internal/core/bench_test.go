package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"dagsched/internal/core"
	"dagsched/internal/profit"
	"dagsched/internal/sim"
)

// admissionView builds a chain-shaped job view (W = L, so allotment 1 and
// x = L) whose density is value/L. Deadlines are far away, so every job is
// δ-good and weights are tiny enough that condition (2) never rejects: the
// benchmark isolates the cost of the admission query itself, not its verdict.
func admissionView(id int, value float64) sim.JobView {
	const deadline = 1_000_000_000
	fn, err := profit.NewStep(value, deadline)
	if err != nil {
		panic(err)
	}
	return sim.JobView{ID: id, Release: 0, W: 100, L: 100, Profit: fn}
}

// benchAdmission measures one OnArrival+OnExpire round trip against a Q
// already holding n live jobs with distinct densities. The probe's density
// sits below every queued job's, so the condition-(2) check must step past
// the entire higher-density prefix of Q — the component of the admission
// query that scales with queue length.
func benchAdmission(b *testing.B, n int) {
	s := core.NewSchedulerS(core.Options{Params: core.MustParams(1)})
	s.Init(sim.Env{M: 8, Speed: 1})
	// Prefill in density-descending order: each arrival tops the queue, so
	// setup stays near-linear in n.
	for i := 0; i < n; i++ {
		s.OnArrival(0, admissionView(i, float64(n-i)))
	}
	if q, _ := s.QueueSizes(); q != n {
		b.Fatalf("prefill admitted %d of %d jobs", q, n)
	}
	probe := admissionView(n, 0.5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.OnArrival(0, probe)
		s.OnExpire(0, probe.ID)
	}
}

func BenchmarkAdmission(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchAdmission(b, n) })
	}
}

// BenchmarkAdmitFromP measures one completion at the queue sizes the batch
// serving workload reaches on a wide machine: m = 1024, 280 jobs in Q and 70
// parked in P, with work, span, deadline and profit drawn from that
// workload's ranges. A completion changes Q, so condition (2) is re-run for
// every job in P against fresh band sums. The completed job is a chain of
// negligible density whose band holds nothing else, so its completion
// admits nothing from P; it re-arrives right after (one admission query,
// included in the timing), and Q and P keep their sizes across iterations.
func BenchmarkAdmitFromP(b *testing.B) {
	const wantQ, wantP = 280, 70
	s := core.NewSchedulerS(core.Options{Params: core.MustParams(1)})
	s.Init(sim.Env{M: 1024, Speed: 1})
	rng := rand.New(rand.NewSource(1))
	for id := 0; ; id++ {
		q, p := s.QueueSizes()
		if q >= wantQ && p >= wantP {
			break
		}
		if id > 100_000 {
			b.Fatalf("could not fill the queues: |Q|=%d |P|=%d", q, p)
		}
		fn, err := profit.NewStep(float64(1+rng.Intn(10)), 20+rng.Int63n(181))
		if err != nil {
			b.Fatal(err)
		}
		v := sim.JobView{ID: id, W: 60 + rng.Int63n(201), L: 1 + rng.Int63n(24), Profit: fn}
		if admit := s.Admission(v).Admit; admit && q < wantQ || !admit && p < wantP {
			s.OnArrival(0, v)
		}
	}
	fn, err := profit.NewStep(1e-9, 1_000_000)
	if err != nil {
		b.Fatal(err)
	}
	victim := sim.JobView{ID: -1, W: 1, L: 1, Profit: fn}
	s.OnArrival(0, victim)
	q0, p0 := s.QueueSizes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.OnCompletion(0, victim.ID)
		s.OnArrival(0, victim)
	}
	b.StopTimer()
	if q, p := s.QueueSizes(); q != q0 || p != p0 {
		b.Fatalf("queues drifted from |Q|=%d |P|=%d to |Q|=%d |P|=%d", q0, p0, q, p)
	}
}
