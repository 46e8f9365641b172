package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"testing"
	"time"

	"dagsched/internal/baselines"
	"dagsched/internal/cliflags"
	"dagsched/internal/faults"
	"dagsched/internal/serve"
	"dagsched/internal/sim"
	"dagsched/internal/workload"
)

func TestTailPerMille(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{0, 0}, {19, 0}, {20, 500}, {99, 500}, {100, 900}, {999, 900},
		{1000, 990}, {9999, 990}, {10000, 999},
	} {
		if got := tailPerMille(c.n); got != c.want {
			t.Errorf("tailPerMille(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	s := make([]float64, 1000)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for _, c := range []struct {
		pm   int
		want float64
	}{{500, 500}, {900, 900}, {990, 990}, {999, 999}} {
		if got := quantile(s, c.pm); got != c.want {
			t.Errorf("quantile(%d) = %v, want %v", c.pm, got, c.want)
		}
	}
	// Exactly ten samples lie beyond the p99 of 1000.
	d := summarize(s)
	if d.tailPM != 990 || d.tail != 990 {
		t.Errorf("tail = p%d %v, want p990 990", d.tailPM, d.tail)
	}
}

// flat returns n samples with the given latency, none failed.
func flat(n int, latMs float64) []sample {
	ss := make([]sample, n)
	for i := range ss {
		ss[i].lat = time.Duration(latMs * float64(time.Millisecond))
	}
	return ss
}

func TestJudgeRung(t *testing.T) {
	if g := judgeRung(flat(1000, 1), 20); !g.pass || g.tailPM != 990 {
		t.Errorf("steady 1ms rung: %+v, want pass judged at p99", g)
	}
	// Eleven slow samples put p99 over the limit.
	ss := flat(1000, 1)
	for i := 0; i < 11; i++ {
		ss[i*90].lat = 50 * time.Millisecond
	}
	if g := judgeRung(ss, 20); g.pass {
		t.Errorf("p99 over the limit passed: %+v", g)
	}
	// A failed request misses the limit, however fast it failed.
	ss = flat(1000, 1)
	ss[3].failed = true
	if g := judgeRung(ss, 20); g.pass || g.failed != 1 {
		t.Errorf("rung with a failure: %+v", g)
	}
	// A rung too short for p99 is judged at the highest percentile with ten
	// samples beyond it.
	if g := judgeRung(flat(50, 1), 20); g.tailPM != 500 || !g.pass {
		t.Errorf("short rung: %+v", g)
	}
}

func TestBacklogged(t *testing.T) {
	steady := make([]float64, 400)
	growing := make([]float64, 400)
	for i := range steady {
		steady[i] = 0.2
		growing[i] = 0.2 + float64(i)*0.05 // queue builds for the whole rung
	}
	if backlogged(steady, 20) {
		t.Error("steady latency reported as backlog")
	}
	if !backlogged(growing, 20) {
		t.Error("growing latency not reported as backlog")
	}
	// Doubling at sub-limit latencies is jitter, not a backlog.
	jitter := make([]float64, 400)
	for i := range jitter {
		jitter[i] = 0.2
		if i >= 300 {
			jitter[i] = 0.5
		}
	}
	if backlogged(jitter, 20) {
		t.Error("sub-millisecond jitter reported as backlog")
	}
}

// knee simulates a system that passes every rate up to capacity.
func knee(capacity float64, calls *int) func(float64) rung {
	return func(r float64) rung {
		*calls++
		return rung{pass: r <= capacity}
	}
}

func TestClimbBracketsAndBisects(t *testing.T) {
	var calls int
	got, rungs := climb(100, 2, 8, 2, knee(500, &calls))
	// Ladder 100, 200, 400 pass; 800 fails twice; bisect √(400·800)≈565.7
	// fails twice, √(400·565.7)≈475.7 passes.
	if want := 475.68; got < want-0.01 || got > want+0.01 {
		t.Errorf("climb = %v, want %v", got, want)
	}
	if len(rungs) != 8 || calls != 8 {
		t.Errorf("ran %d rungs (%d calls), want 8", len(rungs), calls)
	}
	if got, _ := climb(100, 2, 3, 2, knee(1e9, &calls)); got != 400 {
		t.Errorf("ladder top = %v, want 400", got)
	}
	if got, _ := climb(100, 2, 8, 0, knee(30, &calls)); got != 25 {
		t.Errorf("step down = %v, want 25", got)
	}
	if got, _ := climb(100, 2, 8, 0, knee(1, &calls)); got != 0 {
		t.Errorf("nothing passes = %v, want 0", got)
	}
}

func TestClimbRetriesAFailedRungOnce(t *testing.T) {
	n := 0
	flaky := func(r float64) rung {
		n++
		return rung{pass: r <= 400 && n != 2} // the second run, at 200, is a noise burst
	}
	got, rungs := climb(100, 2, 8, 0, flaky)
	if got != 400 {
		t.Errorf("climb = %v, want 400 despite one noisy rung", got)
	}
	if len(rungs) != 6 || rungs[1].pass || !rungs[2].pass || rungs[1].rate != rungs[2].rate {
		t.Errorf("rungs %+v: want the failed 200 rung retried", rungs)
	}
}

func TestLagAndWait(t *testing.T) {
	base := time.Unix(1000, 0)
	at := func(us int) time.Time { return base.Add(time.Duration(us) * time.Microsecond) }
	for _, c := range []struct {
		name                 string
		due, prev, woke, got int
		lag, wait            int
	}{
		{"on time", 100, 50, 100, 100, 0, 0},
		{"overslept", 100, 50, 130, 130, 30, 0},
		{"busy connection", 100, 50, 100, 400, 0, 300},
		// Due at 100 while the sender waited for a connection until 400:
		// the 300µs are the previous request's wait, not lateness.
		{"due during a wait", 100, 400, 405, 405, 5, 0},
	} {
		lag, wait := lagAndWait(at(c.due), at(c.prev), at(c.woke), at(c.got))
		if lag != time.Duration(c.lag)*time.Microsecond || wait != time.Duration(c.wait)*time.Microsecond {
			t.Errorf("%s: lag %v wait %v, want %dµs %dµs", c.name, lag, wait, c.lag, c.wait)
		}
	}
}

func TestHistMean(t *testing.T) {
	a := parseProm([]byte("# HELP x\nserve_wal_fsync_us_sum{shard=\"0\"} 100\nserve_wal_fsync_us_count{shard=\"0\"} 10\n" +
		"serve_wal_fsync_us_sum{shard=\"1\"} 0\nserve_wal_fsync_us_count{shard=\"1\"} 0\n"))
	b := parseProm([]byte("serve_wal_fsync_us_sum{shard=\"0\"} 400\nserve_wal_fsync_us_count{shard=\"0\"} 20\n" +
		"serve_wal_fsync_us_sum{shard=\"1\"} 600\nserve_wal_fsync_us_count{shard=\"1\"} 10\n"))
	if got := histMean(a, b, "serve_wal_fsync_us"); got != 45 { // (300+600)/(10+10)
		t.Errorf("histMean = %v, want 45", got)
	}
	if got := histMean(a, b, "serve_wal_fsync_us", `shard="1"`); got != 60 {
		t.Errorf("histMean shard 1 = %v, want 60", got)
	}
}

// TestTimedSchedulerKeepsRouting checks that the wrapper forwards the
// optional engine interfaces: RunAuto routes the wrapped scheduler exactly
// as the bare one, and the Results are identical, with and without faults
// and for a scheduler that declares itself not event-safe.
func TestTimedSchedulerKeepsRouting(t *testing.T) {
	in, err := workload.Generate(workload.Config{Seed: 3, N: 40, M: 16, Eps: 1, SlackSpread: 1, Load: 1.5,
		Shapes: []workload.Shape{workload.ShapeLayered}})
	if err != nil {
		t.Fatal(err)
	}
	fc, err := faults.ParseSpec("seed=3,mtbf=200,mttr=20,crash=0.01,straggler=0.2,slow=4")
	if err != nil {
		t.Fatal(err)
	}
	s := func() sim.Scheduler {
		sc, err := cliflags.MakeScheduler("s", 1, false)
		if err != nil {
			t.Fatal(err)
		}
		return sc
	}
	llf := func() sim.Scheduler { return &baselines.ListScheduler{Order: baselines.OrderLLF} }
	for _, c := range []struct {
		name   string
		mk     func() sim.Scheduler
		faults *faults.Config
		engine string
	}{
		{"S", s, nil, sim.EngineEvented},
		{"S with faults", s, &fc, sim.EngineTick},
		{"LLF", llf, nil, sim.EngineTick},
	} {
		run := func(sc sim.Scheduler) (*sim.Result, string) {
			var eng string
			cfg := sim.Config{M: in.M, Faults: c.faults, OnRoute: func(e, _ string) { eng = e }}
			res, err := sim.RunAuto(cfg, in.Jobs, sc)
			if err != nil {
				t.Fatal(err)
			}
			return res, eng
		}
		bare, bareEng := run(c.mk())
		ts := &timedScheduler{inner: c.mk(), classify: true}
		wrapped, wrappedEng := run(ts)
		if bareEng != c.engine || wrappedEng != c.engine {
			t.Errorf("%s: routed bare=%s wrapped=%s, want %s", c.name, bareEng, wrappedEng, c.engine)
		}
		if !bytes.Equal(resultJSON(bare), resultJSON(wrapped)) {
			t.Errorf("%s: wrapped Result differs from the bare run", c.name)
		}
		if ts.arrival.n != int64(len(in.Jobs)) || ts.assign.n == 0 {
			t.Errorf("%s: wrapper saw %d arrivals, %d assigns", c.name, ts.arrival.n, ts.assign.n)
		}
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the metric names and units the
// program prints in step with the benchmark's declaration.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: program has %d metrics, BENCHMARK.json %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: program %v, BENCHMARK.json %+v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", endToEnd, decl.EndToEnd)
	check("per_layer", perLayer, decl.PerLayer)
}

// TestStructuredProfitsAccepted submits every structured profit kind at
// every deadline the catalogue can draw and expects the daemon to take it.
func TestStructuredProfitsAccepted(t *testing.T) {
	srv, err := serve.New(serve.Config{M: 32, TickInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain()
	h := srv.Handler()
	for _, kind := range profitKinds {
		for d := int64(3); d <= 40; d++ {
			body := spec{w: 8, l: 2, deadline: d, profit: 7.125, structured: kind}.json("")
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: %d %s", body, rec.Code, rec.Body.Bytes())
			}
		}
	}
}

// TestReplyAccounting: an unanswered submission leaves its verdict unknown,
// an error status does not, and a failed read of an acknowledged job is a
// correctness problem.
func TestReplyAccounting(t *testing.T) {
	cfg := serveConfig{Batch: 0}
	l := newServeLoad(&cfg, 1)
	l.begin("t", 3)
	for i := range l.items {
		l.items[i] = 1
	}
	l.kinds[0], l.kinds[1], l.kinds[2] = opSubmit, opSubmit, opRead
	l.readIDs[2] = 7
	l.reply(0, 0, nil, io.ErrUnexpectedEOF)
	l.reply(1, http.StatusTooManyRequests, []byte(`{}`), nil)
	l.reply(2, http.StatusNotFound, []byte(`{}`), nil)
	if l.itemsFail != 3 || l.unknown != 1 {
		t.Errorf("failed %d unknown %d, want 3 and 1", l.itemsFail, l.unknown)
	}
	if len(l.problems) != 1 {
		t.Errorf("problems %q, want the failed read alone", l.problems)
	}
}

// TestPoissonDuesSpanThePhase: the arrivals are sorted, all fall inside the
// phase, and the phase's last stretch is as long as a typical gap.
func TestPoissonDuesSpanThePhase(t *testing.T) {
	const rate, n = 1000.0, 20000
	dues := poissonDues(rand.New(rand.NewSource(3)), rate, n)
	span := time.Duration(n / rate * float64(time.Second))
	if !slices.IsSorted(dues) || dues[0] < 0 || dues[n-1] >= span {
		t.Fatalf("dues not sorted within [0, %v): first %v last %v", span, dues[0], dues[n-1])
	}
	if tail := span - dues[n-1]; tail > 20*time.Millisecond {
		t.Errorf("last arrival %v before the phase ends; a gap is about 1ms", tail)
	}
}

func TestAtRefSpeed(t *testing.T) {
	// A host half as fast takes twice the CPU time for the probe and for
	// the program alike; at the reference speed both read as before.
	if got := atRefSpeed(300, 2*16000, 16000); got != 150 {
		t.Errorf("atRefSpeed = %v, want 150", got)
	}
	if got := atRefSpeed(300, 0, 16000); got != 0 {
		t.Errorf("atRefSpeed with no probe = %v, want 0", got)
	}
}

func TestAtRefSpeedExp(t *testing.T) {
	// A figure that moves as the probe squared: on a host half as fast it
	// takes four times as long.
	if got := atRefSpeedExp(400, 2*75, 75, 2); got != 100 {
		t.Errorf("atRefSpeedExp = %v, want 100", got)
	}
	// At the reference speed the exponent changes nothing.
	if got := atRefSpeedExp(120, 75, 75, 1.3); got != 120 {
		t.Errorf("atRefSpeedExp at the reference = %v, want 120", got)
	}
}
