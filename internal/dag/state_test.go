package dag

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// runGreedy executes g on procs unit-speed processors, one work unit per
// processor-tick, choosing nodes with pol. It returns the completion time in
// ticks. This is the single-job greedy execution the paper's Observation 1
// reasons about.
func runGreedy(t *testing.T, g *DAG, procs int, pol PickPolicy) int64 {
	t.Helper()
	s := NewState(g)
	var ticks int64
	var buf []NodeID
	limit := g.TotalWork() + g.Span() + 10
	for !s.Done() {
		buf = pol.Pick(s, procs, buf[:0])
		if len(buf) == 0 {
			t.Fatalf("no ready nodes but job not done (completed %d/%d)", s.CompletedNodes(), g.NumNodes())
		}
		for _, v := range buf {
			s.Apply(v, 1)
		}
		ticks++
		if ticks > limit {
			t.Fatalf("greedy execution exceeded %d ticks", limit)
		}
	}
	return ticks
}

func TestStateInitialReadySet(t *testing.T) {
	g := Figure2(3, 4) // chain of 3 then 4 parallel
	s := NewState(g)
	if s.ReadyCount() != 1 {
		t.Errorf("ReadyCount = %d, want 1 (chain head)", s.ReadyCount())
	}
	if s.Done() {
		t.Error("fresh state reports Done")
	}
	if s.RemainingWork() != g.TotalWork() {
		t.Errorf("RemainingWork = %d, want %d", s.RemainingWork(), g.TotalWork())
	}
	if s.RemainingSpan() != g.Span() {
		t.Errorf("RemainingSpan = %d, want %d", s.RemainingSpan(), g.Span())
	}
}

func TestStateUnfoldsChain(t *testing.T) {
	g := Chain(3, 2)
	s := NewState(g)
	var ready []NodeID
	ready = s.ReadyNodes(ready[:0])
	if len(ready) != 1 {
		t.Fatalf("ready = %v", ready)
	}
	head := ready[0]
	if got := s.Apply(head, 1); got != 1 {
		t.Errorf("Apply consumed %d", got)
	}
	if s.ReadyCount() != 1 || !s.IsReady(head) {
		t.Error("partially executed node left ready set")
	}
	s.Apply(head, 1)
	if s.IsReady(head) {
		t.Error("completed node still ready")
	}
	if s.ReadyCount() != 1 {
		t.Errorf("successor not released, ready = %d", s.ReadyCount())
	}
	if s.CompletedNodes() != 1 {
		t.Errorf("CompletedNodes = %d", s.CompletedNodes())
	}
}

func TestStateApplyOvershootClamped(t *testing.T) {
	g := Chain(1, 3)
	s := NewState(g)
	if got := s.Apply(0, 10); got != 3 {
		t.Errorf("Apply consumed %d, want 3 (clamped)", got)
	}
	if !s.Done() {
		t.Error("job not done after full work applied")
	}
	if s.ExecutedWork() != 3 {
		t.Errorf("ExecutedWork = %d, want 3", s.ExecutedWork())
	}
}

func TestStateApplyPanicsOnNonReady(t *testing.T) {
	g := Chain(2, 1)
	s := NewState(g)
	defer func() {
		if recover() == nil {
			t.Fatal("Apply to non-ready node did not panic")
		}
	}()
	s.Apply(1, 1) // node 1 depends on node 0
}

func TestStateApplyPanicsOnZeroUnits(t *testing.T) {
	g := Chain(1, 1)
	s := NewState(g)
	defer func() {
		if recover() == nil {
			t.Fatal("Apply with 0 units did not panic")
		}
	}()
	s.Apply(0, 0)
}

func TestResetNodeDiscardsPartialWork(t *testing.T) {
	g := Chain(2, 3)
	s := NewState(g)
	if got := s.ResetNode(0); got != 0 {
		t.Errorf("reset of untouched node discarded %d units", got)
	}
	s.Apply(0, 2)
	if got := s.ResetNode(0); got != 2 {
		t.Errorf("ResetNode discarded %d units, want 2", got)
	}
	if s.Remaining(0) != 3 || s.ExecutedWork() != 0 {
		t.Errorf("after reset: remaining=%d executed=%d", s.Remaining(0), s.ExecutedWork())
	}
	if s.RemainingWork() != g.TotalWork() || s.RemainingSpan() != g.Span() {
		t.Errorf("reset state disagrees with fresh state: work=%d span=%d", s.RemainingWork(), s.RemainingSpan())
	}
	// The node must still execute to completion after the reset.
	s.Apply(0, 3)
	if s.IsReady(0) || !s.IsReady(1) {
		t.Error("chain did not unfold after reset and re-execution")
	}
}

func TestResetNodePanicsOnNonReady(t *testing.T) {
	g := Chain(2, 1)
	s := NewState(g)
	s.Apply(0, 1) // complete node 0
	defer func() {
		if recover() == nil {
			t.Fatal("ResetNode on completed node did not panic")
		}
	}()
	s.ResetNode(0)
}

func TestRemainingSpanDecreasesWithCriticalWork(t *testing.T) {
	g := Chain(4, 1)
	s := NewState(g)
	want := int64(4)
	for !s.Done() {
		if got := s.RemainingSpan(); got != want {
			t.Fatalf("RemainingSpan = %d, want %d", got, want)
		}
		var ready []NodeID
		ready = s.ReadyNodes(ready)
		s.Apply(ready[0], 1)
		want--
	}
	if got := s.RemainingSpan(); got != 0 {
		t.Errorf("RemainingSpan after done = %d", got)
	}
}

func TestObservation1AllReadyExecutedShrinksSpan(t *testing.T) {
	// Observation 1: if all ready nodes execute for a step, the remaining
	// critical path shrinks by the step's speed (1 here).
	rng := rand.New(rand.NewSource(7))
	g := Layered(rng, 5, 4, 3, 0.5)
	s := NewState(g)
	var buf []NodeID
	for !s.Done() {
		before := s.RemainingSpan()
		buf = s.ReadyNodes(buf[:0])
		for _, v := range buf {
			s.Apply(v, 1)
		}
		after := s.RemainingSpan()
		if after > before-1 {
			t.Fatalf("span went %d -> %d with all ready nodes executing", before, after)
		}
	}
}

func TestGreedyCompletionWithinBrentBound(t *testing.T) {
	// Graham/Brent: greedy on A processors finishes within (W−L)/A + L.
	cases := []struct {
		name  string
		g     *DAG
		procs int
	}{
		{"chain", Chain(10, 2), 4},
		{"block", Block(16, 1), 4},
		{"forkjoin", ForkJoin(3, 5, 2), 3},
		{"figure1", Figure1(4, 8), 4},
		{"figure2", Figure2(6, 12), 4},
		{"widechain", WideChain(3, 4, 1), 2},
	}
	for _, c := range cases {
		for _, pol := range []PickPolicy{ByID{}, Unlucky{}, CriticalPathFirst{}} {
			ticks := runGreedy(t, c.g, c.procs, pol)
			w, l, a := c.g.TotalWork(), c.g.Span(), int64(c.procs)
			bound := (w-l+a-1)/a + l
			if ticks > bound {
				t.Errorf("%s/%s: %d ticks > Brent bound %d", c.name, pol.Name(), ticks, bound)
			}
			lower := l
			if w/a > lower {
				lower = w / a
			}
			if ticks < lower {
				t.Errorf("%s/%s: %d ticks below lower bound max(L, W/A) = %d", c.name, pol.Name(), ticks, lower)
			}
		}
	}
}

func TestPropLayeredInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := Layered(rng, 1+rng.Intn(6), 1+rng.Intn(5), 1+rng.Int63n(4), rng.Float64())
		if g.Validate() != nil {
			return false
		}
		// W = sum of node works; L between max node work and W.
		var sum, maxw int64
		for v := 0; v < g.NumNodes(); v++ {
			sum += g.Work(NodeID(v))
			if g.Work(NodeID(v)) > maxw {
				maxw = g.Work(NodeID(v))
			}
		}
		return g.TotalWork() == sum && g.Span() >= maxw && g.Span() <= sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPropGreedyBrentBoundRandomDAGs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := Layered(rng, 1+rng.Intn(5), 1+rng.Intn(6), 1+rng.Int63n(3), rng.Float64())
		procs := 1 + rng.Intn(6)
		s := NewState(g)
		var ticks int64
		var buf []NodeID
		pol := Random{Rng: rng}
		for !s.Done() {
			buf = pol.Pick(s, procs, buf[:0])
			for _, v := range buf {
				s.Apply(v, 1)
			}
			ticks++
		}
		w, l, a := g.TotalWork(), g.Span(), int64(procs)
		return ticks <= (w-l+a-1)/a+l
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestExecutedWorkAccounting(t *testing.T) {
	g := ForkJoin(2, 3, 2)
	s := NewState(g)
	var buf []NodeID
	for !s.Done() {
		buf = (ByID{}).Pick(s, 2, buf[:0])
		for _, v := range buf {
			s.Apply(v, 2)
		}
	}
	if s.ExecutedWork() != g.TotalWork() {
		t.Errorf("ExecutedWork = %d, want %d", s.ExecutedWork(), g.TotalWork())
	}
	if s.RemainingWork() != 0 {
		t.Errorf("RemainingWork = %d", s.RemainingWork())
	}
}

// dpDown is the reverse-topological DP State kept before RemainingSpan read
// the graph's static down lengths: the longest remaining path from each
// node, 0 on completed nodes. Incomplete nodes are upward-closed, so one
// sweep over the topological order suffices.
func dpDown(s *State) []int64 {
	g := s.DAG()
	down := make([]int64, g.NumNodes())
	for i := len(g.order) - 1; i >= 0; i-- {
		v := g.order[i]
		if s.Remaining(v) == 0 {
			continue
		}
		best := int64(0)
		for _, u := range g.Successors(v) {
			if down[u] > best {
				best = down[u]
			}
		}
		down[v] = best + s.Remaining(v)
	}
	return down
}

// TestRemainingSpanMatchesDP drives random DAGs (arbitrary forward edges and
// layered shapes) through random partial Apply calls and ResetNode failures
// and requires RemainingSpan and every node's DownLength to equal the full
// DP after each step.
func TestRemainingSpanMatchesDP(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 60; trial++ {
		var g *DAG
		if trial%2 == 0 {
			b := NewBuilder()
			n := 1 + rng.Intn(30)
			for v := 0; v < n; v++ {
				b.AddNode(1 + rng.Int63n(9))
			}
			for e := rng.Intn(2 * n); e > 0; e-- {
				u, v := rng.Intn(n), rng.Intn(n)
				if u < v {
					b.AddEdge(NodeID(u), NodeID(v))
				}
			}
			g = b.MustBuild()
		} else {
			g = Layered(rng, 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Int63n(8), rng.Float64())
		}
		s := NewState(g)
		var ready []NodeID
		for step := 0; ; step++ {
			want := dpDown(s)
			span := int64(0)
			for v, d := range want {
				if got := s.DownLength(NodeID(v)); got != d {
					t.Fatalf("trial %d step %d: DownLength(%d) = %d, DP %d", trial, step, v, got, d)
				}
				if d > span {
					span = d
				}
			}
			if got := s.RemainingSpan(); got != span {
				t.Fatalf("trial %d step %d: RemainingSpan = %d, DP %d", trial, step, got, span)
			}
			if s.Done() {
				break
			}
			ready = s.ReadyNodes(ready[:0])
			v := ready[rng.Intn(len(ready))]
			if rng.Intn(6) == 0 {
				s.ResetNode(v)
			} else {
				s.Apply(v, 1+rng.Int63n(s.Remaining(v)))
			}
		}
	}
}
