package sim

import (
	"testing"

	"dagsched/internal/dag"
)

func TestParseCommitment(t *testing.T) {
	for _, name := range []string{"none", "on-admission", "on-arrival", "delta"} {
		c, err := ParseCommitment(name)
		if err != nil {
			t.Fatalf("ParseCommitment(%q): %v", name, err)
		}
		if string(c) != name || !c.Valid() {
			t.Fatalf("ParseCommitment(%q) = %q valid=%v", name, c, c.Valid())
		}
	}
	for _, bad := range []string{"", "ON-ARRIVAL", "always", "on_admission"} {
		if _, err := ParseCommitment(bad); err == nil {
			t.Errorf("ParseCommitment(%q) accepted", bad)
		}
	}
	if !CommitmentDefault.Valid() {
		t.Error("the zero Commitment must be Valid (it means \"inherit\")")
	}
}

func TestCommitmentBindingAndResolve(t *testing.T) {
	binding := map[Commitment]bool{
		CommitmentDefault:     false,
		CommitmentNone:        false,
		CommitmentOnAdmission: false,
		CommitmentDelta:       true,
		CommitmentOnArrival:   true,
	}
	for c, want := range binding {
		if c.Binding() != want {
			t.Errorf("%q.Binding() = %v, want %v", c, c.Binding(), want)
		}
	}
	if got := CommitmentDefault.Resolve(CommitmentDelta); got != CommitmentDelta {
		t.Errorf("default resolves to %q, want the policy", got)
	}
	if got := CommitmentNone.Resolve(CommitmentDelta); got != CommitmentNone {
		t.Errorf("explicit none resolves to %q, want none (per-job override wins)", got)
	}
}

// committedFifo is fifoSched plus a commitment ledger: exactly the IDs in
// committed are promised completion, so the engine must never expire them.
// safe marks it event-stationary, so RunAuto holds decisions across ticks.
type committedFifo struct {
	fifoSched
	committed map[int]bool
	safe      bool
}

func (s *committedFifo) EventSafe() bool { return s.safe }

func (s *committedFifo) Committed(id int) bool { return s.committed[id] }

// TestEngineCommittedJobRunsPastDeadline is the engine half of the
// commitment contract: a committed job whose deadline passes mid-run is not
// expired — it runs to completion, counted as Completed with zero profit —
// and the tick and evented engines agree bit for bit.
func TestEngineCommittedJobRunsPastDeadline(t *testing.T) {
	mk := func() []*Job {
		return []*Job{
			// A 20-tick chain on one processor with deadline 5: hopeless for
			// profit, so an uncommitted engine expires it at t=5.
			{ID: 1, Graph: dag.Chain(20, 1), Release: 0, Profit: step(t, 7, 5)},
		}
	}

	plain, err := Run(Config{M: 1}, mk(), &fifoSched{})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Expired != 1 || plain.Completed != 0 {
		t.Fatalf("uncommitted run: expired=%d completed=%d, want the job expired", plain.Expired, plain.Completed)
	}

	for _, run := range []struct {
		name   string
		engine func(Config, []*Job, Scheduler) (*Result, error)
	}{
		{EngineTick, Run},
		{EngineEvented, RunAuto},
	} {
		res, err := run.engine(Config{M: 1}, mk(), &committedFifo{committed: map[int]bool{1: true}, safe: true})
		if err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		if res.Engine != run.name {
			t.Fatalf("%s: ran on %q", run.name, res.Engine)
		}
		if res.Expired != 0 || res.Completed != 1 {
			t.Fatalf("%s committed run: expired=%d completed=%d, want completion", run.name, res.Expired, res.Completed)
		}
		js := res.Jobs[0]
		if !js.Completed || js.CompletedAt != 20 || js.Profit != 0 {
			t.Fatalf("%s committed run: stat = %+v, want completed at 20 with zero profit", run.name, js)
		}
	}
}

// TestEngineCommitmentIsPerJob checks the engine consults the ledger per
// job: an uncommitted sibling of a committed job still expires on schedule.
func TestEngineCommitmentIsPerJob(t *testing.T) {
	jobs := []*Job{
		{ID: 1, Graph: dag.Chain(20, 1), Release: 0, Profit: step(t, 7, 5)},
		{ID: 2, Graph: dag.Chain(20, 1), Release: 0, Profit: step(t, 3, 5)},
	}
	res, err := Run(Config{M: 1}, jobs, &committedFifo{committed: map[int]bool{1: true}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 1 || res.Expired != 1 {
		t.Fatalf("mixed run: completed=%d expired=%d, want 1 and 1", res.Completed, res.Expired)
	}
	for _, js := range res.Jobs {
		if js.ID == 1 && !js.Completed {
			t.Error("committed job 1 did not complete")
		}
		if js.ID == 2 && js.Completed {
			t.Error("uncommitted job 2 was not expired")
		}
	}
}
