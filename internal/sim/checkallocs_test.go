package sim

import (
	"strings"
	"testing"

	"dagsched/internal/dag"
)

// checkEngine builds a bare engine with two live jobs (IDs 1 and 2) for
// exercising the allocation validator.
func checkEngine(t *testing.T) *engine {
	t.Helper()
	e := &engine{cfg: Config{M: 4}, live: make(map[int]*liveJob)}
	for _, id := range []int{1, 2} {
		e.live[id] = &liveJob{job: &Job{ID: id}, state: dag.NewState(dag.Chain(3, 2))}
	}
	return e
}

func TestCheckAllocsAccepts(t *testing.T) {
	e := checkEngine(t)
	total, err := e.checkAllocs(5, []Alloc{{JobID: 1, Procs: 3}, {JobID: 2, Procs: 1}}, &fifoSched{})
	if err != nil {
		t.Fatal(err)
	}
	if total != 4 {
		t.Errorf("total = %d, want 4", total)
	}
}

func TestCheckAllocsRejections(t *testing.T) {
	cases := []struct {
		name   string
		allocs []Alloc
		frag   string
	}{
		{"non-positive", []Alloc{{JobID: 1, Procs: 0}}, "allocated 0 procs"},
		{"negative", []Alloc{{JobID: 1, Procs: -2}}, "allocated -2 procs"},
		{"unknown-job", []Alloc{{JobID: 9, Procs: 1}}, "unknown/finished job 9"},
		{"duplicate", []Alloc{{JobID: 1, Procs: 1}, {JobID: 1, Procs: 1}}, "allocated job 1 twice"},
		{"oversubscribed", []Alloc{{JobID: 1, Procs: 3}, {JobID: 2, Procs: 2}}, "oversubscribed 5 > 4"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := checkEngine(t)
			_, err := e.checkAllocs(0, tc.allocs, &fifoSched{})
			if err == nil || !strings.Contains(err.Error(), tc.frag) {
				t.Fatalf("err = %v, want substring %q", err, tc.frag)
			}
		})
	}
}

// TestCheckAllocsGenerationReset checks that the generation stamp makes the
// duplicate detector tick-local: the same job may be (and is) allocated on
// every consecutive call without any per-tick map clearing.
func TestCheckAllocsGenerationReset(t *testing.T) {
	e := checkEngine(t)
	for tick := int64(0); tick < 3; tick++ {
		if _, err := e.checkAllocs(tick, []Alloc{{JobID: 1, Procs: 2}}, &fifoSched{}); err != nil {
			t.Fatalf("tick %d: %v", tick, err)
		}
	}
	// And a duplicate within one call still trips after many clean calls.
	if _, err := e.checkAllocs(3, []Alloc{{JobID: 1, Procs: 1}, {JobID: 1, Procs: 1}}, &fifoSched{}); err == nil {
		t.Fatal("duplicate not detected after generation reuse")
	}
}
