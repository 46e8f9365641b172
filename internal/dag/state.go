package dag

import "fmt"

// State is the mutable execution state of one DAG job. It unfolds the graph
// dynamically: at any moment only the set of ready nodes is observable, which
// is exactly the semi-non-clairvoyant information model of the paper. The
// engine applies work to ready nodes through Apply; completed nodes release
// their successors.
type State struct {
	g            *DAG
	remaining    []int64
	missingPreds []int32

	ready    []NodeID // unordered set of ready node IDs
	readyPos []int32  // position of node in ready, or -1

	completedNodes int
	executedWork   int64
}

// NewState returns a fresh execution state for g: nothing executed, sources
// ready.
func NewState(g *DAG) *State {
	n := g.NumNodes()
	s := &State{
		g:            g,
		remaining:    append([]int64(nil), g.work...),
		missingPreds: make([]int32, n),
		readyPos:     make([]int32, n),
	}
	for v := 0; v < n; v++ {
		s.missingPreds[v] = int32(len(g.preds[v]))
		s.readyPos[v] = -1
	}
	for v := 0; v < n; v++ {
		if s.missingPreds[v] == 0 {
			s.pushReady(NodeID(v))
		}
	}
	return s
}

// DAG returns the underlying immutable graph.
func (s *State) DAG() *DAG { return s.g }

// ReadyCount returns the number of currently ready (unfinished, all
// predecessors complete) nodes.
func (s *State) ReadyCount() int { return len(s.ready) }

// ReadyNodes appends the current ready set to dst and returns it. The order
// is unspecified; use a PickPolicy for a deterministic choice.
func (s *State) ReadyNodes(dst []NodeID) []NodeID {
	return append(dst, s.ready...)
}

// IsReady reports whether node v is currently ready.
func (s *State) IsReady(v NodeID) bool { return s.readyPos[v] >= 0 }

// Remaining returns the unprocessed work of node v.
func (s *State) Remaining(v NodeID) int64 { return s.remaining[v] }

// Done reports whether every node has completed.
func (s *State) Done() bool { return s.completedNodes == s.g.NumNodes() }

// CompletedNodes returns how many nodes have finished.
func (s *State) CompletedNodes() int { return s.completedNodes }

// ExecutedWork returns the total work units applied so far (excluding any
// capacity wasted on overshoot within a tick).
func (s *State) ExecutedWork() int64 { return s.executedWork }

// RemainingWork returns the total unprocessed work across all nodes.
func (s *State) RemainingWork() int64 { return s.g.TotalWork() - s.executedWork }

// Apply processes up to units work on ready node v, returning the work
// actually consumed (capacity beyond the node's remaining work is lost, as a
// processor executes one node at a time). If the node finishes, its
// successors with no other outstanding predecessors become ready.
// Apply panics if v is not ready or units is not positive: both indicate an
// engine bug, not a recoverable condition.
func (s *State) Apply(v NodeID, units int64) int64 {
	if units <= 0 {
		panic(fmt.Sprintf("dag: Apply with non-positive units %d", units))
	}
	if s.readyPos[v] < 0 {
		panic(fmt.Sprintf("dag: Apply to non-ready node %d", v))
	}
	consumed := units
	if consumed > s.remaining[v] {
		consumed = s.remaining[v]
	}
	s.remaining[v] -= consumed
	s.executedWork += consumed
	if s.remaining[v] == 0 {
		s.removeReady(v)
		s.completedNodes++
		for _, u := range s.g.succs[v] {
			s.missingPreds[u]--
			if s.missingPreds[u] == 0 {
				s.pushReady(u)
			}
		}
	}
	return consumed
}

// ResetNode discards all accumulated progress on an incomplete node,
// restoring its full work, and returns the work units discarded. The fault
// injector uses it to model execution failures that force re-execution.
// Only ready nodes can hold partial progress (work lands exclusively on
// ready nodes and a finished node leaves the ready set), so ResetNode
// panics on a completed node: that indicates an engine bug.
func (s *State) ResetNode(v NodeID) int64 {
	if s.readyPos[v] < 0 {
		panic(fmt.Sprintf("dag: ResetNode on non-ready node %d", v))
	}
	done := s.g.work[v] - s.remaining[v]
	if done == 0 {
		return 0
	}
	s.remaining[v] = s.g.work[v]
	s.executedWork -= done
	return done
}

// RemainingSpan returns the remaining critical-path length: the longest
// chain of unprocessed work through incomplete nodes. For an untouched job
// this equals Span(); for a done job it is zero. Every remaining chain
// starts at a ready node, so this is O(|ready|) (see DownLength).
func (s *State) RemainingSpan() int64 {
	best := int64(0)
	for _, v := range s.ready {
		if d := s.DownLength(v); d > best {
			best = d
		}
	}
	return best
}

// DownLength returns the longest remaining path starting at (and including
// the remaining work of) node v, or 0 for a completed node. It is used by
// clairvoyant and adversarial node-pick policies. Only ready nodes hold
// partial progress (see ResetNode), and every descendant of an incomplete
// node is untouched, so the remaining path is the graph's static down
// length less the work already done on v itself.
func (s *State) DownLength(v NodeID) int64 {
	if s.remaining[v] == 0 {
		return 0
	}
	return s.remaining[v] + s.g.down[v] - s.g.work[v]
}

func (s *State) pushReady(v NodeID) {
	s.readyPos[v] = int32(len(s.ready))
	s.ready = append(s.ready, v)
}

func (s *State) removeReady(v NodeID) {
	pos := s.readyPos[v]
	last := len(s.ready) - 1
	moved := s.ready[last]
	s.ready[pos] = moved
	s.readyPos[moved] = pos
	s.ready = s.ready[:last]
	s.readyPos[v] = -1
}
