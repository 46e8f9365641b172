package dag

import (
	"cmp"
	"math/rand"
	"slices"
)

// PickPolicy chooses which k ready nodes of a job execute when the scheduler
// grants the job k processors. The paper's scheduler is semi-non-clairvoyant:
// it cannot distinguish ready nodes, so the choice is "arbitrary" — made by
// the environment, not the algorithm. Different policies realize different
// environments: a deterministic order, a random order, the Theorem 1
// adversary, or a clairvoyant critical-path-first oracle used by informed
// baselines.
type PickPolicy interface {
	// Pick appends up to k ready nodes of s to dst and returns it. It must
	// return min(k, s.ReadyCount()) nodes, each ready, without duplicates.
	Pick(s *State, k int, dst []NodeID) []NodeID
	// Name identifies the policy in reports.
	Name() string
}

// ByID picks ready nodes in increasing node-ID order: deterministic and
// oblivious to structure. For the shape constructors in this package, chain
// nodes have the lowest IDs, so ByID behaves benignly on Figure 1.
type ByID struct{}

// Pick implements PickPolicy.
func (ByID) Pick(s *State, k int, dst []NodeID) []NodeID {
	start := len(dst)
	dst = s.ReadyNodes(dst)
	picked := dst[start:]
	slices.Sort(picked)
	if len(picked) > k {
		dst = dst[:start+k]
	}
	return dst
}

// Name implements PickPolicy.
func (ByID) Name() string { return "by-id" }

// EventSafe reports that ByID's choice is stable across an interval in which
// the ready set is unchanged and only picked nodes' remaining work shrinks:
// the k lowest-ID ready nodes stay the k lowest-ID ready nodes. A simulation
// session may hold its pick for a whole inter-event interval.
func (ByID) EventSafe() bool { return true }

// Random picks k ready nodes uniformly at random (deterministic given the
// seeded source). It models an oblivious runtime picking whichever ready
// tasks it happens to hold.
type Random struct{ Rng *rand.Rand }

// Pick implements PickPolicy.
func (p Random) Pick(s *State, k int, dst []NodeID) []NodeID {
	start := len(dst)
	dst = s.ReadyNodes(dst)
	picked := dst[start:]
	// Sort first so the shuffle is deterministic regardless of internal
	// ready-set ordering, then partial Fisher–Yates.
	slices.Sort(picked)
	n := len(picked)
	if k > n {
		k = n
	}
	for i := 0; i < k; i++ {
		j := i + p.Rng.Intn(n-i)
		picked[i], picked[j] = picked[j], picked[i]
	}
	return dst[:start+k]
}

// Name implements PickPolicy.
func (Random) Name() string { return "random" }

// Unlucky is the Theorem 1 adversary: it always prefers ready nodes with the
// shortest remaining downward path, starving the critical path for as long
// as possible. On the Figure 1 DAG it drains the parallel block before
// touching the chain, forcing completion time (W−L)/m + L.
type Unlucky struct{}

// Pick implements PickPolicy.
func (Unlucky) Pick(s *State, k int, dst []NodeID) []NodeID {
	return pickByDown(s, k, dst, false)
}

// Name implements PickPolicy.
func (Unlucky) Name() string { return "unlucky" }

// EventSafe reports that Unlucky's choice is stable between events: work only
// lands on picked nodes, so a picked node's remaining downward path can only
// shrink — it stays lexicographically ahead of every unpicked node (ties
// break by ID, and a tied pick that shrinks becomes strictly shorter). The
// shortest-down-path set is therefore invariant across the interval. Note the
// same argument fails for CriticalPathFirst: its picked longest paths shrink
// and can fall below unpicked ones mid-interval.
func (Unlucky) EventSafe() bool { return true }

// CriticalPathFirst is the clairvoyant oracle: it prefers ready nodes with
// the longest remaining downward path, the choice an informed scheduler
// would make. Only baselines explicitly modeled as clairvoyant may use it.
type CriticalPathFirst struct{}

// Pick implements PickPolicy.
func (CriticalPathFirst) Pick(s *State, k int, dst []NodeID) []NodeID {
	return pickByDown(s, k, dst, true)
}

// Name implements PickPolicy.
func (CriticalPathFirst) Name() string { return "critical-path-first" }

// pickByDown sorts the ready set by remaining downward path length
// (descending when longestFirst) with node ID as the deterministic
// tiebreaker, and keeps the first k.
func pickByDown(s *State, k int, dst []NodeID, longestFirst bool) []NodeID {
	start := len(dst)
	dst = s.ReadyNodes(dst)
	picked := dst[start:]
	slices.SortFunc(picked, func(a, b NodeID) int {
		da, db := s.DownLength(a), s.DownLength(b)
		if da != db {
			if longestFirst {
				return cmp.Compare(db, da)
			}
			return cmp.Compare(da, db)
		}
		return cmp.Compare(a, b)
	})
	if len(picked) > k {
		dst = dst[:start+k]
	}
	return dst
}
