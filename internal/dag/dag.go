// Package dag implements the parallel-job model of the paper: each job is an
// independent directed acyclic graph whose nodes are sequential work and whose
// edges are dependencies. A node is ready when all predecessors have finished;
// a job completes when every node has been processed.
//
// The package provides the immutable graph (DAG), a mutable execution state
// that unfolds the graph dynamically — exposing only the currently ready
// nodes, which is exactly the information a semi-non-clairvoyant scheduler is
// allowed to see — canonical graph shapes including the adversarial families
// of the paper's Figures 1 and 2, and node-pick policies that decide which
// ready nodes run when a scheduler grants a job fewer processors than it has
// ready nodes.
package dag

import (
	"errors"
	"fmt"
)

// NodeID identifies a node within one DAG. IDs are dense: 0..NumNodes()-1.
type NodeID int32

// DAG is an immutable directed acyclic graph of work nodes. Construct one
// with a Builder or one of the shape constructors. The zero value is an
// empty graph with no nodes.
type DAG struct {
	work  []int64
	succs [][]NodeID
	preds [][]NodeID

	totalWork int64
	span      int64
	order     []NodeID // cached topological order
	down      []int64  // down[v] = longest path starting at v (inclusive)
}

// NumNodes returns the number of nodes.
func (g *DAG) NumNodes() int { return len(g.work) }

// Work returns the processing requirement of node v.
func (g *DAG) Work(v NodeID) int64 { return g.work[v] }

// TotalWork returns W, the sum of all node works (the job's uninterrupted
// execution time on a single unit-speed processor).
func (g *DAG) TotalWork() int64 { return g.totalWork }

// Span returns L, the critical-path length (the job's execution time on
// infinitely many unit-speed processors).
func (g *DAG) Span() int64 { return g.span }

// Successors returns the successors of v. The returned slice is owned by the
// DAG and must not be modified.
func (g *DAG) Successors(v NodeID) []NodeID { return g.succs[v] }

// Predecessors returns the predecessors of v. The returned slice is owned by
// the DAG and must not be modified.
func (g *DAG) Predecessors(v NodeID) []NodeID { return g.preds[v] }

// NumEdges returns the number of dependency edges.
func (g *DAG) NumEdges() int {
	n := 0
	for _, s := range g.succs {
		n += len(s)
	}
	return n
}

// Builder assembles a DAG incrementally. The zero value is ready to use.
type Builder struct {
	work  []int64
	edges [][2]NodeID
	err   error
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder { return &Builder{} }

// AddNode adds a node with the given work and returns its ID.
// Work must be positive; otherwise Build will fail.
func (b *Builder) AddNode(work int64) NodeID {
	if work <= 0 && b.err == nil {
		b.err = fmt.Errorf("dag: node %d has non-positive work %d", len(b.work), work)
	}
	b.work = append(b.work, work)
	return NodeID(len(b.work) - 1)
}

// AddEdge records a dependency: v cannot start until u completes.
func (b *Builder) AddEdge(u, v NodeID) {
	if b.err == nil {
		n := NodeID(len(b.work))
		if u < 0 || u >= n || v < 0 || v >= n {
			b.err = fmt.Errorf("dag: edge (%d,%d) references unknown node (have %d nodes)", u, v, n)
		} else if u == v {
			b.err = fmt.Errorf("dag: self-loop on node %d", u)
		}
	}
	b.edges = append(b.edges, [2]NodeID{u, v})
}

// ErrCycle is returned by Build when the edge set contains a cycle.
var ErrCycle = errors.New("dag: graph contains a cycle")

// ErrEmpty is returned by Build when the graph has no nodes.
var ErrEmpty = errors.New("dag: graph has no nodes")

// Build validates the graph (node works positive, edges in range, acyclic,
// non-empty), computes W and L, and returns the immutable DAG. Duplicate
// edges are coalesced.
func (b *Builder) Build() (*DAG, error) {
	if b.err != nil {
		return nil, b.err
	}
	n := len(b.work)
	if n == 0 {
		return nil, ErrEmpty
	}
	g := &DAG{
		work:  append([]int64(nil), b.work...),
		succs: make([][]NodeID, n),
		preds: make([][]NodeID, n),
	}
	seen := make(map[[2]NodeID]bool, len(b.edges))
	for _, e := range b.edges {
		if seen[e] {
			continue
		}
		seen[e] = true
		g.succs[e[0]] = append(g.succs[e[0]], e[1])
		g.preds[e[1]] = append(g.preds[e[1]], e[0])
	}
	order, ok := g.topoOrder()
	if !ok {
		return nil, ErrCycle
	}
	g.order = order
	for _, w := range g.work {
		g.totalWork += w
	}
	// Longest path over the topological order.
	down := make([]int64, n)
	g.down = down
	for i := n - 1; i >= 0; i-- {
		v := order[i]
		best := int64(0)
		for _, u := range g.succs[v] {
			if down[u] > best {
				best = down[u]
			}
		}
		down[v] = best + g.work[v]
		if down[v] > g.span {
			g.span = down[v]
		}
	}
	return g, nil
}

// MustBuild is Build that panics on error, for statically-correct shapes.
func (b *Builder) MustBuild() *DAG {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// topoOrder returns a topological order, or ok=false if the graph is
// cyclic. The order is memoized: a DAG is never mutated after Build (Build
// copies the builder's state into a fresh value), so the first successful
// computation serves every later call — Validate on the submission hot path
// re-checks node invariants but no longer re-runs Kahn's algorithm.
func (g *DAG) topoOrder() ([]NodeID, bool) {
	if g.order != nil {
		return g.order, true
	}
	n := len(g.work)
	indeg := make([]int32, n)
	for v := 0; v < n; v++ {
		for range g.preds[v] {
			indeg[v]++
		}
	}
	queue := make([]NodeID, 0, n)
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			queue = append(queue, NodeID(v))
		}
	}
	order := make([]NodeID, 0, n)
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		order = append(order, v)
		for _, u := range g.succs[v] {
			indeg[u]--
			if indeg[u] == 0 {
				queue = append(queue, u)
			}
		}
	}
	if len(order) != n {
		return order, false // cyclic: never cache a partial order
	}
	g.order = order
	return order, true
}

// Validate re-checks structural invariants of a constructed DAG. It is used
// by deserialization and by property tests.
func (g *DAG) Validate() error {
	n := len(g.work)
	if n == 0 {
		return ErrEmpty
	}
	for v := 0; v < n; v++ {
		if g.work[v] <= 0 {
			return fmt.Errorf("dag: node %d has non-positive work %d", v, g.work[v])
		}
		for _, u := range g.succs[v] {
			if u < 0 || int(u) >= n {
				return fmt.Errorf("dag: node %d has out-of-range successor %d", v, u)
			}
		}
	}
	if _, ok := g.topoOrder(); !ok {
		return ErrCycle
	}
	return nil
}
