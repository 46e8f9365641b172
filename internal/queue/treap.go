package queue

import "math/rand"

// TreapBand is a BandIndex backed by a randomized treap keyed by
// (density, ID) and augmented with subtree weight sums, giving O(log n)
// expected insert, remove, and range-sum. Rotation-free split/merge keeps
// the augmentation simple to maintain; range sums only read the tree.
type TreapBand struct {
	root   *treapNode
	rng    *rand.Rand
	size   int
	visits int64
}

type treapNode struct {
	it          Item
	prio        int64
	left, right *treapNode
	sum         float64 // total weight of this subtree
}

// NewTreapBand returns an empty TreapBand using the given seed for heap
// priorities (deterministic runs need deterministic structure).
func NewTreapBand(seed int64) *TreapBand {
	return &TreapBand{rng: rand.New(rand.NewSource(seed))}
}

// keyLess orders by (density, ID) ascending.
func keyLess(d1 float64, id1 int, d2 float64, id2 int) bool {
	if d1 != d2 {
		return d1 < d2
	}
	return id1 < id2
}

func (n *treapNode) recalc() {
	n.sum = n.it.Weight
	if n.left != nil {
		n.sum += n.left.sum
	}
	if n.right != nil {
		n.sum += n.right.sum
	}
}

// split partitions t into (< key, ≥ key) by (density, id), counting every
// node touched in *visits.
func split(t *treapNode, d float64, id int, visits *int64) (lt, ge *treapNode) {
	if t == nil {
		return nil, nil
	}
	*visits++
	if keyLess(t.it.Density, t.it.ID, d, id) {
		l, r := split(t.right, d, id, visits)
		t.right = l
		t.recalc()
		return t, r
	}
	l, r := split(t.left, d, id, visits)
	t.left = r
	t.recalc()
	return l, t
}

// merge joins l and r where every key in l precedes every key in r,
// counting every node touched in *visits.
func merge(l, r *treapNode, visits *int64) *treapNode {
	switch {
	case l == nil:
		return r
	case r == nil:
		return l
	case l.prio > r.prio:
		*visits++
		l.right = merge(l.right, r, visits)
		l.recalc()
		return l
	default:
		*visits++
		r.left = merge(l, r.left, visits)
		r.recalc()
		return r
	}
}

// Insert implements BandIndex. It panics on a duplicate (density, ID) key.
func (t *TreapBand) Insert(it Item) {
	l, r := split(t.root, it.Density, it.ID, &t.visits)
	// Check the smallest key of r for an exact duplicate.
	probe := r
	for probe != nil && probe.left != nil {
		probe = probe.left
	}
	if probe != nil && probe.it.ID == it.ID && probe.it.Density == it.Density {
		t.root = merge(l, r, &t.visits)
		panic("queue: duplicate key inserted into TreapBand")
	}
	n := &treapNode{it: it, prio: t.rng.Int63()}
	n.recalc()
	t.root = merge(merge(l, n, &t.visits), r, &t.visits)
	t.size++
}

// Remove implements BandIndex.
func (t *TreapBand) Remove(id int, density float64) bool {
	l, rest := split(t.root, density, id, &t.visits)
	mid, r := split(rest, density, id+1, &t.visits)
	found := mid != nil
	if found {
		// mid holds exactly the single (density, id) key.
		t.size--
		mid = merge(mid.left, mid.right, &t.visits)
	}
	t.root = merge(merge(l, mid, &t.visits), r, &t.visits)
	return found
}

// minKeyID sorts before every item ID, so the key (d, minKeyID) places every
// item of density d on the ≥ side of a comparison.
const minKeyID = -1 << 62

// below reports whether n's key sorts before density d, i.e. n.Density < d.
func (n *treapNode) below(d float64) bool {
	return keyLess(n.it.Density, n.it.ID, d, minKeyID)
}

// SumRange implements BandIndex: total weight of densities in [lo, hi).
//
// The query reads the tree without restructuring it. Splitting at lo and hi
// would yield, as the middle tree, the current tree restricted to [lo, hi)
// with ancestry preserved (split never reads priorities): its root is the
// first node on the search path with lo ≤ d < hi, its left side is that
// node's left subtree restricted to ≥ lo, and its right side the right
// subtree restricted to < hi. Summing those parts in recalc's order (weight,
// then left, then right, skipping empty sides) and reusing the stored sum of
// every subtree wholly in range therefore reproduces the middle tree's root
// sum bit for bit.
func (t *TreapBand) SumRange(lo, hi float64) float64 {
	if hi <= lo {
		return 0
	}
	for n := t.root; n != nil; {
		t.visits++
		switch {
		case n.below(lo):
			n = n.right
		case !n.below(hi):
			n = n.left
		default:
			s := n.it.Weight
			if l, ok := t.sumFrom(n.left, lo); ok {
				s += l
			}
			if r, ok := t.sumBelow(n.right, hi); ok {
				s += r
			}
			return s
		}
	}
	return 0
}

// SumFrom implements BandIndex: total weight of densities ≥ lo, read without
// restructuring the tree (see SumRange).
func (t *TreapBand) SumFrom(lo float64) float64 {
	s, _ := t.sumFrom(t.root, lo)
	return s
}

// sumFrom returns the total weight of n's subtree restricted to densities
// ≥ lo, in recalc's addition order, and whether that restriction is
// non-empty.
func (t *TreapBand) sumFrom(n *treapNode, lo float64) (float64, bool) {
	for ; n != nil; n = n.right {
		t.visits++
		if n.below(lo) {
			continue
		}
		s := n.it.Weight
		if l, ok := t.sumFrom(n.left, lo); ok {
			s += l
		}
		if n.right != nil {
			s += n.right.sum
		}
		return s, true
	}
	return 0, false
}

// sumBelow is sumFrom's mirror: n's subtree restricted to densities < hi.
func (t *TreapBand) sumBelow(n *treapNode, hi float64) (float64, bool) {
	for ; n != nil; n = n.left {
		t.visits++
		if !n.below(hi) {
			continue
		}
		s := n.it.Weight
		if n.left != nil {
			s += n.left.sum
		}
		if r, ok := t.sumBelow(n.right, hi); ok {
			s += r
		}
		return s, true
	}
	return 0, false
}

// Len implements BandIndex.
func (t *TreapBand) Len() int { return t.size }

// Visits implements Counted: tree nodes touched by split/merge traversals
// (Insert, Remove) and by the read-only descents of SumRange and SumFrom.
func (t *TreapBand) Visits() int64 { return t.visits }

// ResetVisits implements Counted.
func (t *TreapBand) ResetVisits() { t.visits = 0 }
