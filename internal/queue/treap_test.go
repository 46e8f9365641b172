package queue

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// splitMergeSumRange is the split/merge range sum TreapBand used before its
// queries became read-only: split the tree at lo and hi, read the middle
// tree's root sum, merge the three parts back.
func splitMergeSumRange(t *TreapBand, lo, hi float64) float64 {
	if hi <= lo {
		return 0
	}
	var v int64
	l, rest := split(t.root, lo, minKeyID, &v)
	mid, r := split(rest, hi, minKeyID, &v)
	s := 0.0
	if mid != nil {
		s = mid.sum
	}
	t.root = merge(merge(l, mid, &v), r, &v)
	return s
}

// splitMergeSumFrom is splitMergeSumRange's one-sided counterpart.
func splitMergeSumFrom(t *TreapBand, lo float64) float64 {
	var v int64
	l, r := split(t.root, lo, minKeyID, &v)
	s := 0.0
	if r != nil {
		s = r.sum
	}
	t.root = merge(l, r, &v)
	return s
}

// treapShape renders the tree (keys, priorities, stored sum bits) in
// preorder, so a test can tell whether a query restructured it.
func treapShape(n *treapNode, b *strings.Builder) {
	if n == nil {
		b.WriteString(".")
		return
	}
	fmt.Fprintf(b, "(%d:%x:%d:%x ", n.it.ID, math.Float64bits(n.it.Density), n.prio, math.Float64bits(n.sum))
	treapShape(n.left, b)
	treapShape(n.right, b)
	b.WriteString(")")
}

// TestPropTreapReadOnlySumsMatchSplitMerge pins the read-only SumRange and
// SumFrom to the split/merge reference bit for bit (math.Float64bits, not a
// tolerance) over insert/remove churn. Weights are non-integral, so a
// different addition order would show in the low bits; densities come from
// a coarse grid, so equal densities tie-break by ID; the windows include the
// (v, c·v) bands condition (2) asks for at ε = 1 (c ≈ 52.7). The queries
// must also leave the tree exactly as they found it.
func TestPropTreapReadOnlySumsMatchSplitMerge(t *testing.T) {
	const c = 52.7
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		tr := NewTreapBand(int64(trial))
		live := map[int]float64{}
		var ids []int
		next := 0
		for step := 0; step < 400; step++ {
			if len(ids) == 0 || rng.Intn(5) < 3 {
				it := Item{ID: next, Density: math.Ldexp(float64(1+rng.Intn(24)), rng.Intn(7)-3), Weight: rng.Float64() * 10}
				next++
				tr.Insert(it)
				live[it.ID] = it.Density
				ids = append(ids, it.ID)
			} else {
				k := rng.Intn(len(ids))
				id := ids[k]
				ids[k] = ids[len(ids)-1]
				ids = ids[:len(ids)-1]
				if !tr.Remove(id, live[id]) {
					t.Fatalf("trial %d step %d: Remove(%d) missed a live item", trial, step, id)
				}
				delete(live, id)
			}
			var lo, hi float64
			switch k := rng.Intn(3); {
			case k == 0 && len(ids) > 0: // condition (2)'s band at a live density
				lo = live[ids[rng.Intn(len(ids))]]
				hi = c * lo
			case k < 2: // a band starting between grid points
				lo = rng.Float64() * 4
				hi = c * lo
			default: // narrow, possibly empty or inverted
				lo = rng.Float64() * 16
				hi = lo + rng.Float64()*4 - 1
			}
			var before strings.Builder
			treapShape(tr.root, &before)
			gotR, gotF := tr.SumRange(lo, hi), tr.SumFrom(lo)
			var after strings.Builder
			treapShape(tr.root, &after)
			if before.String() != after.String() {
				t.Fatalf("trial %d step %d: SumRange/SumFrom restructured the tree", trial, step)
			}
			if want := splitMergeSumRange(tr, lo, hi); math.Float64bits(gotR) != math.Float64bits(want) {
				t.Fatalf("trial %d step %d: SumRange(%g, %g) = %x, split/merge %x",
					trial, step, lo, hi, math.Float64bits(gotR), math.Float64bits(want))
			}
			if want := splitMergeSumFrom(tr, lo); math.Float64bits(gotF) != math.Float64bits(want) {
				t.Fatalf("trial %d step %d: SumFrom(%g) = %x, split/merge %x",
					trial, step, lo, math.Float64bits(gotF), math.Float64bits(want))
			}
		}
	}
}

// TestNaiveBandSumsInInsertionOrder pins NaiveBand's reproducibility: its
// sums add weights in insertion order, whatever was removed in between, so
// the reference a whole scheduler run is compared against gives the same
// float bits every run.
func TestNaiveBandSumsInInsertionOrder(t *testing.T) {
	b := NewNaiveBand()
	weights := []float64{0.1, 1e16, 0.7, -1e16, 0.3, 2.5}
	for i, w := range weights {
		b.Insert(Item{ID: i, Density: float64(i), Weight: w})
	}
	b.Remove(5, 5)
	want := 0.0
	for _, w := range weights[:5] {
		want += w
	}
	for run := 0; run < 20; run++ {
		if got := b.SumFrom(0); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("run %d: SumFrom = %v, want insertion-order sum %v", run, got, want)
		}
		if got := b.SumRange(0, 5); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("run %d: SumRange = %v, want insertion-order sum %v", run, got, want)
		}
	}
}
