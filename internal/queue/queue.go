// Package queue provides the ordered containers scheduler S is built on: a
// density-ordered list for the priority queues Q and P, and a band index
// answering the admission-control query of condition (2),
//
//	N(T, v, c·v) = Σ n_j over jobs J_j ∈ T with density v_j ∈ [v, c·v),
//
// i.e. the total processor allotment of jobs whose density falls in a
// multiplicative band. Two implementations are provided: a naive scan and a
// treap with augmented subtree sums (O(log n) insert/remove/range-sum); the
// ABL4 benchmark compares them.
package queue

import (
	"slices"
	"sort"
)

// Item is one job's entry: its identity, density v_i, and weight (the
// processor allotment n_i that band sums accumulate).
type Item struct {
	ID      int
	Density float64
	Weight  float64
}

// less orders items by density descending, then ID ascending — the execution
// order of scheduler S with a deterministic tiebreak.
func less(a, b Item) bool {
	if a.Density != b.Density {
		return a.Density > b.Density
	}
	return a.ID < b.ID
}

// DensityList is an ordered collection of items sorted by density descending
// (ID ascending among equals). It backs the queues Q and P: iteration visits
// jobs from highest to lowest density. The zero value is an empty list.
//
// The ID map stores each item's density, not its slice index: an insert or
// removal shifts the index of every later item, and keeping an index map
// current meant rewriting O(n) map entries per mutation. Storing the (stable)
// density instead costs exactly one map write per mutation; position lookups
// recover the index with a binary search on the (density, ID) key.
type DensityList struct {
	items []Item
	pos   map[int]float64 // ID -> density (the sort key half that, with ID, locates the item)
}

// Len returns the number of items.
func (l *DensityList) Len() int { return len(l.items) }

// index returns the slice position of the item with the given ID, or false.
func (l *DensityList) index(id int) (int, bool) {
	d, ok := l.pos[id]
	if !ok {
		return 0, false
	}
	probe := Item{ID: id, Density: d}
	i := sort.Search(len(l.items), func(i int) bool { return !less(l.items[i], probe) })
	return i, true
}

// Insert adds it to the list, keeping order. It panics if the ID is already
// present: queues Q and P are disjoint and never hold a job twice, so a
// duplicate insert is a scheduler bug.
func (l *DensityList) Insert(it Item) {
	if l.pos == nil {
		l.pos = make(map[int]float64)
	}
	if _, dup := l.pos[it.ID]; dup {
		panic("queue: duplicate ID inserted into DensityList")
	}
	i := sort.Search(len(l.items), func(i int) bool { return !less(l.items[i], it) })
	l.items = append(l.items, Item{})
	copy(l.items[i+1:], l.items[i:])
	l.items[i] = it
	l.pos[it.ID] = it.Density
}

// Remove deletes the item with the given ID, reporting whether it was
// present.
func (l *DensityList) Remove(id int) bool {
	i, ok := l.index(id)
	if !ok {
		return false
	}
	copy(l.items[i:], l.items[i+1:])
	l.items = l.items[:len(l.items)-1]
	delete(l.pos, id)
	return true
}

// Contains reports whether an item with the given ID is present.
func (l *DensityList) Contains(id int) bool {
	_, ok := l.pos[id]
	return ok
}

// Get returns the item with the given ID.
func (l *DensityList) Get(id int) (Item, bool) {
	i, ok := l.index(id)
	if !ok {
		return Item{}, false
	}
	return l.items[i], true
}

// At returns the i-th item in density-descending order.
func (l *DensityList) At(i int) Item { return l.items[i] }

// ForEach visits items from highest to lowest density until fn returns
// false. The list must not be mutated during iteration.
func (l *DensityList) ForEach(fn func(Item) bool) {
	for _, it := range l.items {
		if !fn(it) {
			return
		}
	}
}

// ForEachFrom visits, in the same order as ForEach, only the items with
// density ≤ maxDensity, finding the first by binary search instead of
// stepping past the denser prefix.
func (l *DensityList) ForEachFrom(maxDensity float64, fn func(Item) bool) {
	i := sort.Search(len(l.items), func(i int) bool { return l.items[i].Density <= maxDensity })
	for _, it := range l.items[i:] {
		if !fn(it) {
			return
		}
	}
}

// Snapshot appends all items in order to dst and returns it.
func (l *DensityList) Snapshot(dst []Item) []Item { return append(dst, l.items...) }

// BandIndex answers weighted range-sum queries over densities.
type BandIndex interface {
	// Insert adds an item. IDs must be unique among live items.
	Insert(it Item)
	// Remove deletes the item with the given ID and density, reporting
	// whether it was present.
	Remove(id int, density float64) bool
	// SumRange returns the total weight of items with density in [lo, hi).
	SumRange(lo, hi float64) float64
	// SumFrom returns the total weight of items with density ≥ lo.
	SumFrom(lo float64) float64
	// Len returns the number of live items.
	Len() int
}

// Counted is implemented by band indexes that report a deterministic
// machine-independent measure of structural work: the number of stored
// entries examined (NaiveBand) or tree nodes touched (TreapBand). The ABL4
// experiment compares substrates on this measure so its table is
// bit-reproducible on any machine and under any runner parallelism.
type Counted interface {
	// Visits returns the cumulative work counter.
	Visits() int64
	// ResetVisits zeroes the counter (e.g. after setup inserts).
	ResetVisits()
}

// NaiveBand is the obviously-correct BandIndex: a flat list scanned per
// query. It is the reference implementation for property tests and the
// baseline for the ABL4 benchmark. Items are kept, and summed, in insertion
// order, so a query's float result is reproducible run to run.
type NaiveBand struct {
	items  []Item
	visits int64
}

// NewNaiveBand returns an empty NaiveBand.
func NewNaiveBand() *NaiveBand { return &NaiveBand{} }

// index returns the position of the item with the given ID, or -1.
func (n *NaiveBand) index(id int) int {
	return slices.IndexFunc(n.items, func(it Item) bool { return it.ID == id })
}

// Insert implements BandIndex.
func (n *NaiveBand) Insert(it Item) {
	if n.index(it.ID) >= 0 {
		panic("queue: duplicate ID inserted into NaiveBand")
	}
	n.items = append(n.items, it)
}

// Remove implements BandIndex.
func (n *NaiveBand) Remove(id int, _ float64) bool {
	i := n.index(id)
	if i < 0 {
		return false
	}
	n.items = slices.Delete(n.items, i, i+1)
	return true
}

// SumRange implements BandIndex.
func (n *NaiveBand) SumRange(lo, hi float64) float64 {
	var s float64
	for _, it := range n.items {
		n.visits++
		if it.Density >= lo && it.Density < hi {
			s += it.Weight
		}
	}
	return s
}

// Visits implements Counted: entries examined by SumRange/SumFrom scans.
func (n *NaiveBand) Visits() int64 { return n.visits }

// ResetVisits implements Counted.
func (n *NaiveBand) ResetVisits() { n.visits = 0 }

// SumFrom implements BandIndex.
func (n *NaiveBand) SumFrom(lo float64) float64 {
	var s float64
	for _, it := range n.items {
		n.visits++
		if it.Density >= lo {
			s += it.Weight
		}
	}
	return s
}

// Len implements BandIndex.
func (n *NaiveBand) Len() int { return len(n.items) }
