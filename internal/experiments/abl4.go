package experiments

import (
	"context"
	"math/rand"

	"dagsched/internal/metrics"
	"dagsched/internal/queue"
	"dagsched/internal/runner"
)

// RunABL4 measures the band-index substrate choice: the naive O(n) scan
// versus the treap with subtree sums, at the queue sizes condition (2)
// actually sees. Cost is reported as entries examined per SumRange query
// (the queue.Counted work measure) rather than wall-clock, so the table is
// deterministic — identical on any machine and under any -parallel value.
// The treap wins asymptotically, and Scheduler S reaches sizes where that
// matters: a wide serving shard holds a few hundred jobs in Q.
func RunABL4(cfg Config) ([]*metrics.Table, error) {
	sizes := []int{16, 128, 1024}
	if cfg.Quick {
		sizes = []int{16, 256}
	}
	substrates := []func() queue.BandIndex{
		func() queue.BandIndex { return queue.NewNaiveBand() },
		func() queue.BandIndex { return queue.NewTreapBand(1) },
	}
	cells, err := runGrid(cfg, runner.Grid[float64]{
		Name: "ABL4",
		Axes: []runner.Axis{{Name: "items", Size: len(sizes)}, {Name: "substrate", Size: len(substrates)}},
		Cell: func(_ context.Context, c runner.Cell) (float64, error) {
			return bandWorkPerQuery(substrates[c.At(1)](), sizes[c.At(0)]), nil
		},
	})
	if err != nil {
		return nil, err
	}
	tb := metrics.NewTable("ABL4: band index SumRange cost (entries examined per query)",
		"items", "naive", "treap", "speedup")
	for i, n := range sizes {
		naive := cells[i*len(substrates)]
		treap := cells[i*len(substrates)+1]
		tb.AddRow(n, naive, treap, naive/treap)
	}
	return []*metrics.Table{tb}, nil
}

// bandWorkPerQuery fills an index with n items and runs a fixed query
// workload, returning the mean entries/nodes examined per SumRange query.
// Both the index structure (treap priorities) and the query stream are
// seeded, so the count is a pure function of (substrate, n).
func bandWorkPerQuery(idx queue.BandIndex, n int) float64 {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < n; i++ {
		idx.Insert(queue.Item{ID: i, Density: rng.Float64() * 100, Weight: 1 + rng.Float64()})
	}
	counted := idx.(queue.Counted)
	counted.ResetVisits() // ignore setup-insert work
	const queries = 512
	r := rand.New(rand.NewSource(9))
	var sink float64
	for i := 0; i < queries; i++ {
		lo := r.Float64() * 100
		sink += idx.SumRange(lo, lo*1.5)
	}
	_ = sink
	return float64(counted.Visits()) / queries
}
