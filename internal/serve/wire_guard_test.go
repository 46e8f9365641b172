package serve

import (
	"math"
	"net/http/httptest"
	"os"
	"runtime"
	"testing"
)

// TestWireGuard is the PR 9 wire-path gate, run by `make wire-guard` with
// SPAA_WIRE_GUARD=1 (skipped otherwise: it runs real benchmarks and is too
// noisy for the ordinary test suite). It pins the two properties the batched
// fast path was built for:
//
//  1. The scalar-spec parser and the verdict encoder allocate nothing per
//     item. A regression here (a new field routed through encoding/json, a
//     buffer escaping to the heap) silently re-opens the wire gap long
//     before it shows up in throughput numbers.
//  2. The per-item cost of a 64-spec batch over real HTTP stays within 1.5×
//     the bare engine-path cost measured in the same process, i.e. the wire
//     — parse, placer, mailbox, WAL framing, response encode — adds at most
//     half an engine's worth of work per submission. Both sides replay the
//     identical spec and advance cadence (benchAdvanceEvery /
//     benchAdvanceTicks), so the ratio is workload-independent and holds on
//     single-vCPU CI hosts where absolute throughput would not. Both arms
//     run at GOMAXPROCS=1, so the ratio does not depend on the host's core
//     count either. The arms alternate for wireGuardRounds rounds and each
//     keeps its best round, as in TestObsOverheadGuard: a drift in host
//     speed then lands on both arms instead of between them.
func TestWireGuard(t *testing.T) {
	if os.Getenv("SPAA_WIRE_GUARD") == "" {
		t.Skip("set SPAA_WIRE_GUARD=1 to run the wire fast-path gate")
	}

	body := []byte(`{"w":16,"l":2,"deadline":40,"profit":3}`)
	if n := testing.AllocsPerRun(500, func() {
		if _, _, ok := parseJobSpecFast(body, false); !ok {
			t.Fatal("scalar spec fell off the fast path")
		}
	}); n != 0 {
		t.Errorf("parseJobSpecFast allocates %.1f per spec, want 0", n)
	}
	resp := JobResponse{ID: 42, Release: 7, Decision: DecisionAdmitted,
		Commitment: CommitmentOnAdmission, Plan: &PlanInfo{Alloc: 4, X: 1.5, Density: 2.25, Good: true}}
	buf := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(500, func() {
		if _, ok := appendJobResponse(buf, &resp); !ok {
			t.Fatal("verdict fell off the fast path")
		}
	}); n != 0 {
		t.Errorf("appendJobResponse allocates %.1f per verdict, want 0", n)
	}

	// One P for both arms. With a second P the engine arm runs its GC on
	// the idle P and gets faster, while the HTTP arm's client and server
	// goroutines hand off across Ps and get slower: the ratio would then
	// measure the host's core count rather than the wire path.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	engineNs, itemNs := math.Inf(1), math.Inf(1)
	for i := 0; i < wireGuardRounds; i++ {
		e, b := wireEngineArm(), wireBatchArm()
		if e <= 0 || b <= 0 {
			t.Fatalf("round %d: an arm failed (engine %.0f ns/item, batch %.0f ns/item)", i, e, b)
		}
		engineNs, itemNs = math.Min(engineNs, e), math.Min(itemNs, b)
	}
	ratio := itemNs / engineNs
	t.Logf("wire guard: engine %.0f ns/item, batch HTTP %.0f ns/item (ratio %.2f), batch path %.0f items/s",
		engineNs, itemNs, ratio, 1e9/itemNs)
	if ratio > 1.5 {
		t.Errorf("batched HTTP per-item cost is %.2fx the engine-path cost (budget 1.5x): "+
			"the wire fast path has regressed", ratio)
	}
}

// wireGuardRounds is how many times TestWireGuard alternates its two arms;
// wireGuardBatch is the HTTP arm's batch size.
const wireGuardRounds, wireGuardBatch = 5, 64

// wireEngineArm returns the bare engine path's cost per submission in ns, or
// 0 if the benchmark failed.
func wireEngineArm() float64 {
	r := testing.Benchmark(func(b *testing.B) {
		srv, err := New(Config{M: 8, QueueDepth: 1, TickInterval: -1})
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Drain()
		parkEngines(b, srv)
		sh := srv.shards[0]
		spec := JobSpec{W: 16, L: 2, Deadline: 40, Profit: ScalarProfit(3)}
		clock := int64(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rep := sh.handleSubmit(spec, "", nil)
			if rep.status != 200 {
				b.Fatalf("status %d: %s", rep.status, rep.err)
			}
			if i%benchAdvanceEvery == benchAdvanceEvery-1 {
				clock += benchAdvanceTicks
				sh.advance(clock)
			}
		}
	})
	return float64(r.NsPerOp())
}

// wireBatchArm returns the per-item cost in ns of wireGuardBatch-spec
// batches over real HTTP, replaying the engine arm's spec and cadence, or 0
// if the benchmark failed.
func wireBatchArm() float64 {
	r := testing.Benchmark(func(b *testing.B) {
		srv, err := New(Config{M: 8, QueueDepth: 1024, TickInterval: -1})
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Drain()
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		req := benchRequest("/v1/jobs:batch", benchBatchBody(wireGuardBatch))
		bc := dialBenchConn(b, ts.URL)
		items := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			postBenchBatch(b, bc, req, wireGuardBatch)
			items += wireGuardBatch
			if items%benchAdvanceEvery < wireGuardBatch {
				srv.Advance(int64(items / benchAdvanceEvery * benchAdvanceTicks))
			}
		}
	})
	return float64(r.NsPerOp()) / wireGuardBatch
}
