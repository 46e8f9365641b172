// Command perfbench is the repository's benchmark: open-loop load against a
// real spaa-serve daemon, in-process durable-history and offline-simulator
// runs, each checked for correctness and reported end to end or, in a
// separate traced run, layer by layer.
//
//	perfbench -serve-bin <spaa-serve> --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, and the metrics (end-to-end with --trace 0, per-layer with
// --trace 1). Lines before it carry the provenance and the layer ledger.
// A failed correctness check prints correct=false and exits 1.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

//go:embed workloads.json
var workloadsJSON []byte

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every workload reports untraced. Each is defined
// for every workload; "op" is the unit of work the workload repeats and
// times individually (see README.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_us_per_item", "us"},
	{"profit_frac", "frac"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics every traced run reports; a layer a workload
// does not exercise reads 0.
var perLayer = []metricDef{
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"serve.http.request_us", "us"},
	{"serve.http.residual_us", "us"},
	{"serve.cpu_us_per_item", "us"},
	{"serve.stage.queue_us", "us"},
	{"serve.stage.admit_wal_us", "us"},
	{"serve.stage.commit_us", "us"},
	{"serve.stage.reply_us", "us"},
	{"serve.trace.residual_us", "us"},
	{"serve.trace.joined_frac", "frac"},
	{"serve.mailbox.wait_us", "us"},
	{"serve.mailbox.depth_max", "count"},
	{"serve.clock.jumps_per_s", "1/s"},
	{"serve.clock.ticks_per_jump", "count"},
	{"serve.engine.submit_us", "us"},
	{"serve.engine.group_us", "us"},
	{"serve.engine.items_per_group", "count"},
	{"serve.wal.append_us", "us"},
	{"serve.wal.fsync_us", "us"},
	{"serve.wal.fsyncs_per_item", "count"},
	{"serve.wal.bytes_per_item", "B"},
	{"serve.placer.spill_frac", "frac"},
	{"serve.idem.replay_frac", "frac"},
	{"serve.live_jobs", "count"},
	{"serve.parked_depth", "count"},
	{"serve.read_p50_ms", "ms"},
	{"serve.read_p90_ms", "ms"},
	{"serve.failed_frac", "frac"},
	{"serve.ladder_rate_items_s", "1/s"},
	{"serve.checkpoint_s", "s"},
	{"serve.checkpoint.s_half", "s"},
	{"serve.checkpoint.bytes_per_job", "B"},
	{"serve.recovery_s", "s"},
	{"serve.recovery.s_half", "s"},
	{"serve.recovery.us_per_job", "us"},
	{"serve.heap_bytes_per_job", "B"},
	{"core.on_arrival_us", "us"},
	{"core.assign_us", "us"},
	{"core.on_completion_us", "us"},
	{"core.calls_per_job", "count"},
	{"core.admit_frac", "frac"},
	{"core.park_frac", "frac"},
	{"core.reject_frac", "frac"},
	{"sim.self_us_per_job", "us"},
	{"sim.ticks_per_job", "count"},
	{"sim.jobs_per_s", "1/s"},
	{"sim.faulty_jobs_per_s", "1/s"},
	{"loadgen.lag_p50_ms", "ms"},
	{"loadgen.lag_p99_ms", "ms"},
	{"loadgen.conn_wait_p99_ms", "ms"},
	{"loadgen.cpu_frac", "frac"},
	{"trace.overhead_frac", "frac"},
}

// outcome is what one workload run produced.
type outcome struct {
	attempted, failed int64
	problems          []string // failed correctness checks
	values            map[string]float64
	ledger            []string // human-readable layer lines
}

func newOutcome() *outcome { return &outcome{values: make(map[string]float64)} }

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) note(format string, args ...any) {
	o.ledger = append(o.ledger, fmt.Sprintf(format, args...))
}

// runEnv is what every workload gets.
type runEnv struct {
	seed     int64
	seconds  float64
	trace    bool
	serveBin string
	work     string // scratch directory inside the checkout, removed at exit
	traces   string // where traced runs leave their record
	cfg      map[string]json.RawMessage
}

var workloads = map[string]func(*runEnv) (*outcome, error){
	"single-narrow":      runSingleNarrow,
	"batch-wide-durable": runBatchWide,
	"history-recovery":   runHistory,
	"sim-offline":        runSimOffline,
}

var workloadOrder = []string{"single-narrow", "batch-wide-durable", "history-recovery", "sim-offline"}

func main() {
	var (
		name     = flag.String("workload", "", "workload name, or all: "+strings.Join(workloadOrder, ", "))
		seed     = flag.Int64("seed", 1, "workload seed")
		seconds  = flag.Float64("seconds", 10, "measured seconds per run")
		traceOn  = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
		serveBin = flag.String("serve-bin", "", "spaa-serve binary (required by the serve workloads)")
		workDir  = flag.String("work-dir", ".bench_build/run", "scratch directory for WAL directories and traces")
	)
	flag.Parse()
	if flag.NArg() > 0 || *name == "" || *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench -serve-bin <path> --workload <name|all> --seed <n> --seconds <s> --trace <0|1>")
		os.Exit(2)
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadOrder
	} else if workloads[*name] == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	var cfg map[string]json.RawMessage
	if err := json.Unmarshal(workloadsJSON, &cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: workloads.json:", err)
		os.Exit(2)
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	root, err := os.MkdirTemp(*workDir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	// An interrupted run still stops its daemons and removes its scratch.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		killAll()
		os.RemoveAll(root)
		os.Exit(1)
	}()

	ok := true
	for _, n := range names {
		env := &runEnv{seed: *seed, seconds: *seconds, trace: *traceOn == 1, serveBin: *serveBin,
			work: filepath.Join(root, n), traces: filepath.Join(*workDir, "traces"), cfg: cfg}
		if err := os.Mkdir(env.work, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		correct, err := runOne(n, env)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", n, err)
			killAll()
			os.RemoveAll(root)
			os.Exit(1)
		}
		ok = ok && correct
	}
	os.RemoveAll(root)
	if !ok {
		os.Exit(1)
	}
}

// runOne runs one workload, prints its provenance, ledger and result line,
// and reports whether every correctness check passed.
func runOne(name string, env *runEnv) (bool, error) {
	prov := provenance(name, env)
	pj, _ := json.Marshal(prov)
	fmt.Printf("provenance %s\n", pj)
	t0 := time.Now()
	steal0, total0 := cpuTicks()
	out, err := workloads[name](env)
	killAll()
	if err != nil {
		return false, err
	}
	if steal1, total1 := cpuTicks(); total1 > total0 {
		out.note("ledger host: %.1f%% of CPU time stolen by the hypervisor during the run", 100*float64(steal1-steal0)/float64(total1-total0))
	}
	for _, l := range out.ledger {
		fmt.Println(l)
	}
	for _, p := range out.problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: correctness: %s\n", name, p)
	}
	defs := endToEnd
	if env.trace {
		defs = perLayer
	}
	metrics := make(map[string]metric, len(defs))
	for _, d := range defs {
		metrics[d.name] = metric{Value: out.values[d.name], Unit: d.unit}
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(out.problems) == 0, out.attempted, out.failed, metrics}
	rj, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	if env.trace {
		writeTraceFile(env, name, prov, res.Metrics, out.ledger)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d took %.1fs\n", name, env.seed, time.Since(t0).Seconds())
	fmt.Println(string(rj))
	return res.Correct, nil
}

// writeTraceFile keeps the traced run's record (provenance, metrics,
// ledger) after the run, so a reader can see which host and source
// produced a ledger.
func writeTraceFile(env *runEnv, name string, prov map[string]any, m map[string]metric, ledger []string) {
	dir := env.traces
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: traces:", err)
		return
	}
	b, _ := json.MarshalIndent(map[string]any{"provenance": prov, "metrics": m, "ledger": ledger}, "", "  ")
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", name, env.seed))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: traces:", err)
	}
}
