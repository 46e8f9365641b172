package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
	"strconv"
	"sync"
	"time"

	"dagsched/internal/serve"
	"dagsched/internal/sim"
)

// serveConfig is one open-loop workload against a spaa-serve child process;
// workloads.json holds the calibrated values.
type serveConfig struct {
	Daemon         []string   `json:"daemon"`
	Conns          int        `json:"conns"`
	Rate           float64    `json:"rate"`  // nominal requests per second
	Batch          int        `json:"batch"` // items per POST /v1/jobs:batch; 0 sends single POST /v1/jobs
	ReadFrac       float64    `json:"read_frac"`
	StructuredFrac float64    `json:"structured_frac"`
	KeyedFrac      float64    `json:"keyed_frac"`
	RetryFrac      float64    `json:"retry_frac"` // share of keyed items that retry an acknowledged key
	Catalogue      int        `json:"catalogue"`  // distinct scalar shapes; 0 draws every spec afresh
	W              [2]int64   `json:"w"`
	L              [2]int64   `json:"l"`
	Deadline       [2]int64   `json:"deadline"`
	Profit         [2]float64 `json:"profit"`
	LimitMs        float64    `json:"limit_ms"`
	LadderFrom     float64    `json:"ladder_from"` // the rate the ladder starts from
	// ClientUsPerItem is the generator's CPU time per item at the reference
	// speed; see atRefSpeed.
	ClientUsPerItem float64 `json:"client_us_per_item"`
	// CPUExponent is how the daemon's CPU time per item follows the
	// generator's from one host speed to another: daemon ∝ generator^e.
	CPUExponent float64 `json:"cpu_exponent"`
}

func loadConfig(env *runEnv, name string, v any) error {
	raw, ok := env.cfg[name]
	if !ok {
		return fmt.Errorf("workloads.json has no %q", name)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

func runSingleNarrow(env *runEnv) (*outcome, error) { return runServe(env, "single-narrow") }
func runBatchWide(env *runEnv) (*outcome, error)    { return runServe(env, "batch-wide-durable") }

// Operation kinds of one open-loop request.
const (
	opSubmit = iota
	opRead
	opBatch
)

// spec is one job spec as the generator renders it.
type spec struct {
	w, l, deadline int64
	profit         float64
	structured     string // "" for a scalar profit, else one of profitKinds
}

// profitKinds are the structured profit functions of the v2 job schema.
var profitKinds = []string{"step", "linear", "exp", "piecewise"}

// profitObject appends the spec's structured profit. Each kind earns the
// shape's value early on and nothing after the shape's deadline, so it asks
// of the scheduler about what the scalar spec does.
func (s spec) profitObject(b []byte) []byte {
	d, half, p := s.deadline, max(1, s.deadline/2), s.profit
	switch s.structured {
	case "step":
		return fmt.Appendf(b, `{"type":"step","value":%g,"deadline":%d}`, p, d)
	case "linear":
		return fmt.Appendf(b, `{"type":"linear","value":%g,"flat":%d,"zeroAt":%d}`, p, half, d)
	case "exp":
		return fmt.Appendf(b, `{"type":"exp","value":%g,"flat":%d,"halfLife":%d,"cutoff":%d}`, p, half, max(1, d/4), d)
	default:
		return fmt.Appendf(b, `{"type":"piecewise","until":[%d,%d],"values":[%g,%g]}`, half, d, p, p/2)
	}
}

func (s spec) json(key string) []byte {
	b := make([]byte, 0, 96)
	b = append(b, `{"w":`...)
	b = strconv.AppendInt(b, s.w, 10)
	b = append(b, `,"l":`...)
	b = strconv.AppendInt(b, s.l, 10)
	if s.structured != "" {
		b = append(b, `,"profit":`...)
		b = s.profitObject(b)
	} else {
		b = append(b, `,"deadline":`...)
		b = strconv.AppendInt(b, s.deadline, 10)
		b = append(b, `,"profit":`...)
		b = strconv.AppendFloat(b, s.profit, 'g', -1, 64)
	}
	if key != "" {
		b = append(b, `,"key":"`...)
		b = append(b, key...)
		b = append(b, '"')
	}
	return append(b, '}')
}

func (c *serveConfig) drawSpec(rng *rand.Rand) spec {
	s := spec{w: c.W[0] + rng.Int63n(c.W[1]-c.W[0]+1)}
	s.l = c.L[0] + rng.Int63n(c.L[1]-c.L[0]+1)
	if s.l > s.w {
		s.l = s.w
	}
	s.deadline = c.Deadline[0] + rng.Int63n(c.Deadline[1]-c.Deadline[0]+1)
	s.profit = math.Round((c.Profit[0]+rng.Float64()*(c.Profit[1]-c.Profit[0]))*1000) / 1000
	return s
}

// keyedItem is a keyed submission the daemon acknowledged, kept so a later
// request can retry it and check that the stored verdict comes back.
type keyedItem struct {
	key  string
	body []byte
	resp serve.JobResponse
}

// serveLoad generates one daemon's traffic and checks every reply. Only
// the sender goroutine renders requests; replies arrive on the connection
// readers, so the shared record is behind mu.
type serveLoad struct {
	cfg     *serveConfig
	seed    int64
	traced  bool
	phase   string
	rng     *rand.Rand // sender only
	catalog []spec

	kinds   []int          // per request: opSubmit, opRead or opBatch (written at send)
	retries [][]*keyedItem // per request: the retried item of each slot, nil for fresh
	keys    [][]string     // per request: the fresh key of each slot, "" when keyless
	bodies  [][][]byte     // per request: the body of each fresh keyed slot
	readIDs []int          // per request: the job a read asks for
	items   []int          // per request: items carried (1 for singles)

	mu        sync.Mutex
	acked     []int // accepted job IDs, in acknowledgement order
	keyed     []*keyedItem
	accepted  int64 // distinct accepted jobs acknowledged
	itemsFail int64
	unknown   int64 // submitted items whose reply never came: accepted or not
	problems  []string
}

// The ladder climbs by 30% a rung of two seconds, for at most 8 rungs,
// then bisects three times: a resolution of about 3%. Every daemon serves
// half a second of warm-up load before it is measured. The catalogue is
// drawn from one fixed seed: it is part of the workload, the same for every
// run seed.
const (
	ladderStep    = 1.3
	ladderRungs   = 8
	ladderBisect  = 3
	ladderRung    = 2 * time.Second
	warmup        = 500 * time.Millisecond
	catalogueSeed = 1
)

func newServeLoad(cfg *serveConfig, seed int64) *serveLoad {
	return &serveLoad{cfg: cfg, seed: seed, rng: rand.New(rand.NewSource(seed)),
		catalog: cfg.stratified(rand.New(rand.NewSource(catalogueSeed)), cfg.Catalogue)}
}

// stratified draws n specs as a Latin hypercube: each takes its own n-th of
// every range, in a seeded order, so the n specs cover every range evenly.
// The catalogue is drawn so, and so is each batch: a run's mix of spec
// sizes, which sets the size of Scheduler S's queue, then varies little
// from seed to seed.
func (c *serveConfig) stratified(rng *rand.Rand, n int) []spec {
	pick := func(lo, hi float64) []float64 {
		vs := make([]float64, n)
		for i, k := range rng.Perm(n) {
			vs[i] = lo + (float64(k)+rng.Float64())/float64(n)*(hi-lo)
		}
		return vs
	}
	span := func(r [2]int64) (float64, float64) { return float64(r[0]), float64(r[1] + 1) }
	w, l, d := pick(span(c.W)), pick(span(c.L)), pick(span(c.Deadline))
	p := pick(c.Profit[0], c.Profit[1])
	out := make([]spec, n)
	for i := range out {
		out[i] = spec{w: int64(w[i]), l: min(int64(l[i]), int64(w[i])), deadline: int64(d[i]),
			profit: math.Round(p[i]*1000) / 1000}
	}
	return out
}

// begin sizes the per-request records for a phase of n requests.
func (l *serveLoad) begin(phase string, n int) {
	l.phase = phase
	l.kinds = make([]int, n)
	l.retries = make([][]*keyedItem, n)
	l.keys = make([][]string, n)
	l.bodies = make([][][]byte, n)
	l.readIDs = make([]int, n)
	l.items = make([]int, n)
}

func (l *serveLoad) problem(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.problems) < 20 {
		l.problems = append(l.problems, fmt.Sprintf(format, args...))
	}
}

// pickAcked returns a recently acknowledged job ID, or 0 when none is.
func (l *serveLoad) pickAcked() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.acked) == 0 {
		return 0
	}
	recent := min(len(l.acked), 256)
	return l.acked[len(l.acked)-1-l.rng.Intn(recent)]
}

func (l *serveLoad) pickKeyed() *keyedItem {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.keyed) == 0 {
		return nil
	}
	recent := min(len(l.keyed), 1024)
	return l.keyed[len(l.keyed)-1-l.rng.Intn(recent)]
}

func (l *serveLoad) reqID(i int) string {
	if !l.traced {
		return ""
	}
	return fmt.Sprintf("pb-%d-%s-%d", l.seed, l.phase, i)
}

// build renders request i at its send instant.
func (l *serveLoad) build(i int) []byte {
	var hdr []byte
	if id := l.reqID(i); id != "" {
		hdr = append(hdr, "X-Request-Id: "+id+"\r\n"...)
	}
	if l.cfg.Batch > 0 {
		return l.buildBatch(i, hdr)
	}
	l.items[i] = 1
	u := l.rng.Float64()
	if u < l.cfg.ReadFrac {
		if id := l.pickAcked(); id != 0 {
			l.kinds[i], l.readIDs[i] = opRead, id
			return httpRequest("GET", "/v1/jobs/"+strconv.Itoa(id), string(hdr), nil)
		}
	}
	l.kinds[i] = opSubmit
	l.retries[i], l.keys[i], l.bodies[i] = make([]*keyedItem, 1), make([]string, 1), make([][]byte, 1)
	sp := l.catalog[l.rng.Intn(len(l.catalog))]
	if l.rng.Float64() < l.cfg.StructuredFrac {
		sp.structured = profitKinds[l.rng.Intn(len(profitKinds))]
	}
	body := sp.json("")
	if l.rng.Float64() < l.cfg.KeyedFrac {
		if l.rng.Float64() < l.cfg.RetryFrac {
			if it := l.pickKeyed(); it != nil {
				l.retries[i][0] = it
				return httpRequest("POST", "/v1/jobs", string(hdr)+"Idempotency-Key: "+it.key+"\r\n", it.body)
			}
		}
		key := fmt.Sprintf("k%d-%s-%d", l.seed, l.phase, i)
		l.keys[i][0], l.bodies[i][0] = key, body
		hdr = append(hdr, "Idempotency-Key: "+key+"\r\n"...)
	}
	return httpRequest("POST", "/v1/jobs", string(hdr), body)
}

func (l *serveLoad) buildBatch(i int, hdr []byte) []byte {
	n := l.cfg.Batch
	l.kinds[i], l.items[i] = opBatch, n
	l.retries[i], l.keys[i], l.bodies[i] = make([]*keyedItem, n), make([]string, n), make([][]byte, n)
	fresh := l.cfg.stratified(l.rng, n)
	body := append(make([]byte, 0, 96*n), '[')
	for j := 0; j < n; j++ {
		if j > 0 {
			body = append(body, ',')
		}
		if l.rng.Float64() < l.cfg.RetryFrac {
			if it := l.pickKeyed(); it != nil {
				l.retries[i][j] = it
				body = append(body, it.body...)
				continue
			}
		}
		key := fmt.Sprintf("b%d-%s-%d-%d", l.seed, l.phase, i, j)
		item := fresh[j].json(key)
		l.keys[i][j], l.bodies[i][j] = key, item
		body = append(body, item...)
	}
	body = append(body, ']')
	return httpRequest("POST", "/v1/jobs:batch", string(hdr), body)
}

// reply checks response i. It reports whether every item succeeded. A
// submission answered with an error status was not accepted; one with no
// answer may have been.
func (l *serveLoad) reply(i, status int, body []byte, err error) bool {
	items := int64(l.items[i])
	if err != nil || status != 200 {
		l.mu.Lock()
		l.itemsFail += items
		if err != nil && l.kinds[i] != opRead {
			l.unknown += items
		}
		l.mu.Unlock()
		if err == nil && l.kinds[i] == opRead {
			l.problem("read of acknowledged job %d answered %d %q", l.readIDs[i], status, body)
		}
		return false
	}
	switch l.kinds[i] {
	case opRead:
		var st serve.StatusResponse
		if err := json.Unmarshal(body, &st); err != nil || st.ID != l.readIDs[i] {
			l.problem("read of job %d answered %q", l.readIDs[i], body)
		}
		return true
	case opSubmit:
		var resp serve.JobResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			l.problem("submit %d: %v", i, err)
			return false
		}
		l.settle(i, 0, resp)
		return true
	default:
		var br serve.BatchResponse
		if err := json.Unmarshal(body, &br); err != nil || len(br.Items) != l.cfg.Batch {
			l.problem("batch %d: %d items, %v", i, len(br.Items), err)
			return false
		}
		ok := true
		for j, it := range br.Items {
			if it.Status != 200 || it.Response == nil {
				l.mu.Lock()
				l.itemsFail++
				l.mu.Unlock()
				ok = false
				continue
			}
			l.settle(i, j, *it.Response)
		}
		return ok
	}
}

// settle records one acknowledged submission slot: a retry must return the
// stored verdict marked replayed; a fresh submission adds its verdict.
func (l *serveLoad) settle(i, j int, resp serve.JobResponse) {
	if it := l.retries[i][j]; it != nil {
		if !resp.Replayed || resp.ID != it.resp.ID || resp.Decision != it.resp.Decision {
			l.problem("retry of key %s answered %+v, first verdict %+v", it.key, resp, it.resp)
		}
		return
	}
	if resp.Replayed {
		l.problem("fresh submission %d/%d answered as a replay", i, j)
	}
	accepted := resp.Decision != serve.DecisionRejected
	if accepted != (resp.ID != 0) {
		l.problem("verdict %s with job id %d", resp.Decision, resp.ID)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if accepted {
		l.accepted++
		l.acked = append(l.acked, resp.ID)
	}
	if key := l.keys[i][j]; key != "" {
		l.keyed = append(l.keyed, &keyedItem{key: key, body: l.bodies[i][j], resp: resp})
	}
}

// phase is one open-loop phase's record.
type phase struct {
	samples []sample
	kinds   []int
	items   []int
}

// phaseRun drives one open-loop phase at rate requests per second for d.
func (l *serveLoad) phaseRun(conns []*conn, name string, rate float64, d time.Duration) phase {
	n := max(1, int(rate*d.Seconds()))
	dues := poissonDues(l.rng, rate, n)
	l.begin(name, n)
	ss := openLoop(conns, time.Now().Add(2*time.Millisecond), dues, l.build, l.reply)
	return phase{samples: ss, kinds: l.kinds, items: l.items}
}

func dialAll(addr string, n int) ([]*conn, error) {
	conns := make([]*conn, n)
	for i := range conns {
		c, err := dial(addr)
		if err != nil {
			return nil, err
		}
		conns[i] = c
	}
	return conns, nil
}

func closeAll(conns []*conn) {
	for _, c := range conns {
		c.close()
	}
}

// checkDrained compares a drained daemon's Result with the offline replay
// of its WAL directory, and its job count with the acknowledgements: exact
// unless some submissions went unanswered, each of which may add one job.
func (l *serveLoad) checkDrained(o *outcome, d *daemon, res *sim.Result) {
	replayed, err := serve.ReplayDir(d.walDir)
	if err != nil {
		o.problem("ReplayDir: %v", err)
		return
	}
	a, b := *res, *replayed
	a.Engine, b.Engine = "", ""
	aj, _ := json.Marshal(&a)
	bj, _ := json.Marshal(&b)
	if !bytes.Equal(aj, bj) {
		o.problem("drained Result differs from the offline replay of the WAL")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := int64(len(res.Jobs)); n < l.accepted || n > l.accepted+l.unknown {
		o.problem("drained Result holds %d jobs, %d were acknowledged and %d submissions went unanswered", n, l.accepted, l.unknown)
	}
	o.problems = append(o.problems, l.problems...)
}

// runServe is one run of an open-loop serve workload: set-up samples and a
// measured phase at the nominal rate on one daemon; the traced run adds the
// rate ladder on a second, fresh daemon.
func runServe(env *runEnv, name string) (*outcome, error) {
	var cfg serveConfig
	if err := loadConfig(env, name, &cfg); err != nil {
		return nil, err
	}
	if env.serveBin == "" {
		return nil, fmt.Errorf("-serve-bin is required")
	}
	// The generator allocates little per request; a lazier collector keeps
	// its pauses out of the latency samples. (The in-process workloads keep
	// the default, so their peak RSS is the program's own.)
	defer debug.SetGCPercent(debug.SetGCPercent(400))
	o := newOutcome()
	dirN := 0
	start := func(debug bool, extra ...string) (*daemon, time.Duration, error) {
		dirN++
		return startDaemon(env.serveBin, append(slices.Clone(cfg.Daemon), extra...), filepath.Join(env.work, fmt.Sprintf("wal-%d", dirN)), debug)
	}

	// Set-up, the daemon's CPU time from spawn to ready: nineteen throwaway
	// starts plus the measured daemon. Each start is scaled by the yardstick
	// run right after it, so the figure follows the host's speed at set-up.
	var setups, setupsRef []float64
	addSetup := func(setup time.Duration) {
		setups = append(setups, setup.Seconds())
		setupsRef = append(setupsRef, atRefSpeed(setup.Seconds(), yardstickUs(1), yardstickRefUs))
	}
	for i := 0; i < 19; i++ {
		d, setup, err := start(false)
		if err != nil {
			return nil, err
		}
		addSetup(setup)
		if _, err := d.drain(); err != nil {
			return nil, err
		}
	}

	var extra []string
	if env.trace {
		// Keep every traced request of the measured phase in the ring.
		extra = []string{"-trace-depth", strconv.Itoa(int(cfg.Rate*env.seconds) + 1024)}
	}
	d, setup, err := start(env.trace, extra...)
	if err != nil {
		return nil, err
	}
	addSetup(setup)
	load := newServeLoad(&cfg, env.seed)
	conns, err := dialAll(d.addr, cfg.Conns)
	if err != nil {
		d.kill()
		return nil, err
	}
	load.phaseRun(conns, "warmup", cfg.Rate, warmup)
	nominal := time.Duration(env.seconds * float64(time.Second))
	if env.trace {
		nominal /= 2 // the traced run measures the phase twice and climbs the ladder
	}

	var untraced phase
	var sampler *depthSampler
	if env.trace {
		// The same phase untraced first, for the tracing overhead.
		untraced = load.phaseRun(conns, "untraced", cfg.Rate, nominal)
		load.traced = true
		sampler = startDepthSampler(d)
	}
	s0, err := d.scrape()
	if err != nil {
		d.kill()
		return nil, err
	}
	cpu0 := selfCPU()
	steal0, total0 := cpuTicks()
	load.mu.Lock()
	fail0 := load.itemsFail
	load.mu.Unlock()
	ph := load.phaseRun(conns, "nominal", cfg.Rate, nominal)
	cpu1 := selfCPU()
	steal1, total1 := cpuTicks()
	s1, err := d.scrape()
	if err != nil {
		d.kill()
		return nil, err
	}
	if sampler != nil {
		o.values["serve.mailbox.depth_max"] = sampler.stop()
	}
	var spans []byte
	if env.trace {
		if spans, err = d.get(d.debugAddr, "/debug/requests"); err != nil {
			d.kill()
			return nil, err
		}
	}
	walBytes := dirBytes(d.walDir, "wal.log")
	closeAll(conns)
	res, err := d.drain()
	if err != nil {
		return nil, err
	}
	load.checkDrained(o, d, res)

	// End-to-end numbers of the nominal phase.
	var svc []float64
	for i, s := range ph.samples {
		o.attempted += int64(ph.items[i])
		if !s.failed && ph.kinds[i] != opRead {
			svc = append(svc, ms(s.svc))
		}
	}
	load.mu.Lock()
	o.failed = load.itemsFail - fail0
	load.mu.Unlock()
	op := summarize(latOf(ph, opRead))
	rd := summarize(latOf(ph, opSubmit, opBatch))
	o.values["op_p50_ms"] = op.p50
	o.values["op_p90_ms"] = op.p90
	o.values["profit_frac"] = res.ProfitFraction()
	o.values["peak_rss_mb"] = float64(s1.proc.hwm) / (1 << 20)
	o.values["serve.read_p50_ms"] = rd.p50
	o.values["serve.read_p90_ms"] = rd.p90
	if o.attempted > 0 {
		o.values["serve.failed_frac"] = float64(o.failed) / float64(o.attempted)
	}
	o.note("ledger %s: %d requests (%d items) at %.0f/s; op p50 %.3f ms p90 %.3f ms p%.1f %.3f ms (n=%d); reads p50 %.3f ms p90 %.3f ms (n=%d)",
		name, len(ph.samples), o.attempted, cfg.Rate, op.p50, op.p90, float64(op.tailPM)/10, op.tail, op.n, rd.p50, rd.p90, rd.n)

	lag, wait := generatorStats(ph.samples)
	o.values["loadgen.lag_p50_ms"] = quantileOf(lag, 500)
	o.values["loadgen.lag_p99_ms"] = quantileOf(lag, 990)
	o.values["loadgen.conn_wait_p99_ms"] = quantileOf(wait, 990)
	o.values["loadgen.cpu_frac"] = (cpu1 - cpu0).Seconds() / nominal.Seconds()
	o.note("ledger loadgen: lag p50 %.4f ms p99 %.4f ms; connection wait p99 %.4f ms; generator cpu %.2f of one core",
		o.values["loadgen.lag_p50_ms"], o.values["loadgen.lag_p99_ms"], o.values["loadgen.conn_wait_p99_ms"], o.values["loadgen.cpu_frac"])
	serveLayers(o, name, &cfg, s0, s1, svc, walBytes, ph)
	// The generator does the client half of the same exchanges on the same
	// CPUs at the same time, so its CPU time per item is this run's measure
	// of the host's speed. It rises by about the share of the host's CPU
	// time the hypervisor steals, while the daemon's does not, so that share
	// is taken out of the probe.
	genUs := float64(cpu1-cpu0) / float64(time.Microsecond) / float64(o.attempted)
	var steal float64
	if total1 > total0 {
		steal = float64(steal1-steal0) / float64(total1-total0)
	}
	probe := genUs / (1 + steal)
	o.values["cpu_us_per_item"] = atRefSpeedExp(o.values["serve.cpu_us_per_item"], probe, cfg.ClientUsPerItem, cfg.CPUExponent)
	o.values["setup_s"] = median(setupsRef)
	o.note("ledger cpu: daemon %.1f us/item, set-up %.5f s; generator %.2f us/item, %.2f without the %.1f%% stolen, against %.2f for the reference speed; at the reference speed %.1f us/item (exponent %.2f), set-up %.5f s (each start scaled by its own yardstick)",
		o.values["serve.cpu_us_per_item"], median(setups), genUs, probe, 100*steal, cfg.ClientUsPerItem, o.values["cpu_us_per_item"], cfg.CPUExponent, o.values["setup_s"])
	if env.trace {
		joinSpans(o, spans, ph, func(i int) string { return fmt.Sprintf("pb-%d-nominal-%d", env.seed, i) })
		if u := summarize(latOf(untraced, opRead)); u.p50 > 0 {
			o.values["trace.overhead_frac"] = op.p50/u.p50 - 1
			o.note("ledger trace overhead: traced op p50 %.3f ms vs untraced %.3f ms", op.p50, u.p50)
		}
		if err := replayCore(o, d.walDir); err != nil {
			return nil, err
		}
	}

	if !env.trace {
		return o, nil
	}

	// The rate ladder, on a fresh daemon: the highest offered rate meeting
	// the latency limit. Its rungs are short, so it repeats only within
	// about a quarter on a noisy host and is not a bounded metric.
	d2, _, err := start(false)
	if err != nil {
		return nil, err
	}
	lload := newServeLoad(&cfg, env.seed+1)
	conns2, err := dialAll(d2.addr, cfg.Conns)
	if err != nil {
		return nil, err
	}
	nRung := 0
	rate, rungs := climb(cfg.LadderFrom, ladderStep, ladderRungs, ladderBisect, func(r float64) rung {
		nRung++
		ss := lload.phaseRun(conns2, fmt.Sprintf("rung%d", nRung), r, ladderRung)
		rg := judgeRung(ss.samples, cfg.LimitMs)
		time.Sleep(100 * time.Millisecond) // let the daemon's queues settle between rungs
		return rg
	})
	o.values["serve.ladder_rate_items_s"] = rate * float64(max(1, cfg.Batch))
	for _, rg := range rungs {
		o.note("ledger ladder %.1f req/s: tail p%.1f %.3f ms, failed %d, backlog %v, pass %v",
			rg.rate, float64(rg.tailPM)/10, rg.tail, rg.failed, rg.backlog, rg.pass)
	}
	closeAll(conns2)
	res2, err := d2.drain()
	if err != nil {
		return nil, err
	}
	lload.checkDrained(o, d2, res2)
	return o, nil
}

// latOf returns the latencies (ms) of a phase's successful requests whose
// kind is not among skip.
func latOf(p phase, skip ...int) []float64 {
	var out []float64
	for i, s := range p.samples {
		if !s.failed && !slices.Contains(skip, p.kinds[i]) {
			out = append(out, ms(s.lat))
		}
	}
	return out
}

func quantileOf(sorted []float64, pm int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return quantile(sorted, pm)
}

func dirBytes(dir, file string) int64 {
	var n int64
	_ = filepath.Walk(dir, func(p string, fi os.FileInfo, err error) error {
		if err == nil && !fi.IsDir() && fi.Name() == file {
			n += fi.Size()
		}
		return nil
	})
	return n
}
