package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"dagsched/internal/cliflags"
	"dagsched/internal/serve"
	"dagsched/internal/sim"
	"dagsched/internal/telemetry"
	"dagsched/internal/workload"
)

// serveLayers derives the daemon's per-layer means for a phase from the
// /metrics scrapes at its boundaries, and names the part of the client's
// round trip the server's own HTTP histogram does not explain.
func serveLayers(o *outcome, name string, cfg *serveConfig, s0, s1 scrape, svcMs []float64, walBytes int64, p phase) {
	route := `route="jobs"`
	if cfg.Batch > 0 {
		route = `route="jobs_batch"`
	}
	// items counts submitted items (for the WAL and idempotency ratios);
	// work counts every item the daemon handled, reads too (for CPU).
	var items, work float64
	for i, k := range p.kinds {
		work += float64(p.items[i])
		if k != opRead {
			items += float64(p.items[i])
		}
	}
	reqUs := histMean(s0.m, s1.m, "serve_http_request_us", route)
	var svcUs float64
	for _, v := range svcMs {
		svcUs += v * 1000
	}
	if len(svcMs) > 0 {
		svcUs /= float64(len(svcMs))
	}
	wall := s1.proc.at.Sub(s0.proc.at).Seconds()
	cpuUs := float64(s1.proc.cpu-s0.proc.cpu) / float64(time.Microsecond)
	v := o.values
	v["serve.http.request_us"] = reqUs
	v["serve.http.residual_us"] = svcUs - reqUs
	if work > 0 {
		v["serve.cpu_us_per_item"] = cpuUs / work
	}
	v["serve.mailbox.wait_us"] = histMean(s0.m, s1.m, "serve_mailbox_wait_us")
	v["serve.clock.jumps_per_s"] = delta(s0.m, s1.m, "serve_clock_jumps_total") / wall
	v["serve.clock.ticks_per_jump"] = histMean(s0.m, s1.m, "serve_clock_jump_ticks")
	v["serve.engine.submit_us"] = histMean(s0.m, s1.m, "serve_submit_engine_us")
	v["serve.engine.group_us"] = histMean(s0.m, s1.m, "serve_batch_engine_us")
	if groups := delta(s0.m, s1.m, "serve_batch_engine_us_count"); groups > 0 {
		v["serve.engine.items_per_group"] = items / groups
	}
	v["serve.wal.append_us"] = histMean(s0.m, s1.m, "serve_wal_append_us")
	v["serve.wal.fsync_us"] = histMean(s0.m, s1.m, "serve_wal_fsync_us")
	if items > 0 {
		v["serve.wal.fsyncs_per_item"] = delta(s0.m, s1.m, "serve_wal_fsync_us_count") / items
		v["serve.idem.replay_frac"] = delta(s0.m, s1.m, "serve_idempotent_replays_total") / items
	}
	if recs := s1.m.sum("serve_wal_records"); recs > 0 {
		v["serve.wal.bytes_per_item"] = float64(walBytes) / recs
	}
	if routed := delta(s0.m, s1.m, "serve_placer_decisions_total"); routed > 0 {
		v["serve.placer.spill_frac"] = delta(s0.m, s1.m, "serve_placer_decisions_total", `decision="spill"`) / routed
	}
	v["serve.live_jobs"] = s1.m.sum("serve_live_jobs")
	v["serve.parked_depth"] = s1.m.sum("serve_parked_depth")
	if verdicts := delta(s0.m, s1.m, "serve_submissions_total"); verdicts > 0 {
		v["core.admit_frac"] = delta(s0.m, s1.m, "serve_submissions_total", `verdict="admitted"`) / verdicts
		v["core.park_frac"] = delta(s0.m, s1.m, "serve_submissions_total", `verdict="parked"`) / verdicts
		v["core.reject_frac"] = delta(s0.m, s1.m, "serve_submissions_total", `verdict="rejected"`) / verdicts
	}
	o.note("ledger %s layers (means per request, us): client round trip %.1f = server http %.1f + residual %.1f; "+
		"mailbox wait %.1f, engine submit %.1f, engine group %.1f (%.1f items), wal append %.1f, fsync %.1f; daemon cpu %.1f us/item",
		name, svcUs, reqUs, svcUs-reqUs, v["serve.mailbox.wait_us"], v["serve.engine.submit_us"],
		v["serve.engine.group_us"], v["serve.engine.items_per_group"], v["serve.wal.append_us"],
		v["serve.wal.fsync_us"], v["serve.cpu_us_per_item"])
}

// joinSpans joins the client's request spans with the daemon's
// /debug/requests stage spans by X-Request-Id and splits the mean round
// trip into the daemon's stages plus a named residual (loopback, kernel,
// and the client's own reads).
func joinSpans(o *outcome, doc []byte, p phase, reqID func(int) string) {
	var ct telemetry.ChromeTrace
	if err := json.Unmarshal(doc, &ct); err != nil {
		o.problem("/debug/requests: %v", err)
		return
	}
	stages := make(map[string]map[string]float64) // reqId → stage → µs
	for _, ev := range ct.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		id, _ := ev.Args["reqId"].(string)
		if id == "" {
			continue
		}
		if stages[id] == nil {
			stages[id] = make(map[string]float64)
		}
		stages[id][ev.Name] += float64(ev.Dur)
	}
	sums := make(map[string]float64)
	var joined int
	var residual float64
	for i, s := range p.samples {
		st := stages[reqID(i)]
		if st == nil || s.failed {
			continue
		}
		joined++
		server := 0.0
		for name, us := range st {
			sums[name] += us
			server += us
		}
		residual += float64(s.svc)/float64(time.Microsecond) - server
	}
	if joined == 0 {
		return
	}
	mean := func(name string) float64 { return sums[name] / float64(joined) }
	v := o.values
	v["serve.trace.joined_frac"] = float64(joined) / float64(len(p.samples))
	v["serve.trace.residual_us"] = residual / float64(joined)
	v["serve.stage.queue_us"] = mean("received→dequeued")
	v["serve.stage.admit_wal_us"] = mean("dequeued→wal_appended") + mean("dequeued→committed")
	v["serve.stage.commit_us"] = mean("wal_appended→committed")
	v["serve.stage.reply_us"] = mean("committed→replied")
	names := make([]string, 0, len(sums))
	for n := range sums {
		names = append(names, n)
	}
	sort.Strings(names)
	line := fmt.Sprintf("ledger spans (%d joined requests, mean us):", joined)
	for _, n := range names {
		line += fmt.Sprintf(" %s %.1f;", n, mean(n))
	}
	o.note("%s residual %.1f", line, v["serve.trace.residual_us"])
}

// depthSampler polls /metrics through a traced phase for the deepest shard
// mailbox it sees.
type depthSampler struct {
	stopC chan struct{}
	done  sync.WaitGroup
	max   float64
}

func startDepthSampler(d *daemon) *depthSampler {
	s := &depthSampler{stopC: make(chan struct{})}
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stopC:
				return
			case <-tick.C:
			}
			body, err := d.get(d.addr, "/metrics")
			if err != nil {
				continue
			}
			for k, v := range parseProm(body) {
				if strings.HasPrefix(k, "serve_mailbox_depth{") && v > s.max {
					s.max = v
				}
			}
		}
	}()
	return s
}

func (s *depthSampler) stop() float64 {
	close(s.stopC)
	s.done.Wait()
	return s.max
}

// replayCore re-runs a drained daemon's durable history, shard by shard,
// through Scheduler S wrapped in the timing scheduler, and reports the
// admission cost per arrival at the queue sizes the daemon saw. The daemon
// itself is not instrumented; this replay re-executes its exact decisions.
func replayCore(o *outcome, walDir string) error {
	dirs := []string{walDir}
	if sub, _ := filepath.Glob(filepath.Join(walDir, "shard-*")); len(sub) > 0 {
		dirs = sub
	}
	var total span
	var jobs int
	for _, dir := range dirs {
		cp, err := readCheckpoint(filepath.Join(dir, "checkpoint.json"))
		if err != nil {
			return err
		}
		js := make([]*sim.Job, 0, len(cp.Jobs))
		for _, wj := range cp.Jobs {
			j, err := workload.UnmarshalJob(wj.Job)
			if err != nil {
				return err
			}
			js = append(js, j)
		}
		inner, err := cliflags.MakeScheduler(cp.Header.Sched, cp.Header.Eps, false)
		if err != nil {
			return err
		}
		speed, err := cliflags.ParseSpeed(cp.Header.Speed)
		if err != nil {
			return err
		}
		ts := &timedScheduler{inner: inner}
		if _, err := sim.RunAuto(sim.Config{M: cp.Header.M, Speed: speed}, js, ts); err != nil {
			return err
		}
		total.n += ts.arrival.n
		total.d += ts.arrival.d
		jobs += len(js)
	}
	o.values["core.on_arrival_us"] = total.meanUs()
	o.note("ledger core (offline replay of %d logged jobs): S.OnArrival %.2f us per arrival beside engine group %.1f us for %.1f items",
		jobs, total.meanUs(), o.values["serve.engine.group_us"], o.values["serve.engine.items_per_group"])
	return nil
}

// readCheckpoint reads one shard's checkpoint file: a single WAL-framed
// record, "<crc32c hex> <json>".
func readCheckpoint(path string) (*serve.Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	data = bytes.TrimRight(data, "\n")
	if len(data) < 10 || data[8] != ' ' {
		return nil, fmt.Errorf("%s: unframed checkpoint", path)
	}
	var cp serve.Checkpoint
	if err := json.Unmarshal(data[9:], &cp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &cp, nil
}
