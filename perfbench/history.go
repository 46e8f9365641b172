package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"dagsched/internal/serve"
)

// historyConfig is the durable-history workload: an in-process daemon on a
// clock the benchmark advances, so the history is the same on every run.
type historyConfig struct {
	M       int        `json:"m"`
	Jobs    int        `json:"jobs"`     // accepted jobs in the history (H)
	PerTick float64    `json:"per_tick"` // submissions per simulated tick
	W       [2]int64   `json:"w"`
	L       [2]int64   `json:"l"`
	Dead    [2]int64   `json:"deadline"`
	Profit  [2]float64 `json:"profit"`
}

func (c *historyConfig) serveConfig(dir string) serve.Config {
	// The WAL is not fsynced: this workload measures what grows with
	// history (checkpoint, recovery, heap), not the disk.
	return serve.Config{M: c.M, TickInterval: -1, WALDir: dir, Fsync: serve.FsyncOff, QueueDepth: 1024}
}

// history is one built history: the live daemon holding it and its crash
// copy at H/2.
type history struct {
	srv       *serve.Server
	dir       string
	accepted  int64
	submitted int64
	verdicts  map[serve.DecisionString]int64
	buildTime time.Duration // submitting and advancing, checkpoints excluded
	buildCPU  time.Duration // process CPU time of serve.New and the same
	ckHalf    time.Duration
	copyHalf  string
}

// buildHistory submits jobs through the daemon's HTTP handler until H are
// accepted, advancing the clock PerTick submissions per tick so the live
// set stays steady while the history grows. At H/2 it checkpoints and
// copies the WAL directory, as a crash would leave it.
func buildHistory(env *runEnv, cfg *historyConfig) (*history, error) {
	h := &history{dir: filepath.Join(env.work, "history"), verdicts: make(map[serve.DecisionString]int64)}
	cpu0 := selfCPU()
	srv, err := serve.New(cfg.serveConfig(h.dir))
	if err != nil {
		return nil, err
	}
	h.srv = srv
	handler := srv.Handler()
	sc := serveConfig{W: cfg.W, L: cfg.L, Deadline: cfg.Dead, Profit: cfg.Profit}
	rng := rand.New(rand.NewSource(env.seed))
	var clock int64
	var owed float64
	t0 := time.Now()
	for h.accepted < int64(cfg.Jobs) {
		req := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(sc.drawSpec(rng).json("")))
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		h.submitted++
		if rec.Code != http.StatusOK {
			srv.Drain()
			return nil, fmt.Errorf("history submit: %d %s", rec.Code, rec.Body.Bytes())
		}
		var resp serve.JobResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			srv.Drain()
			return nil, err
		}
		h.verdicts[resp.Decision]++
		if resp.Decision != serve.DecisionRejected {
			h.accepted++
			if h.accepted == int64(cfg.Jobs/2) {
				c0, ccpu0 := time.Now(), selfCPU()
				if err := srv.Checkpoint(); err != nil {
					srv.Drain()
					return nil, err
				}
				h.ckHalf = time.Since(c0)
				h.copyHalf = h.dir + "-half"
				if err := copyDir(h.dir, h.copyHalf); err != nil {
					srv.Drain()
					return nil, err
				}
				t0 = t0.Add(time.Since(c0))
				cpu0 += selfCPU() - ccpu0
			}
		}
		if owed++; owed >= cfg.PerTick {
			owed -= cfg.PerTick
			clock++
			srv.Advance(clock)
		}
	}
	h.buildTime, h.buildCPU = time.Since(t0), selfCPU()-cpu0
	return h, nil
}

// cycle is one crash-restart: the wall and process CPU time of the
// checkpoint and of the recovery, and the live heap the recovered daemon
// adds.
type cycle struct {
	ck, rec       time.Duration
	ckCPU, recCPU time.Duration
	heap          int64
}

// restart is one crash-restart of the full history: checkpoint the live
// daemon, copy its WAL directory as a crash would leave it, and recover a
// new daemon from the copy. Each step starts from a collected heap, so the
// cycles are alike.
func restart(env *runEnv, cfg *historyConfig, h *history, n int) (*serve.Server, string, cycle, error) {
	var c cycle
	runtime.GC()
	t0, cpu0 := time.Now(), selfCPU()
	if err := h.srv.Checkpoint(); err != nil {
		return nil, "", c, err
	}
	c.ck, c.ckCPU = time.Since(t0), selfCPU()-cpu0
	crash := filepath.Join(env.work, fmt.Sprintf("crash-%d", n))
	if err := copyDir(h.dir, crash); err != nil {
		return nil, "", c, err
	}
	srv, err := recoverCopy(cfg, crash, &c)
	return srv, crash, c, err
}

// recoverCopy times serve.New recovering dir into c, with the live heap it
// adds (between two collections).
func recoverCopy(cfg *historyConfig, dir string, c *cycle) (*serve.Server, error) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0, cpu0 := time.Now(), selfCPU()
	srv, err := serve.New(cfg.serveConfig(dir))
	c.rec, c.recCPU = time.Since(t0), selfCPU()-cpu0
	if err != nil {
		return nil, err
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	c.heap = int64(m1.HeapAlloc) - int64(m0.HeapAlloc)
	return srv, nil
}

func runHistory(env *runEnv) (*outcome, error) {
	var cfg historyConfig
	if err := loadConfig(env, "history-recovery", &cfg); err != nil {
		return nil, err
	}
	o := newOutcome()

	t0 := time.Now()
	// The yardstick runs just before and just after the build, so set-up is
	// scaled by the host's speed while it ran.
	yardBuild := yardstickUs(3)
	h, err := buildHistory(env, &cfg)
	if err != nil {
		return nil, err
	}
	yardBuild = (yardBuild + yardstickUs(3)) / 2
	defer h.srv.Drain()
	o.attempted = h.submitted

	// One op is a crash-restart of the full history: a checkpoint and a
	// recovery. Restarts repeat until the run's time is spent, at least five
	// times. The op's CPU time per recovered job is the bounded metric.
	// The yardstick measures the host's speed just before and just after
	// each restart, and the restart's CPU time is scaled by their mean.
	var ops, opCPU, opRef, cks, recs, yard []float64
	var heap, ckBytes int64
	jobs := float64(h.accepted)
	for n := 0; n < 5 || time.Since(t0).Seconds() < env.seconds; n++ {
		y0 := yardstickUs(3)
		srv, crash, c, err := restart(env, &cfg, h, n)
		if err != nil {
			return nil, err
		}
		y := (y0 + yardstickUs(3)) / 2
		yard = append(yard, y)
		ops = append(ops, ms(c.ck+c.rec))
		opCPU = append(opCPU, float64(c.ckCPU+c.recCPU)/float64(time.Microsecond)/jobs)
		opRef = append(opRef, atRefSpeed(opCPU[len(opCPU)-1], y, yardstickRefUs))
		cks = append(cks, c.ck.Seconds())
		recs = append(recs, c.rec.Seconds())
		if n == 0 {
			heap = c.heap
			ckBytes = dirBytes(crash, "checkpoint.json")
			if info := srv.Recovery(); info == nil || int64(info.Jobs) != h.accepted {
				o.problem("recovery restored %+v, %d jobs were accepted", info, h.accepted)
			}
			res := srv.Drain()
			replayed, err := serve.ReplayDir(crash)
			if err != nil {
				return nil, err
			}
			a, b := *res, *replayed
			a.Engine, b.Engine = "", ""
			aj, _ := json.Marshal(&a)
			bj, _ := json.Marshal(&b)
			if !bytes.Equal(aj, bj) {
				o.problem("recovered drain differs from the offline replay of the WAL")
			}
			o.values["profit_frac"] = res.ProfitFraction()
		} else {
			srv.Drain()
		}
		os.RemoveAll(crash)
	}
	var half cycle
	srvHalf, err := recoverCopy(&cfg, h.copyHalf, &half)
	if err != nil {
		return nil, err
	}
	srvHalf.Drain()
	recHalf := half.rec

	op := summarize(ops)
	v := o.values
	v["op_p50_ms"] = op.p50
	v["op_p90_ms"] = op.p90
	// Set-up is building the history: its process CPU time, the harness's
	// requests included. (Under a millisecond of serve.New on an empty
	// directory did not repeat within a quarter from run to run.)
	v["cpu_us_per_item"] = median(opRef)
	v["setup_s"] = atRefSpeed(h.buildCPU.Seconds(), yardBuild, yardstickRefUs)
	o.note("ledger cpu: %.2f us per recovered job, set-up %.3f s; yardstick %.0f us (restarts), %.0f us (build) against %d for the reference speed; at the reference speed %.2f us/job, set-up %.3f s",
		median(opCPU), h.buildCPU.Seconds(), median(yard), yardBuild, yardstickRefUs, v["cpu_us_per_item"], v["setup_s"])
	v["peak_rss_mb"] = float64(selfHWM()) / (1 << 20)
	v["serve.checkpoint_s"] = median(cks)
	v["serve.checkpoint.s_half"] = h.ckHalf.Seconds()
	v["serve.checkpoint.bytes_per_job"] = float64(ckBytes) / jobs
	v["serve.recovery_s"] = median(recs)
	v["serve.recovery.s_half"] = recHalf.Seconds()
	v["serve.recovery.us_per_job"] = median(recs) * 1e6 / jobs
	v["serve.heap_bytes_per_job"] = float64(heap) / jobs
	total := float64(h.submitted)
	v["core.admit_frac"] = float64(h.verdicts[serve.DecisionAdmitted]) / total
	v["core.park_frac"] = float64(h.verdicts[serve.DecisionParked]) / total
	v["core.reject_frac"] = float64(h.verdicts[serve.DecisionRejected]) / total
	o.note("ledger history-recovery: H=%d accepted of %d submitted at %.0f submissions/s; %d crash-restarts, median %.3fs = "+
		"checkpoint %.3fs (%.3fs at H/2, %.0f B/job) + recovery %.3fs (%.3fs at H/2); heap %.0f B/job",
		h.accepted, h.submitted, float64(h.submitted)/h.buildTime.Seconds(), len(ops), op.p50/1000, median(cks), h.ckHalf.Seconds(),
		v["serve.checkpoint.bytes_per_job"], median(recs), recHalf.Seconds(), v["serve.heap_bytes_per_job"])
	return o, nil
}

func selfHWM() int64 {
	ps, err := readProc(os.Getpid())
	if err != nil {
		return 0
	}
	return ps.hwm
}

// copyDir copies a WAL directory tree (regular files only).
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(p string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if fi.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(p)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}
