package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sync"

	"dagsched/internal/cliflags"
	"dagsched/internal/sim"
	"dagsched/internal/workload"
)

// ReplayHeader is the first line of a replay log: everything needed to
// reconstruct the serving configuration offline. Speed is the rational in
// its "p/q" (or bare "p") string form, which ParseSpeed round-trips.
//
// Sharded sessions extend the header: Shards is the shard count (absent for
// the unsharded layout, keeping single-shard logs byte-identical to the
// historical format), and in a per-shard WAL header Shard is the 0-based
// owner while M is that shard's capacity slice. The front-door replay log
// keeps the total M and no Shard field; per-arrival route records map each
// job to its shard.
type ReplayHeader struct {
	Type   string  `json:"type"` // always "header"
	M      int     `json:"m"`
	Sched  string  `json:"sched"`
	Eps    float64 `json:"eps"`
	Speed  string  `json:"speed"`
	Shards int     `json:"shards,omitempty"`
	Shard  int     `json:"shard,omitempty"`
	// Commitment is the daemon-wide commitment policy, present only when it
	// is binding (delta or on-arrival). The non-binding policies do not
	// change admission or the schedule, so they stay off the header and old
	// logs replay unchanged.
	Commitment string `json:"commitment,omitempty"`
}

// routeRecord maps one replay-log job to the shard that committed it. It
// precedes the job's wire line; both are appended under one mutex hold, so
// the pair is adjacent even with shards interleaving. ReqID is present only
// when the client supplied an X-Request-Id, so a request can be traced from
// client logs through the route record to the owning shard.
type routeRecord struct {
	Type  string `json:"type"` // always "route"
	ID    int    `json:"id"`
	Shard int    `json:"shard"` // 0-based
	ReqID string `json:"reqId,omitempty"`
}

// replayWriter appends the header and one instance-wire job line per
// accepted arrival (preceded by a route record when sharded). Shard engine
// goroutines share it; the mutex serializes their appends.
type replayWriter struct {
	mu     sync.Mutex
	w      io.Writer
	shards int
}

func (rw *replayWriter) header(cfg Config) error {
	rw.mu.Lock()
	defer rw.mu.Unlock()
	return rw.writeLine(headerOf(cfg))
}

func (rw *replayWriter) appendJob(shard int, j *sim.Job, reqID string) error {
	data, err := workload.MarshalJob(j)
	if err != nil {
		return err
	}
	rw.mu.Lock()
	defer rw.mu.Unlock()
	if rw.shards > 1 {
		if err := rw.writeLine(routeRecord{Type: "route", ID: j.ID, Shard: shard, ReqID: reqID}); err != nil {
			return err
		}
	}
	data = append(data, '\n')
	_, err = rw.w.Write(data)
	return err
}

func (rw *replayWriter) writeLine(v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = rw.w.Write(data)
	return err
}

// ReadReplay parses a replay log back into its header and job set, in
// arrival order. Route records of a sharded log are consumed and dropped;
// use Replay to re-simulate shard by shard.
func ReadReplay(r io.Reader) (ReplayHeader, []*sim.Job, error) {
	h, jobs, _, err := readRouted(r)
	return h, jobs, err
}

// readRouted parses a replay log including its route records: shardOf maps
// job ID → shard for every job a route record covered.
func readRouted(r io.Reader) (ReplayHeader, []*sim.Job, map[int]int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var h ReplayHeader
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return h, nil, nil, err
		}
		return h, nil, nil, fmt.Errorf("serve: empty replay log")
	}
	if err := json.Unmarshal(sc.Bytes(), &h); err != nil {
		return h, nil, nil, fmt.Errorf("serve: replay header: %w", err)
	}
	if h.Type != "header" {
		return h, nil, nil, fmt.Errorf("serve: replay log starts with type %q, want header", h.Type)
	}
	var jobs []*sim.Job
	shardOf := make(map[int]int)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var tag struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(line, &tag); err == nil && tag.Type == "route" {
			var rr routeRecord
			if err := json.Unmarshal(line, &rr); err != nil {
				return h, nil, nil, fmt.Errorf("serve: replay route record: %w", err)
			}
			shardOf[rr.ID] = rr.Shard
			continue
		}
		j, err := workload.UnmarshalJob(line)
		if err != nil {
			return h, nil, nil, fmt.Errorf("serve: replay job %d: %w", len(jobs)+1, err)
		}
		jobs = append(jobs, j)
	}
	return h, jobs, shardOf, sc.Err()
}

// Replay re-simulates a replay log offline with the batch engine and returns
// the Result. Because each serving shard stamps releases from its own clock
// and assigns ascending IDs on its stripe inside its engine goroutine, the
// batch run over each shard's logged job set — on that shard's capacity
// slice — reproduces the shard's Result bit-identically, and the merged
// aggregate matches the daemon's drained Result. sim.RunAuto routes exactly
// as the serving sessions did, so even the Result.Engine label agrees.
func Replay(r io.Reader) (*sim.Result, error) {
	h, jobs, shardOf, err := readRouted(r)
	if err != nil {
		return nil, err
	}
	speed, err := cliflags.ParseSpeed(h.Speed)
	if err != nil {
		return nil, err
	}
	if h.Shards <= 1 {
		sched, err := cliflags.MakeScheduler(h.Sched, h.Eps, false)
		if err != nil {
			return nil, err
		}
		if err := applyCommitment(sched, h.Commitment); err != nil {
			return nil, err
		}
		return sim.RunAuto(sim.Config{M: h.M, Speed: speed}, jobs, sched)
	}
	byShard := make([][]*sim.Job, h.Shards)
	for _, j := range jobs {
		si, ok := shardOf[j.ID]
		if !ok {
			return nil, fmt.Errorf("serve: sharded replay log has no route record for job %d", j.ID)
		}
		if si < 0 || si >= h.Shards {
			return nil, fmt.Errorf("serve: job %d routed to shard %d of %d", j.ID, si, h.Shards)
		}
		byShard[si] = append(byShard[si], j)
	}
	part := cliflags.PartitionCapacity(h.M, h.Shards)
	results := make([]*sim.Result, h.Shards)
	for i, shardJobs := range byShard {
		sched, err := cliflags.MakeScheduler(h.Sched, h.Eps, false)
		if err != nil {
			return nil, err
		}
		if err := applyCommitment(sched, h.Commitment); err != nil {
			return nil, err
		}
		results[i], err = sim.RunAuto(sim.Config{M: part[i], Speed: speed}, shardJobs, sched)
		if err != nil {
			return nil, fmt.Errorf("serve: replay shard %d: %w", i, err)
		}
	}
	return mergeResults(results), nil
}

// mergeResults folds per-shard Results into the daemon-level aggregate.
// Additive fields sum; Ticks is the latest shard's end; Jobs concatenate
// sorted by ID (globally unique across the stripes). Every shard runs the
// same scheduler configuration, so they share one Engine label.
// Deterministic for a given result slice, and used identically by the drain
// path and the offline replayers, so served-vs-replayed comparisons stay
// bit-exact. A single result passes through untouched.
func mergeResults(rs []*sim.Result) *sim.Result {
	if len(rs) == 1 {
		return rs[0]
	}
	out := &sim.Result{
		Scheduler: rs[0].Scheduler,
		Speed:     rs[0].Speed,
		Engine:    rs[0].Engine,
	}
	for _, r := range rs {
		out.M += r.M
		out.Ticks = max(out.Ticks, r.Ticks)
		out.TotalProfit += r.TotalProfit
		out.OfferedProfit += r.OfferedProfit
		out.Completed += r.Completed
		out.Expired += r.Expired
		out.BusyProcTicks += r.BusyProcTicks
		out.IdleProcTicks += r.IdleProcTicks
		out.Jobs = append(out.Jobs, r.Jobs...)
	}
	slices.SortFunc(out.Jobs, func(a, b sim.JobStat) int { return a.ID - b.ID })
	return out
}
