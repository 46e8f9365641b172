package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// postRaw submits a body with optional headers and decodes the error body.
func postRaw(t *testing.T, ts *httptest.Server, body string, headers map[string]string) (int, errorResponse) {
	t.Helper()
	req, err := http.NewRequest("POST", ts.URL+"/v1/jobs", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var er errorResponse
	if resp.StatusCode != http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
			t.Fatalf("non-200 body is not an errorResponse: %v", err)
		}
	}
	return resp.StatusCode, er
}

// TestHTTPSubmitErrorTable covers the POST /v1/jobs failure surface: every
// non-200 answer is application/json with a non-empty {"error": ...} body.
func TestHTTPSubmitErrorTable(t *testing.T) {
	_, ts := newTestServer(t, Config{M: 2, MaxBodyBytes: 512})

	cases := []struct {
		name       string
		body       string
		headers    map[string]string
		want       int
		wantReason string
		errHas     string
	}{
		{name: "not json", body: `{nope`, want: 400, wantReason: reasonBadRequest},
		{name: "unknown field", body: `{"w":1,"l":1,"deadline":3,"profit":1,"bogus":true}`, want: 400, wantReason: reasonBadRequest},
		{name: "missing curve", body: `{"w":4,"l":2}`, want: 400, wantReason: reasonBadRequest},
		{name: "w below l", body: `{"w":2,"l":4,"deadline":9,"profit":1}`, want: 400, wantReason: reasonBadRequest},
		{name: "empty body", body: ``, want: 400, wantReason: reasonBadRequest},
		{name: "json array", body: `[1,2,3]`, want: 400, wantReason: reasonBadRequest},
		{name: "bad profit object", body: `{"w":4,"l":2,"profit":{"type":"warp"}}`, want: 400, wantReason: reasonBadRequest},
		{name: "bad commitment", body: `{"w":4,"l":2,"deadline":9,"profit":1,"commitment":"always"}`, want: 400, wantReason: reasonBadRequest},
		{
			name:       "oversized body",
			body:       `{"w":4,"l":2,"deadline":9,"profit":1,"pad":"` + strings.Repeat("x", 600) + `"}`,
			want:       413,
			wantReason: reasonTooLarge,
			errHas:     "exceeds",
		},
		{
			name:       "idempotency key too long",
			body:       `{"w":4,"l":2,"deadline":9,"profit":1}`,
			headers:    map[string]string{"Idempotency-Key": strings.Repeat("k", 200)},
			want:       400,
			wantReason: reasonBadRequest,
			errHas:     "idempotency key",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, er := postRaw(t, ts, tc.body, tc.headers)
			if code != tc.want {
				t.Fatalf("code = %d, want %d (error %q)", code, tc.want, er.Error)
			}
			if er.Error == "" {
				t.Fatal("error body is empty")
			}
			if er.Reason != tc.wantReason {
				t.Fatalf("reason = %q, want %q", er.Reason, tc.wantReason)
			}
			if tc.errHas != "" && !strings.Contains(er.Error, tc.errHas) {
				t.Fatalf("error %q does not mention %q", er.Error, tc.errHas)
			}
		})
	}
}

// TestErrorEnvelopeEverySurface is the wire contract for failures: every
// 4xx/5xx the daemon can produce — submit, status, batch (top-level and
// per-item), drain, readiness — answers the same {"error", "reason"} envelope
// with a machine-readable reason token.
func TestErrorEnvelopeEverySurface(t *testing.T) {
	srv, ts := newTestServer(t, Config{M: 2, MaxBodyBytes: 512})

	get := func(path string) (int, errorResponse) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var er errorResponse
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
			t.Fatalf("GET %s body is not an errorResponse: %v", path, err)
		}
		return resp.StatusCode, er
	}

	if code, er := get("/v1/jobs/notanumber"); code != 400 || er.Reason != reasonBadRequest || er.Error == "" {
		t.Errorf("bad job id: code=%d body=%+v, want 400 %s", code, er, reasonBadRequest)
	}
	if code, er := get("/v1/jobs/99999"); code != 404 || er.Reason != reasonNotFound || er.Error == "" {
		t.Errorf("unknown job: code=%d body=%+v, want 404 %s", code, er, reasonNotFound)
	}

	// Batch: a top-level failure carries the envelope...
	resp, err := http.Post(ts.URL+"/v1/jobs:batch", "application/json", strings.NewReader(`{"not":"an array"}`))
	if err != nil {
		t.Fatal(err)
	}
	var er errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 || er.Reason != reasonBadRequest || er.Error == "" {
		t.Errorf("batch top-level: code=%d body=%+v, want 400 %s", resp.StatusCode, er, reasonBadRequest)
	}

	// ...and a failed item inside a 200 batch carries the same pair.
	resp, err = http.Post(ts.URL+"/v1/jobs:batch", "application/json",
		strings.NewReader(`[{"w":4,"l":2,"deadline":9,"profit":1},{"w":2,"l":4,"deadline":9,"profit":1}]`))
	if err != nil {
		t.Fatal(err)
	}
	var br BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || len(br.Items) != 2 {
		t.Fatalf("batch: code=%d items=%d", resp.StatusCode, len(br.Items))
	}
	if it := br.Items[0]; it.Status != 200 || it.Error != "" || it.Reason != "" {
		t.Errorf("good item carries error fields: %+v", it)
	}
	if it := br.Items[1]; it.Status != 400 || it.Error == "" || it.Reason != reasonBadRequest {
		t.Errorf("bad item: %+v, want 400 with error and reason %s", it, reasonBadRequest)
	}

	// Drain: submissions and readiness both report the envelope.
	srv.Drain()
	if code, er := postRaw(t, ts, `{"w":4,"l":2,"deadline":9,"profit":1}`, nil); code != 503 || er.Reason != reasonDraining || er.Error == "" {
		t.Errorf("post-drain submit: code=%d body=%+v, want 503 %s", code, er, reasonDraining)
	}
	if code, er := get("/readyz"); code != 503 || er.Reason != reasonDraining || er.Error == "" {
		t.Errorf("post-drain readyz: code=%d body=%+v, want 503 %s", code, er, reasonDraining)
	}
}

// TestHTTPBackpressureBody asserts the 429 body shape, not just the code.
func TestHTTPBackpressureBody(t *testing.T) {
	s := &Server{cfg: Config{M: 1, QueueDepth: 1}}
	sh := &shard{srv: s, m: 1, stride: 1, reqs: make(chan any, 1), engineDone: make(chan struct{})}
	s.shards = []*shard{sh}
	s.placer = newPlacer(s.shards)
	sh.reqs <- struct{}{} // mailbox full, engine "busy"
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, er := postRaw(t, ts, `{"w":4,"l":2,"deadline":9,"profit":1}`, nil)
	if code != 429 {
		t.Fatalf("code = %d, want 429", code)
	}
	if er.Error != "submission queue full" || er.Reason != reasonQueueFull {
		t.Fatalf("429 body = %+v", er)
	}
}

// TestHTTPDrainBody asserts the 503 shape during and after drain, and the
// liveness/readiness split around it.
func TestHTTPDrainBody(t *testing.T) {
	srv, ts := newTestServer(t, Config{M: 1})
	srv.Drain()

	code, er := postRaw(t, ts, `{"w":4,"l":2,"deadline":9,"profit":1}`, nil)
	if code != 503 || er.Error != "draining" {
		t.Fatalf("post-drain submit: code=%d body=%+v", code, er)
	}
	if code := getJSON(t, ts.URL+"/healthz", nil); code != 200 {
		t.Fatalf("healthz after drain = %d, want 200 (still live)", code)
	}
	var ready map[string]string
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Fatalf("readyz after drain = %d, want 503", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&ready); err != nil {
		t.Fatal(err)
	}
	if ready["reason"] != "draining" {
		t.Fatalf("readyz body = %+v, want reason draining", ready)
	}
}

// TestHTTPDegradedSurfaces forces a durability failure and checks the daemon
// stops acknowledging, fails readiness and liveness, and reports the cause.
func TestHTTPDegradedSurfaces(t *testing.T) {
	dir := t.TempDir()
	srv, drain := newDurableServer(t, dir, nil)
	defer drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if code, _ := postRaw(t, ts, `{"w":8,"l":2,"deadline":30,"profit":2}`, nil); code != 200 {
		t.Fatalf("healthy submit: code=%d", code)
	}

	// Sabotage the WAL fd so the next append cannot be made durable.
	srv.shards[0].wal.f.Close()
	code, er := postRaw(t, ts, `{"w":8,"l":2,"deadline":30,"profit":2}`, nil)
	if code != 503 || !strings.Contains(er.Error, "degraded") {
		t.Fatalf("submit over broken WAL: code=%d body=%+v", code, er)
	}
	if got := srv.Degraded(); !strings.Contains(got, "wal append") {
		t.Fatalf("Degraded() = %q", got)
	}
	if code := getJSON(t, ts.URL+"/healthz", nil); code != 503 {
		t.Fatalf("healthz degraded = %d, want 503", code)
	}
	if code := getJSON(t, ts.URL+"/readyz", nil); code != 503 {
		t.Fatalf("readyz degraded = %d, want 503", code)
	}
	var stats StatsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &stats); code != 200 {
		t.Fatalf("stats while degraded = %d", code)
	}
	if stats.Degraded == "" || stats.Ready {
		t.Fatalf("stats = ready=%v degraded=%q", stats.Ready, stats.Degraded)
	}
	if stats.Telemetry.Counters["serve.degraded_events"] == 0 {
		t.Fatal("degraded_events counter not bumped")
	}
}

// TestReplayLogErrorDegrades covers the satellite bugfix: a replay-log write
// failure is no longer swallowed — it surfaces as a degraded daemon.
func TestReplayLogErrorDegrades(t *testing.T) {
	srv, ts := newTestServer(t, Config{M: 2, ReplayLog: &failAfterWriter{n: 1}})

	// The header consumed the one successful write; the first job append fails.
	code, _ := postRaw(t, ts, `{"w":8,"l":2,"deadline":30,"profit":2}`, nil)
	if code != 200 {
		t.Fatalf("submit: code=%d (the job itself was committed)", code)
	}
	if got := srv.Degraded(); !strings.Contains(got, "replay log append") {
		t.Fatalf("Degraded() = %q, want replay log append failure", got)
	}
	if code := getJSON(t, ts.URL+"/healthz", nil); code != 503 {
		t.Fatalf("healthz after replay-log failure = %d, want 503", code)
	}
	var stats StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if stats.Telemetry.Counters["serve.replay_error"] != 1 {
		t.Fatalf("serve.replay_error = %v, want 1", stats.Telemetry.Counters["serve.replay_error"])
	}
}

// failAfterWriter accepts n writes and fails every one after.
type failAfterWriter struct{ n int }

func (f *failAfterWriter) Write(p []byte) (int, error) {
	if f.n > 0 {
		f.n--
		return len(p), nil
	}
	return 0, errDiskGone
}

var errDiskGone = &diskError{"disk gone"}

type diskError struct{ msg string }

func (e *diskError) Error() string { return e.msg }

// errReader fails every read, standing in for a client that drops the
// connection mid-body.
type errReader struct{}

func (errReader) Read([]byte) (int, error) { return 0, errors.New("connection reset") }

// TestHTTPSubmitEarlyExitsTraced: the submission route's exits that answer
// before reaching a shard — an over-long Idempotency-Key, a body that fails
// to read or exceeds the limit, and a body that fails to decode — still
// deposit a request trace (exported on /debug/requests) and an HTTP latency
// sample, like every other exit.
func TestHTTPSubmitEarlyExitsTraced(t *testing.T) {
	srv, _ := newTestServer(t, Config{M: 2, MaxBodyBytes: 512})
	samples := func() int64 {
		if h := srv.metrics.snapshot().Hist("serve.http.jobs_us"); h != nil {
			return h.Count
		}
		return 0
	}
	valid := `{"w":4,"l":2,"deadline":9,"profit":1}`
	cases := []struct {
		name string
		body io.Reader
		key  string
		want int
	}{
		{"key too long", strings.NewReader(valid), strings.Repeat("k", maxIdempotencyKeyLen+1), 400},
		{"body read error", errReader{}, "", 400},
		{"body too large", strings.NewReader(strings.Repeat(" ", 600) + valid), "", 413},
		{"decode error", strings.NewReader(`{"w":4,"bogus":1}`), "", 400},
	}
	var ids []string
	for i, tc := range cases {
		reqID := fmt.Sprintf("early-exit-%d", i)
		ids = append(ids, reqID)
		t.Run(tc.name, func(t *testing.T) {
			before := samples()
			req := httptest.NewRequest("POST", "/v1/jobs", tc.body)
			req.Header.Set("X-Request-Id", reqID)
			if tc.key != "" {
				req.Header.Set("Idempotency-Key", tc.key)
			}
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, req)
			if rec.Code != tc.want {
				t.Fatalf("code = %d, want %d (%s)", rec.Code, tc.want, rec.Body)
			}
			if got := samples(); got != before+1 {
				t.Errorf("latency samples %d -> %d, want one more", before, got)
			}
			var found bool
			for _, rt := range srv.traces.Snapshot() {
				if rt.ID == reqID {
					found = true
					if rt.Shard != -1 || rt.JobID != 0 {
						t.Errorf("trace shard=%d job=%d, want no shard and no job", rt.Shard, rt.JobID)
					}
				}
			}
			if !found {
				t.Fatalf("request %s not in the trace ring", reqID)
			}
		})
	}
	rec := httptest.NewRecorder()
	srv.DebugHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/requests", nil))
	for _, id := range ids {
		if !strings.Contains(rec.Body.String(), id) {
			t.Errorf("request %s missing from /debug/requests", id)
		}
	}
}
