package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/graph"
	"repro/internal/journal"
	"repro/internal/wire"
)

func chaosT(t *testing.T, spec string) *chaos.Injector {
	t.Helper()
	inj, err := chaos.Parse(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

func testRequest(seed int64) *wire.SolveRequest {
	g := graph.Harary(2, 16, graph.RandomWeights(randSource(seed), 30))
	return &wire.SolveRequest{Graph: wire.GraphToJSON(g), SolveSpec: wire.SolveSpec{Solver: "2ecss", Seed: seed}}
}

func pollJob(t *testing.T, ts *httptest.Server, id string, want string, timeout time.Duration) *wire.JobResponse {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		resp, body := getURL(t, ts.URL+"/v1/jobs/"+id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/jobs/%s = %d: %s", id, resp.StatusCode, body)
		}
		var out wire.JobResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if out.State == want {
			return &out
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q (want %q): %s", id, out.State, want, body)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// The drain-path satellite: with a solve in flight, StartDrain flips /readyz
// (but not /healthz), refuses new jobs with 503, and Drain completes within
// its deadline without dropping the in-flight job.
func TestDrainWithInflightSolve(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Workers:      1,
		SolveWorkers: 1,
		QueueDepth:   4,
		Chaos:        chaosT(t, "stall@worker.solve#1:250ms"),
	})

	resp, body := postJSON(t, ts.URL+"/v1/jobs", testRequest(41))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs = %d: %s", resp.StatusCode, body)
	}
	var jr wire.JobResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatal(err)
	}
	pollJob(t, ts, jr.ID, wire.JobRunning, 5*time.Second)

	s.StartDrain()
	if resp, _ := getURL(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz during drain = %d, want 503", resp.StatusCode)
	}
	if resp, _ := getURL(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Errorf("healthz during drain = %d, want 200", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/solve", testRequest(43)); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("new solve during drain = %d, want 503", resp.StatusCode)
	} else if resp.Header.Get("Retry-After") == "" {
		t.Error("503 during drain has no Retry-After")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain with in-flight solve: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 4*time.Second {
		t.Fatalf("drain took %v", elapsed)
	}
	// The in-flight job was not dropped: it finished and stays pollable.
	done := pollJob(t, ts, jr.ID, wire.JobDone, time.Second)
	if done.Result == nil || done.Result.ResultDigest == "" {
		t.Fatalf("drained job has no result: %+v", done)
	}
}

// A Drain whose context expires with work still in flight reports the
// interruption instead of hanging.
func TestDrainDeadlineInterrupts(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Workers:      1,
		SolveWorkers: 1,
		QueueDepth:   4,
		Chaos:        chaosT(t, "stall@worker.solve#1:400ms"),
	})
	resp, body := postJSON(t, ts.URL+"/v1/jobs", testRequest(47))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs = %d: %s", resp.StatusCode, body)
	}
	var jr wire.JobResponse
	json.Unmarshal(body, &jr)
	pollJob(t, ts, jr.ID, wire.JobRunning, 5*time.Second)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); err == nil || !strings.Contains(err.Error(), "drain interrupted") {
		t.Fatalf("short-deadline drain = %v, want interruption error", err)
	}
	// The job still completes; a later unbounded drain succeeds.
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("second drain: %v", err)
	}
	pollJob(t, ts, jr.ID, wire.JobDone, time.Second)
}

// The deadline satellite: a sync waiter past timeout_ms gets 504 while the
// solve continues and lands in the cache for the retry.
func TestDeadlinePropagation(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers:      1,
		SolveWorkers: 1,
		QueueDepth:   4,
		Chaos:        chaosT(t, "stall@worker.solve#1:250ms"),
	})
	req := testRequest(53)
	req.TimeoutMillis = 40

	resp, body := postJSON(t, ts.URL+"/v1/solve", req)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("timed-out solve = %d: %s", resp.StatusCode, body)
	}

	// While the single worker is still stalled, submit a job whose deadline
	// will have passed by the time it is claimed: it fails fast instead of
	// solving.
	late := testRequest(59)
	late.TimeoutMillis = 1
	resp, body = postJSON(t, ts.URL+"/v1/jobs", late)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs = %d: %s", resp.StatusCode, body)
	}
	var jr wire.JobResponse
	json.Unmarshal(body, &jr)

	// Retry the timed-out digest without a deadline: joins the still-running
	// flight (or hits the cache) and succeeds.
	req.TimeoutMillis = 0
	out := solveOK(t, ts, req)
	if !out.Cached {
		t.Errorf("retry after 504 got a cold solve; want the shared/cached result")
	}

	fin := pollJob(t, ts, jr.ID, wire.JobFailed, 5*time.Second)
	if !strings.Contains(fin.Error, "deadline exceeded") {
		t.Fatalf("late job error = %q, want deadline exceeded", fin.Error)
	}
}

// The client-disconnect satellite: a cancelled request context counts as a
// disconnect metric and does not abandon the shared solve.
func TestClientDisconnectDoesNotAbandonSolve(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Workers:      1,
		SolveWorkers: 1,
		QueueDepth:   4,
		Chaos:        chaosT(t, "stall@worker.solve#1:250ms"),
	})
	req := testRequest(61)
	raw, _ := json.Marshal(req)

	ctx, cancel := context.WithCancel(context.Background())
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/solve", strings.NewReader(string(raw)))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("Content-Type", "application/json")
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	if _, err := http.DefaultClient.Do(hr); err == nil {
		t.Fatal("cancelled request returned a response, want transport error")
	}

	// The solve keeps running: a fresh client gets the result, served from
	// the shared flight or the cache.
	out := solveOK(t, ts, req)
	if out.ResultDigest == "" {
		t.Fatal("post-disconnect solve has no result digest")
	}
	deadline := time.Now().Add(time.Second)
	for s.metrics.clientDisconnects.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("client disconnect was not counted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := s.metrics.clientDisconnects.Load(); got != 1 {
		t.Fatalf("clientDisconnects = %d, want 1", got)
	}
}

// A worker stalled past its lease TTL loses the job; with MaxAttempts 1 the
// expiry dead-letters it, visible to pollers, /v1/deadletters and metrics.
func TestLeaseExpiryDeadLetters(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Workers:      1,
		SolveWorkers: 1,
		QueueDepth:   4,
		LeaseTTL:     25 * time.Millisecond,
		MaxAttempts:  1,
		Chaos:        chaosT(t, "stall@worker.solve#1:200ms"),
	})
	resp, body := postJSON(t, ts.URL+"/v1/jobs", testRequest(67))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs = %d: %s", resp.StatusCode, body)
	}
	var jr wire.JobResponse
	json.Unmarshal(body, &jr)
	fin := pollJob(t, ts, jr.ID, wire.JobFailed, 5*time.Second)
	if !strings.Contains(fin.Error, "dead-lettered") {
		t.Fatalf("job error = %q, want dead-lettered", fin.Error)
	}

	resp, body = getURL(t, ts.URL+"/v1/deadletters")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/deadletters = %d", resp.StatusCode)
	}
	var dls wire.DeadLettersResponse
	if err := json.Unmarshal(body, &dls); err != nil {
		t.Fatal(err)
	}
	if len(dls.DeadLetters) != 1 || dls.DeadLetters[0].JobID != jr.ID || dls.DeadLetters[0].Reason != "lease expired" {
		t.Fatalf("dead letters = %+v, want one for %s (lease expired)", dls.DeadLetters, jr.ID)
	}
	if got := s.metrics.deadLetters.Load(); got != 1 {
		t.Errorf("deadLetters metric = %d, want 1", got)
	}
	if got := s.metrics.leaseExpirations.Load(); got != 1 {
		t.Errorf("leaseExpirations metric = %d, want 1", got)
	}
	// Give the stalled worker time to lose its completion race cleanly
	// before Cleanup closes the server.
	time.Sleep(250 * time.Millisecond)
}

// The tentpole's in-process restart path: jobs journaled by one incarnation
// are replayed by the next — finished jobs come back pollable with their
// cached results, unfinished jobs are re-enqueued and solved.
func TestJournalRestartRecoversJobs(t *testing.T) {
	dir := t.TempDir()
	wal := filepath.Join(dir, "journal.wal")

	s1, err := New(Config{
		Workers:      1,
		SolveWorkers: 1,
		QueueDepth:   8,
		JournalPath:  wal,
		Chaos:        chaosT(t, "stall@worker.solve#1:200ms"),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())

	reqA, reqB := testRequest(71), testRequest(73)
	// Job A is claimed (and stalls in the worker); job B waits behind it on
	// the single solve worker and is never claimed before Close.
	respA, bodyA := postJSON(t, ts1.URL+"/v1/jobs", reqA)
	if respA.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs A = %d: %s", respA.StatusCode, bodyA)
	}
	var jobA wire.JobResponse
	json.Unmarshal(bodyA, &jobA)
	pollJob(t, ts1, jobA.ID, wire.JobRunning, 5*time.Second)

	respB, bodyB := postJSON(t, ts1.URL+"/v1/jobs", reqB)
	if respB.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs B = %d: %s", respB.StatusCode, bodyB)
	}
	var jobB wire.JobResponse
	json.Unmarshal(bodyB, &jobB)

	// Close mid-flight: the stalled worker finishes A (its done record is
	// journaled); B is stranded with only its accepted record.
	ts1.Close()
	s1.Close()

	s2, err := New(Config{Workers: 1, SolveWorkers: 1, QueueDepth: 8, JournalPath: wal})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(func() {
		ts2.Close()
		s2.Close()
	})

	rep := s2.Replay()
	if rep.Completed != 1 || rep.Requeued != 1 {
		t.Fatalf("replay = %+v, want 1 completed, 1 requeued", rep)
	}

	// Job A survives the restart finished, under the same ID.
	finA := pollJob(t, ts2, jobA.ID, wire.JobDone, time.Second)
	// Job B is re-solved by the new incarnation.
	finB := pollJob(t, ts2, jobB.ID, wire.JobDone, 10*time.Second)

	// Results are byte-identical to fresh solves of the same requests.
	_, ts3 := newTestServer(t, Config{Workers: 1})
	wantA, wantB := solveOK(t, ts3, reqA), solveOK(t, ts3, reqB)
	if finA.Result.ResultDigest != wantA.ResultDigest || finA.Result.Digest != wantA.Digest {
		t.Errorf("replayed job A result digest %s, want %s", finA.Result.ResultDigest, wantA.ResultDigest)
	}
	if finB.Result.ResultDigest != wantB.ResultDigest || finB.Result.Digest != wantB.Digest {
		t.Errorf("re-solved job B result digest %s, want %s", finB.Result.ResultDigest, wantB.ResultDigest)
	}

	// Job A's replayed result repopulated the cache: a sync solve hits it
	// without a cold solve.
	out := solveOK(t, ts2, reqA)
	if !out.Cached {
		t.Errorf("solve of replayed digest was cold, want cache hit")
	}
	if cold := s2.metrics.solveLatency.count.Load(); cold != 1 {
		t.Errorf("second incarnation ran %d cold solves, want 1 (job B only)", cold)
	}
}

// A journaled request that today's decoder rejects (an older build accepted
// a vertex count beyond m+1) fails its own job on replay; the restart
// itself succeeds and the server keeps serving.
func TestJournalReplayRejectsStaleRequest(t *testing.T) {
	wal := filepath.Join(t.TempDir(), "journal.wal")
	j, _, err := journal.Open(wal, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	stale := json.RawMessage(`{"graph":{"n":100000000000,"edges":[]},"solver":"2ecss","seed":1}`)
	if err := j.Append(&journal.Record{Type: journal.TypeAccepted, JobID: "stale", Digest: "stale", Request: stale}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	s, ts := newTestServer(t, Config{Workers: 1, SolveWorkers: 1, JournalPath: wal})
	if rep := s.Replay(); rep.Requeued != 0 {
		t.Fatalf("replay = %+v, want the stale job not requeued", rep)
	}
	resp, body := getURL(t, ts.URL+"/v1/jobs/stale")
	var jr wire.JobResponse
	if err := json.Unmarshal(body, &jr); err != nil || jr.State != wire.JobFailed {
		t.Fatalf("stale job = %d %s, want state failed", resp.StatusCode, body)
	}
	if resp, body := postJSON(t, ts.URL+"/v1/solve", testRequest(89)); resp.StatusCode != http.StatusOK {
		t.Fatalf("solve after replay = %d: %s", resp.StatusCode, body)
	}
}

// Replay tolerates a torn tail (half-written accepted record): the torn job
// was never acked to a client, so dropping it is correct, and the journal
// keeps working after truncation.
func TestJournalRestartTornTail(t *testing.T) {
	dir := t.TempDir()
	wal := filepath.Join(dir, "journal.wal")

	s1, err := New(Config{Workers: 1, SolveWorkers: 1, JournalPath: wal})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	req := testRequest(79)
	if resp, body := postJSON(t, ts1.URL+"/v1/solve", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("solve = %d: %s", resp.StatusCode, body)
	}
	ts1.Close()
	s1.Close()

	// Tear the tail by hand: append garbage that looks like a half-written
	// record.
	f, err := os.OpenFile(wal, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe, 0xef, 0x01}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := New(Config{Workers: 1, SolveWorkers: 1, JournalPath: wal})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(func() {
		ts2.Close()
		s2.Close()
	})
	rep := s2.Replay()
	if rep.TornBytes != 5 {
		t.Fatalf("replay torn bytes = %d, want 5", rep.TornBytes)
	}
	if resp, body := getURL(t, ts2.URL+"/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz after torn replay = %d: %s", resp.StatusCode, body)
	}
	// The truncated journal still accepts appends.
	if resp, body := postJSON(t, ts2.URL+"/v1/jobs", testRequest(83)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs after torn replay = %d: %s", resp.StatusCode, body)
	}
}

// Duplicate async submissions of one digest share a single durable job: the
// journal records one accepted entry, and both clients get the same ID.
func TestAsyncSubmissionsShareOneJob(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers:      1,
		SolveWorkers: 1,
		QueueDepth:   8,
		Chaos:        chaosT(t, "stall@worker.solve#1:150ms"),
	})
	req := testRequest(89)
	_, body1 := postJSON(t, ts.URL+"/v1/jobs", req)
	_, body2 := postJSON(t, ts.URL+"/v1/jobs", req)
	var j1, j2 wire.JobResponse
	json.Unmarshal(body1, &j1)
	json.Unmarshal(body2, &j2)
	if j1.ID == "" || j1.ID != j2.ID {
		t.Fatalf("duplicate submissions got IDs %q and %q, want one shared ID", j1.ID, j2.ID)
	}
	fin := pollJob(t, ts, j1.ID, wire.JobDone, 5*time.Second)
	if fin.Result == nil {
		t.Fatal("shared job finished without a result")
	}
}
