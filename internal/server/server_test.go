package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	kecss "repro"
	"repro/internal/graph"
	"repro/internal/wire"
)

func randSource(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func solveOK(t *testing.T, ts *httptest.Server, req *wire.SolveRequest) *wire.SolveResponse {
	t.Helper()
	resp, body := postJSON(t, ts.URL+"/v1/solve", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/solve = %d: %s", resp.StatusCode, body)
	}
	var out wire.SolveResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("bad solve response: %v", err)
	}
	return &out
}

// The end-to-end equivalence satellite: for every solver, results served
// over HTTP — cold and from cache — are byte-identical to the direct
// in-process serial API with the same seed and options.
func TestServedResultsMatchDirectSolves(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	g2 := graph.Harary(2, 18, graph.RandomWeights(randSource(3), 40))
	g3 := graph.Harary(3, 16, graph.RandomWeights(randSource(5), 25))

	cases := []struct {
		name   string
		graph  *graph.Graph
		spec   wire.SolveSpec
		direct func() (edges []int, weight, rounds int64, err error)
	}{
		{
			name:  "2ecss",
			graph: g2,
			spec:  wire.SolveSpec{Solver: "2ecss", Seed: 11},
			direct: func() ([]int, int64, int64, error) {
				r, err := kecss.Solve2ECSS(g2, kecss.WithSeed(11))
				if err != nil {
					return nil, 0, 0, err
				}
				return r.Edges, r.Weight, r.Rounds, nil
			},
		},
		{
			name:  "kecss",
			graph: g3,
			spec:  wire.SolveSpec{Solver: "kecss", K: 3, Seed: 13, SimulateMST: true},
			direct: func() ([]int, int64, int64, error) {
				r, err := kecss.SolveKECSS(g3, 3, kecss.WithSeed(13), kecss.WithSimulatedMST())
				if err != nil {
					return nil, 0, 0, err
				}
				return r.Edges, r.Weight, r.Rounds, nil
			},
		},
		{
			name:  "3ecss",
			graph: g3,
			spec:  wire.SolveSpec{Solver: "3ecss", Seed: 17},
			direct: func() ([]int, int64, int64, error) {
				r, err := kecss.Solve3ECSSUnweighted(g3, kecss.WithSeed(17))
				if err != nil {
					return nil, 0, 0, err
				}
				return r.Edges, r.Weight, r.Rounds, nil
			},
		},
		{
			name:  "3ecss-weighted",
			graph: g3,
			spec:  wire.SolveSpec{Solver: "3ecss-weighted", Seed: 19},
			direct: func() ([]int, int64, int64, error) {
				r, err := kecss.Solve3ECSSWeighted(g3, kecss.WithSeed(19))
				if err != nil {
					return nil, 0, 0, err
				}
				return r.Edges, r.Weight, r.Rounds, nil
			},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			edges, weight, rounds, err := tc.direct()
			if err != nil {
				t.Fatalf("direct solve: %v", err)
			}
			wantDigest := wire.SolveResultDigest(edges, weight, rounds)
			req := &wire.SolveRequest{Graph: wire.GraphToJSON(tc.graph), SolveSpec: tc.spec}

			cold := solveOK(t, ts, req)
			if cold.Cached {
				t.Fatal("first solve claimed to be cached")
			}
			hot := solveOK(t, ts, req)
			if !hot.Cached {
				t.Fatal("second identical solve missed the cache")
			}
			for _, got := range []*wire.SolveResponse{cold, hot} {
				if !reflect.DeepEqual(got.Edges, edges) || got.Weight != weight || got.Rounds != rounds {
					t.Errorf("served result differs from direct solve:\n  got  %v w=%d r=%d\n  want %v w=%d r=%d",
						got.Edges, got.Weight, got.Rounds, edges, weight, rounds)
				}
				if got.ResultDigest != wantDigest {
					t.Errorf("result digest %s, want %s", got.ResultDigest, wantDigest)
				}
			}
		})
	}
}

func TestBackpressure429(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	// Occupy the only queue slot so the next cache-miss is shed.
	s.sem <- struct{}{}
	g := graph.Harary(2, 12, graph.UnitWeights())
	req := &wire.SolveRequest{Graph: wire.GraphToJSON(g), SolveSpec: wire.SolveSpec{Solver: "2ecss", Seed: 1}}
	resp, body := postJSON(t, ts.URL+"/v1/solve", req)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full queue: status = %d (%s), want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}
	// Async submission is shed the same way.
	resp, _ = postJSON(t, ts.URL+"/v1/jobs", req)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full queue: jobs status = %d, want 429", resp.StatusCode)
	}
	// Freeing the slot restores service.
	<-s.sem
	if out := solveOK(t, ts, req); out.Cached {
		t.Error("first post-backpressure solve should be cold")
	}
}

func TestAsyncJobs(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	g := graph.Harary(3, 14, graph.UnitWeights())
	req := &wire.SolveRequest{Graph: wire.GraphToJSON(g), SolveSpec: wire.SolveSpec{Solver: "3ecss", Seed: 23}}

	resp, body := postJSON(t, ts.URL+"/v1/jobs", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs = %d: %s", resp.StatusCode, body)
	}
	var jr wire.JobResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for jr.State != wire.JobDone && jr.State != wire.JobFailed {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %q", jr.State)
		}
		time.Sleep(5 * time.Millisecond)
		getResp, getBody := getURL(t, ts.URL+"/v1/jobs/"+jr.ID)
		if getResp.StatusCode != http.StatusOK {
			t.Fatalf("GET job = %d: %s", getResp.StatusCode, getBody)
		}
		jr = wire.JobResponse{}
		if err := json.Unmarshal(getBody, &jr); err != nil {
			t.Fatal(err)
		}
	}
	if jr.State != wire.JobDone || jr.Result == nil {
		t.Fatalf("job finished as %q (err %q)", jr.State, jr.Error)
	}

	// The async result matches the sync path (which now hits the cache).
	sync := solveOK(t, ts, req)
	if !sync.Cached {
		t.Error("sync solve after the job should be a cache hit")
	}
	if sync.ResultDigest != jr.Result.ResultDigest || !reflect.DeepEqual(sync.Edges, jr.Result.Edges) {
		t.Error("async and sync results diverge")
	}

	// A second job for the same digest is born done from the cache.
	resp, body = postJSON(t, ts.URL+"/v1/jobs", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second POST /v1/jobs = %d", resp.StatusCode)
	}
	var jr2 wire.JobResponse
	if err := json.Unmarshal(body, &jr2); err != nil {
		t.Fatal(err)
	}
	if jr2.State != wire.JobDone || jr2.Result == nil || !jr2.Result.Cached {
		t.Fatalf("cached-job state = %q, want born-done from cache", jr2.State)
	}

	// Unknown job IDs 404.
	if resp, _ := getURL(t, ts.URL+"/v1/jobs/nope"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job = %d, want 404", resp.StatusCode)
	}
}

func TestRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	ring := graph.Cycle(10, graph.UnitWeights())

	post := func(body string) int {
		resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("{not json"); code != http.StatusBadRequest {
		t.Errorf("malformed JSON = %d, want 400", code)
	}
	if code := post(`{"solver":"2ecss"}`); code != http.StatusBadRequest {
		t.Errorf("missing graph = %d, want 400", code)
	}
	if code := post(`{"graph":{"n":3,"edges":[[0,1,1]]},"solver":"frobnicate"}`); code != http.StatusBadRequest {
		t.Errorf("unknown solver = %d, want 400", code)
	}
	if code := post(`{"graph":{"n":3,"edges":[[0,1,1]]},"solver":"kecss","k":0}`); code != http.StatusBadRequest {
		t.Errorf("kecss k=0 = %d, want 400", code)
	}
	if code := post(`{"graph":{"n":3,"edges":[[0,0,1]]},"solver":"2ecss"}`); code != http.StatusBadRequest {
		t.Errorf("self-loop = %d, want 400", code)
	}
	// A 60-byte body must not make the server allocate per-vertex state for
	// 10^11 vertices: the vertex count is bounded by the edge count.
	if code := post(`{"graph":{"n":100000000000,"edges":[]},"solver":"2ecss"}`); code != http.StatusBadRequest {
		t.Errorf("huge n = %d, want 400", code)
	}
	// Well-formed but unsolvable: a ring is not 3-edge-connected.
	req := &wire.SolveRequest{Graph: wire.GraphToJSON(ring), SolveSpec: wire.SolveSpec{Solver: "3ecss", Seed: 1}}
	resp, body := postJSON(t, ts.URL+"/v1/solve", req)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("unsolvable input = %d (%s), want 422", resp.StatusCode, body)
	}
}

func TestHealthMetricsAndDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	g := graph.Harary(2, 10, graph.UnitWeights())
	req := &wire.SolveRequest{Graph: wire.GraphToJSON(g), SolveSpec: wire.SolveSpec{Solver: "2ecss", Seed: 2}}

	if resp, body := getURL(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(`"ok"`)) {
		t.Fatalf("healthz = %d %s", resp.StatusCode, body)
	}
	solveOK(t, ts, req) // cold
	solveOK(t, ts, req) // hit

	_, body := getURL(t, ts.URL+"/metrics")
	for _, want := range []string{
		`kecss_requests_total{path="/v1/solve",code="200"} 2`,
		"kecss_cache_hits_total 1",
		"kecss_cache_misses_total 1",
		"kecss_cache_entries 1",
		`kecss_store_hits_total{tier="mem"} 1`,
		`kecss_store_hits_total{tier="disk"} 0`,
		"kecss_store_puts_total",
		"kecss_store_misses_total",
		"kecss_solve_seconds_count 1",
		"kecss_request_seconds_count 2",
		"kecss_queue_capacity 4",
	} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("metrics missing %q in:\n%s", want, body)
		}
	}

	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// Liveness vs readiness: draining flips /readyz to 503 while /healthz
	// stays 200 (the process is alive and still serves cache hits).
	if resp, _ := getURL(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz while draining = %d, want 503", resp.StatusCode)
	}
	if resp, body := getURL(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(`"draining"`)) {
		t.Errorf("healthz while draining = %d %s, want 200 draining", resp.StatusCode, body)
	}
	// Cache hits are still served during drain; new work is refused.
	if out := solveOK(t, ts, req); !out.Cached {
		t.Error("cached result not served during drain")
	}
	fresh := &wire.SolveRequest{Graph: wire.GraphToJSON(g), SolveSpec: wire.SolveSpec{Solver: "2ecss", Seed: 99}}
	if resp, _ := postJSON(t, ts.URL+"/v1/solve", fresh); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("cold solve while draining = %d, want 503", resp.StatusCode)
	}
	s.Close()
	s.Close() // idempotent
	if resp, _ := getURL(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz after close = %d, want 503", resp.StatusCode)
	}
}

// Concurrent identical cache-misses are deduplicated: exactly one cold
// solve runs, everyone gets byte-identical results.
func TestSingleFlightDeduplication(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 2})
	g := graph.Harary(2, 20, graph.RandomWeights(randSource(7), 30))
	req := &wire.SolveRequest{Graph: wire.GraphToJSON(g), SolveSpec: wire.SolveSpec{Solver: "2ecss", Seed: 31}}

	const clients = 8
	type outcome struct {
		resp *wire.SolveResponse
		err  error
	}
	outcomes := make(chan outcome, clients)
	for i := 0; i < clients; i++ {
		go func() {
			raw, _ := json.Marshal(req)
			resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(raw))
			if err != nil {
				outcomes <- outcome{err: err}
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				body, _ := io.ReadAll(resp.Body)
				outcomes <- outcome{err: fmt.Errorf("status %d: %s", resp.StatusCode, body)}
				return
			}
			var out wire.SolveResponse
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				outcomes <- outcome{err: err}
				return
			}
			outcomes <- outcome{resp: &out}
		}()
	}
	var first *wire.SolveResponse
	cold := 0
	for i := 0; i < clients; i++ {
		o := <-outcomes
		if o.err != nil {
			t.Fatal(o.err)
		}
		if !o.resp.Cached {
			cold++
		}
		if first == nil {
			first = o.resp
		} else if !reflect.DeepEqual(first.Edges, o.resp.Edges) || first.ResultDigest != o.resp.ResultDigest {
			t.Error("deduplicated clients got different results")
		}
	}
	if cold != 1 {
		t.Errorf("%d cold solves for %d identical concurrent requests, want exactly 1", cold, clients)
	}
	if got := s.metrics.solveLatency.count.Load(); got != 1 {
		t.Errorf("solve histogram recorded %d cold solves, want 1", got)
	}
	// Every request is accounted exactly once: 1 miss (the flight leader),
	// the rest hits — never both.
	hits, misses := s.metrics.cacheHits.Load(), s.metrics.cacheMisses.Load()
	if misses != 1 || hits+misses != clients {
		t.Errorf("metrics hits=%d misses=%d for %d requests, want misses=1 and hits+misses=%d",
			hits, misses, clients, clients)
	}
}

func getURL(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}
