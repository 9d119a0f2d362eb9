package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	kecss "repro"
	"repro/internal/graph"
	"repro/internal/scenario"
	"repro/internal/server"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// serveSpec is the serving workload: an open loop at a fixed offered rate
// against an in-process server (frontend fused with one agent) over
// loopback HTTP. Even-numbered requests are misses, each a
// distinct (graph, seed) never sent before; odd-numbered ones repeat an
// earlier request and should be served from the store.
type serveSpec struct {
	// families are the small scenarios/serve.json families; their scenario
	// seeds are re-derived from the workload seed.
	families []scenario.Scenario
	// instances is how many graphs each family contributes, so the mix
	// averages over several topologies per seed.
	instances int
	rate      float64 // offered requests per second, half misses and half hits
	warm      int     // distinct requests solved through the server in set-up
	// hitAge is how long a miss must have been due before hits may repeat
	// it, so a hit almost never joins an in-flight solve.
	hitAge time.Duration
	// traceJobs caps the misses whose job traces a traced run fetches.
	traceJobs int
}

func serveMix(tiny bool) serveSpec {
	s := serveSpec{
		families: []scenario.Scenario{
			{Name: "harary-2ecss", Family: "harary", N: 96, K: 2, MaxW: 40, Solver: "2ecss", Trials: 2},
			{Name: "random-kecss", Family: "random", N: 80, K: 3, Extra: 160, MaxW: 64, Solver: "kecss", Trials: 2},
			{Name: "fattree-3ecss", Family: "fattree", Pods: 6, K: 3, Solver: "3ecss", Trials: 1},
			{Name: "geometric-2ecss", Family: "geometric", N: 90, K: 2, Radius: 0.22, Solver: "2ecss", Trials: 2},
		},
		instances: 4,
		rate:      serveRate,
		warm:      64,
		hitAge:    500 * time.Millisecond,
		traceJobs: 400,
	}
	if tiny {
		s.instances, s.rate, s.warm, s.traceJobs = 1, 40, 8, 8
	}
	return s
}

// serveRate is the offered load in requests/s: 80 misses/s, at about
// 3.5 ms each with the journal on disk, keep the one connection that sends
// misses about a third busy (see WORKLOADS.md).
const serveRate = 160

// expected is the direct in-process solve of one distinct request.
type expected struct {
	resultDigest string
	weight       int64
}

// serveEnv is a built serving workload.
type serveEnv struct {
	spec    serveSpec
	seconds float64
	bodies  [][]byte   // distinct requests: warm set first, then the run's misses
	want    []expected // direct solve of each body
	bases   []*wire.SolveRequest
	// graphs and required are each base request's graph and the
	// connectivity its pool sweep checks before solving.
	graphs   []*graph.Graph
	required []int
	// hitTarget[h] is the body the h-th hit repeats.
	hitTarget []int
	dir       string // holds the job journal
	srv       *server.Server
	hs        *http.Server
	served    chan error
	base      string
	client    *http.Client
}

// sample is one request of the open loop.
type sample struct {
	seq       int // position in the schedule
	miss      bool
	body      int
	late      time.Duration // send time minus due time
	fromDue   time.Duration // completion minus due time
	rtt       time.Duration // completion minus send time
	ok        bool
	throttled bool
	cached    bool
	solveMS   float64
	resp      *wire.SolveResponse
	jobID     string
}

func newServeEnv(spec serveSpec, seed int64, seconds float64) (*serveEnv, error) {
	e := &serveEnv{spec: spec, seconds: seconds}
	if err := e.buildRequests(seed); err != nil {
		return nil, err
	}
	if err := e.solveDirect(); err != nil {
		return nil, err
	}
	if err := e.start(); err != nil {
		return nil, err
	}
	// Send the warm set: these misses fill the store so hits are available
	// from the first second, and open the client's connections.
	for i := 0; i < spec.warm; i++ {
		s := e.send(i, true)
		if !s.ok {
			e.close()
			return nil, fmt.Errorf("warm request %d failed", i)
		}
	}
	return e, nil
}

// misses is how many distinct misses a run of e.seconds schedules.
func (e *serveEnv) misses() int { return (e.requests() + 1) / 2 }

// requests is how many requests a run of e.seconds schedules.
func (e *serveEnv) requests() int { return int(e.spec.rate * e.seconds) }

// buildRequests generates the families' graphs from the workload seed and
// expands them into distinct requests by varying the solver seed, then
// draws which earlier request every hit repeats.
func (e *serveEnv) buildRequests(seed int64) error {
	for inst := 0; inst < e.spec.instances; inst++ {
		for i, sc := range e.spec.families {
			sc.Seed = mix(seed, 100+inst*len(e.spec.families)+i)
			f := scenario.File{Scenarios: []scenario.Scenario{sc}}
			reqs, err := f.Requests()
			if err != nil {
				return err
			}
			g, err := reqs[0].Graph.ToGraph()
			if err != nil {
				return err
			}
			solver, err := sc.SolverKind()
			if err != nil {
				return err
			}
			for range reqs {
				e.graphs = append(e.graphs, g)
				e.required = append(e.required, requiredFor(solver, sc.TargetK()))
			}
			e.bases = append(e.bases, reqs...)
		}
	}
	total := e.spec.warm + e.misses()
	e.bodies = make([][]byte, total)
	e.want = make([]expected, total)
	for i := range e.bodies {
		wr := *e.bases[i%len(e.bases)]
		wr.Seed += int64(i/len(e.bases)) * 1_000_003
		body, err := json.Marshal(&wr)
		if err != nil {
			return err
		}
		e.bodies[i] = body
	}
	rng := rand.New(rand.NewSource(mix(seed, 99)))
	agedMisses := int(e.spec.hitAge.Seconds() * e.spec.rate / 2)
	hits := e.requests() / 2
	e.hitTarget = make([]int, hits)
	for h := range e.hitTarget {
		known := e.spec.warm + max(h-agedMisses, 0)
		e.hitTarget[h] = rng.Intn(known)
	}
	return nil
}

// requiredFor is the connectivity a pool sweep checks before solving with
// solver (2-ECSS checks nothing up front).
func requiredFor(solver kecss.Solver, k int) int {
	switch solver {
	case kecss.SolverKECSS:
		return k
	case kecss.Solver3ECSSUnweighted, kecss.Solver3ECSSWeighted:
		return 3
	}
	return 0
}

// validateTime times the pool's pre-validation of g standalone: a capped
// EdgeConnectivityUpTo(k), averaged over a few calls.
func validateTime(g *graph.Graph, k int) time.Duration {
	if k == 0 {
		return 0
	}
	const reps = 5
	start := time.Now()
	for r := 0; r < reps; r++ {
		g.EdgeConnectivityUpTo(k)
	}
	return time.Since(start) / reps
}

// solveDirect computes every body's expected result with single-task
// sweeps on an in-process pool, exactly as the server's agent solves a job.
func (e *serveEnv) solveDirect() error {
	pool := kecss.NewPool(callers())
	defer pool.Close()
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, callers())
	for c := 0; c < callers(); c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(e.bodies); i = int(next.Add(1) - 1) {
				var wr wire.SolveRequest
				if err := json.Unmarshal(e.bodies[i], &wr); err != nil {
					errs[c] = err
					return
				}
				solver, err := kecss.ParseSolver(wr.Solver)
				if err != nil {
					errs[c] = err
					return
				}
				task := kecss.Task{Graph: e.graphs[i%len(e.graphs)], Solver: solver, K: wr.K, Opts: server.OptionsFromSpec(wr.SolveSpec)}
				res := pool.Sweep([]kecss.Task{task})[0]
				if res.Err != nil {
					errs[c] = fmt.Errorf("request %d: direct solve: %w", i, res.Err)
					return
				}
				e.want[i] = expected{
					resultDigest: wire.SolveResultDigest(res.Edges, res.Weight, res.Rounds),
					weight:       res.Weight,
				}
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// scratchRoot holds the serving workload's job journal, one fresh
// directory per set-up, relative to the directory the benchmark runs in.
var scratchRoot = filepath.Join(".bench_build", "serve")

// start opens the server, with its job journal on disk in a fresh
// directory, and serves it on loopback. The result store stays in memory:
// an on-disk store adds a file and a directory fsync to every miss, and on
// a shared virtual disk those swing miss latency between runs by more than
// any bound the benchmark may set (see WORKLOADS.md).
func (e *serveEnv) start() error {
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(scratchRoot, "run-")
	if err != nil {
		return err
	}
	srv, err := server.New(server.Config{
		Workers:     callers(),
		JournalPath: filepath.Join(dir, "journal.log"),
		// Keep every finished trace, so a traced run can fetch its
		// sampled jobs after the load ends.
		TraceRecent: 1 << 14,
	})
	if err != nil {
		os.RemoveAll(dir)
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		os.RemoveAll(dir)
		return err
	}
	e.dir = dir
	e.srv = srv
	e.base = "http://" + ln.Addr().String()
	e.hs = &http.Server{Handler: srv.Handler()}
	e.served = make(chan error, 1)
	go func() { e.served <- e.hs.Serve(ln) }()
	e.client = &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: callers(), MaxConnsPerHost: callers()},
	}
	return nil
}

// close stops the HTTP server, waits for its serve loop to return, and
// closes the server's agent, queue and journal, then removes the journal's
// directory.
func (e *serveEnv) close() {
	if e.hs == nil {
		return
	}
	e.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := e.hs.Shutdown(ctx); err != nil {
		e.hs.Close()
	}
	<-e.served
	e.srv.Close()
	os.RemoveAll(e.dir)
	e.hs = nil
}

// send posts one body and checks the served result against its direct
// solve: status 200, a self-consistent result digest, and the same digest
// and weight as the in-process solve.
func (e *serveEnv) send(body int, miss bool) sample {
	s := sample{miss: miss, body: body}
	resp, err := e.client.Post(e.base+"/v1/solve", "application/json", bytes.NewReader(e.bodies[body]))
	if err != nil {
		return s
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return s
	}
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
		s.throttled = true
		return s
	}
	if resp.StatusCode != http.StatusOK {
		return s
	}
	var out wire.SolveResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		return s
	}
	want := e.want[body]
	s.ok = out.ResultDigest == want.resultDigest && out.Weight == want.weight &&
		wire.SolveResultDigest(out.Edges, out.Weight, out.Rounds) == out.ResultDigest
	s.cached = out.Cached
	s.solveMS = out.SolveMillis
	s.jobID = resp.Header.Get("X-Kecss-Job")
	s.resp = &out
	return s
}

// load runs the open loop: request j is due at start + j/rate and timed
// from its due time. Misses (even j) and hits (odd j) are sent on their
// own connections when there are two or more clients, so a slow miss never
// holds a hit back in the client; they still share the server. Requests
// [from, to) of the schedule are sent; from must be even.
func (e *serveEnv) load(from, to int) ([]sample, time.Duration) {
	streams := min(callers(), 2)
	next := make([]atomic.Int64, streams)
	samples := make([]sample, to-from)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < callers(); c++ {
		wg.Add(1)
		go func(stream int) {
			defer wg.Done()
			for {
				j := from + stream + streams*int(next[stream].Add(1)-1)
				if j >= to {
					return
				}
				due := start.Add(time.Duration(float64(j-from) / e.spec.rate * float64(time.Second)))
				time.Sleep(time.Until(due))
				sent := time.Now()
				var s sample
				if j%2 == 0 {
					s = e.send(e.spec.warm+j/2, true)
				} else {
					s = e.send(e.hitTarget[j/2], false)
				}
				done := time.Now()
				s.seq, s.late, s.fromDue, s.rtt = j, sent.Sub(due), done.Sub(due), done.Sub(sent)
				samples[j-from] = s
			}
		}(c % streams)
	}
	wg.Wait()
	return samples, time.Since(start)
}

// loadStats summarises one stretch of the open loop.
type loadStats struct {
	missLat, hitLat, solveMS, late []float64
	// missBusy is the summed round trip of the misses, in seconds: how
	// long the connection that sends them was busy.
	missBusy                      float64
	failed, throttled, hitsServed int64
	lines                         []wire.ResultLine
}

func summarise(samples []sample) loadStats {
	var st loadStats
	for _, s := range samples {
		st.late = append(st.late, ms(s.late))
		if s.throttled {
			st.throttled++
		}
		if !s.ok {
			st.failed++
			continue
		}
		if s.miss {
			st.missLat = append(st.missLat, ms(s.fromDue))
			st.missBusy += s.rtt.Seconds()
			st.solveMS = append(st.solveMS, s.solveMS)
			st.lines = append(st.lines, wire.ResultLine{Task: s.body, Edges: s.resp.Edges, Weight: s.resp.Weight, Rounds: s.resp.Rounds})
		} else {
			st.hitLat = append(st.hitLat, ms(s.fromDue))
			if s.cached {
				st.hitsServed++
			}
		}
	}
	return st
}

// weightMean is the mean direct-solve weight of the scheduled misses.
func (e *serveEnv) weightMean() float64 {
	var sum float64
	for i := e.spec.warm; i < len(e.want); i++ {
		sum += float64(e.want[i].weight)
	}
	return sum / float64(max(len(e.want)-e.spec.warm, 1))
}

func (e *serveEnv) measure() *outcome {
	n := e.requests()
	meter := startAllocMeter()
	samples, elapsed := e.load(0, n)
	allocMB := meter.mbPerOp(int64(n))
	st := summarise(samples)
	// Each statistic is the trimmed mean over equal windows of the
	// schedule, so a transient stall on the machine moves one dropped
	// window, not the result.
	var capacity, missP50, missP90, hitP50, hitP90, solveP50, solveP90 []float64
	span := time.Duration(n)
	for _, w := range windowsOf(samples, func(s sample) time.Duration { return time.Duration(s.seq) }, span) {
		ws := summarise(w)
		capacity = append(capacity, float64(len(ws.missLat))/max(ws.missBusy, 1e-9))
		missP50 = append(missP50, percentile(ws.missLat, 0.5))
		missP90 = append(missP90, percentile(ws.missLat, 0.9))
		hitP50 = append(hitP50, percentile(ws.hitLat, 0.5))
		hitP90 = append(hitP90, percentile(ws.hitLat, 0.9))
		solveP50 = append(solveP50, percentile(ws.solveMS, 0.5))
		solveP90 = append(solveP90, percentile(ws.solveMS, 0.9))
	}
	return &outcome{
		attempted: int64(n + e.spec.warm),
		failed:    st.failed,
		digest:    wire.ResultDigest(st.lines),
		notes: []string{fmt.Sprintf("open loop at %.0f req/s for %.2fs from %d connections: %d misses, %d hits, generator late p99 %.3fms",
			e.spec.rate, elapsed.Seconds(), callers(), len(st.missLat), len(st.hitLat), percentile(st.late, 0.99))},
		metrics: map[string]metric{
			// The offered miss rate is fixed, so completed misses per
			// second would only echo it. Misses per second of the miss
			// connection's busy time is the rate one connection could
			// sustain sending them back to back.
			"solves_per_s":    {trimmedMean(capacity), "1/s"},
			"solve_p50_ms":    {trimmedMean(solveP50), "ms"},
			"solve_p90_ms":    {trimmedMean(solveP90), "ms"},
			"weight_mean":     {e.weightMean(), "weight"},
			"alloc_mb_per_op": {allocMB, "MB"},
			"miss_p50_ms":     {trimmedMean(missP50), "ms"},
			"miss_p90_ms":     {trimmedMean(missP90), "ms"},
			"hit_p50_ms":      {trimmedMean(hitP50), "ms"},
			"hit_p90_ms":      {trimmedMean(hitP90), "ms"},
		},
	}
}

// traced runs the first half of the schedule untraced and the second half
// sampling the job IDs of misses, then fetches their job traces and breaks
// each sampled miss down by serving stage and solver phase.
func (e *serveEnv) traced() (*outcome, error) {
	n := e.requests()
	half := n / 2 &^ 1
	plain, _ := e.load(0, half)
	fsyncSum0, fsyncs0, err := e.journalFsyncs()
	if err != nil {
		return nil, err
	}
	sampled, _ := e.load(half, n)
	fsyncSum1, fsyncs1, err := e.journalFsyncs()
	if err != nil {
		return nil, err
	}
	all := append(append([]sample(nil), plain...), sampled...)
	st := summarise(all)

	stages := map[string][]float64{}
	groups := make([][]float64, len(missGroups)+1)
	var unclaimed []float64
	var redeliveries int64
	b := newSolveBreakdown()
	var validate time.Duration
	jobs := 0
	for _, s := range sampled {
		if !s.ok || !s.miss || s.jobID == "" || jobs >= e.spec.traceJobs {
			continue
		}
		d, err := e.fetchTrace(s.jobID)
		if err != nil {
			return nil, err
		}
		if d == nil {
			continue
		}
		jobs++
		base := s.body % len(e.bases)
		validate += validateTime(e.graphs[base], e.required[base])
		per, solve, phases, claims := foldTrace(d)
		for name, v := range per {
			stages[name] = append(stages[name], v)
		}
		outside := ms(s.rtt) - float64(d.DurationNanos)/1e6
		unclaimed = append(unclaimed, outside)
		for g, grp := range missGroups {
			var sum float64
			for _, span := range grp.spans {
				sum += per[span]
			}
			groups[g] = append(groups[g], sum)
		}
		groups[len(missGroups)] = append(groups[len(missGroups)], outside)
		redeliveries += int64(max(claims-1, 0))
		if solve != nil {
			b.add(solve.DurationNanos(), phases)
		}
	}
	if jobs > 0 {
		b.validate = validate / time.Duration(jobs)
	}
	m := b.metrics()
	for name, key := range stageMetrics {
		m[name] = metric{median(stages[key]), "ms"}
	}
	decode, digest := e.wireTimes()
	m["server.http_unclaimed_ms"] = metric{median(unclaimed), "ms"}
	m["server.hit_ratio"] = metric{float64(st.hitsServed) / float64(max(len(st.hitLat), 1)), "ratio"}
	m["server.throttled"] = metric{float64(st.throttled), "count"}
	m["queue.redeliveries"] = metric{float64(redeliveries), "count"}
	m["wire.decode_us"] = metric{decode, "us"}
	m["wire.digest_us"] = metric{digest, "us"}
	m["loadgen.late_p99_ms"] = metric{percentile(st.late, 0.99), "ms"}
	// The server traces every job, so the halves differ only in reading
	// the job header: the ratio shows drift between them, not the cost of
	// tracing.
	sampledMisses := summarise(sampled).missLat
	m["trace.overhead_ratio"] = metric{median(sampledMisses) / median(summarise(plain).missLat), "ratio"}
	m["journal.fsync_ms"] = metric{1e3 * (fsyncSum1 - fsyncSum0) / float64(max(fsyncs1-fsyncs0, 1)), "ms"}
	m["journal.fsyncs_per_miss"] = metric{float64(fsyncs1-fsyncs0) / float64(max(len(sampledMisses), 1)), "count"}
	// Only the accepted record's append has a span; charge each further
	// append of a miss (lease, outcome) one mean fsync batch.
	unspanned := max(m["journal.fsyncs_per_miss"].Value-1, 0) * m["journal.fsync_ms"].Value
	for i := range groups[0] {
		groups[0][i] += unspanned
	}
	fillPerLayer(m)
	notes := append([]string{fmt.Sprintf("traced %d sampled misses; serving stages (p50 ms): http outside the trace %.3f (request decode %.3f), admission %.3f, journal.accept %.3f, enqueue %.3f, queue.wait %.3f, agent store.get %.3f, solve %.3f, agent store.put %.3f, frontend store.put %.3f",
		jobs, m["server.http_unclaimed_ms"].Value, decode/1e3, m["server.admission_ms"].Value, m["journal.accept_ms"].Value, m["queue.enqueue_ms"].Value, m["queue.wait_ms"].Value,
		m["store.get_ms"].Value, m["server.solve_ms"].Value, m["store.put_ms"].Value, m["server.frontend_store_put_ms"].Value),
		fmt.Sprintf("journal: %.2f fsync batches per miss, %.3f ms each (mean)", m["journal.fsyncs_per_miss"].Value, m["journal.fsync_ms"].Value),
		dominantGroup(groups)}, b.notes()...)
	return &outcome{
		attempted: int64(n + e.spec.warm),
		failed:    st.failed,
		digest:    wire.ResultDigest(st.lines),
		metrics:   m,
		notes:     notes,
	}, nil
}

// missGroups splits a sampled miss's job trace into layer groups, each
// summing the spans ("process/name") it names. The first group also takes
// the journal appends that have no span (see traced).
var missGroups = []struct {
	name  string
	spans []string
}{
	{"journal+store+queue", []string{"frontend/journal.accept", "frontend/enqueue", "frontend/queue.wait", "agent/store.get", "agent/store.put", "frontend/store.put"}},
	{"solve", []string{"agent/solve"}},
	{"admission", []string{"frontend/admission"}},
}

// dominantGroup names the layer group with the largest median time per
// sampled miss; groups[len(missGroups)] is HTTP outside the job trace.
func dominantGroup(groups [][]float64) string {
	names := make([]string, 0, len(groups))
	for _, g := range missGroups {
		names = append(names, g.name)
	}
	names = append(names, "http outside the trace")
	best := 0
	parts := make([]string, len(groups))
	for g := range groups {
		parts[g] = fmt.Sprintf("%s %.3f", names[g], median(groups[g]))
		if median(groups[g]) > median(groups[best]) {
			best = g
		}
	}
	return fmt.Sprintf("sampled misses by layer group (p50 ms): %s; dominant: %s", strings.Join(parts, ", "), names[best])
}

// journalFsyncs reads the server's journal fsync histogram from /metrics:
// the summed fsync time in seconds and the number of fsync batches.
func (e *serveEnv) journalFsyncs() (sum float64, count int64, err error) {
	resp, err := e.client.Get(e.base + "/metrics")
	if err != nil {
		return 0, 0, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, 0, err
	}
	found := 0
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "kecss_journal_fsync_seconds_sum "); ok {
			_, err = fmt.Sscan(v, &sum)
			found++
		} else if v, ok := strings.CutPrefix(line, "kecss_journal_fsync_seconds_count "); ok {
			_, err = fmt.Sscan(v, &count)
			found++
		}
		if err != nil {
			return 0, 0, fmt.Errorf("metrics: %q: %w", line, err)
		}
	}
	if found != 2 {
		return 0, 0, errors.New("metrics: no journal fsync histogram (is the journal on?)")
	}
	return sum, count, nil
}

// stageMetrics maps each serving-stage metric to its trace span, keyed
// "process/name" as foldTrace reports them.
var stageMetrics = map[string]string{
	"server.admission_ms":          "frontend/admission",
	"journal.accept_ms":            "frontend/journal.accept",
	"queue.enqueue_ms":             "frontend/enqueue",
	"queue.wait_ms":                "frontend/queue.wait",
	"store.get_ms":                 "agent/store.get",
	"server.solve_ms":              "agent/solve",
	"store.put_ms":                 "agent/store.put",
	"server.frontend_store_put_ms": "frontend/store.put",
}

// foldTrace sums one job trace's span durations by "process/name" (in ms),
// and returns the agent's solve span, the solver phase spans under it and
// the number of delivery attempts (claim spans).
func foldTrace(d *telemetry.Data) (map[string]float64, *telemetry.Span, []phaseRecord, int) {
	per := map[string]float64{}
	var solve *telemetry.Span
	claims := 0
	for i := range d.Spans {
		s := &d.Spans[i]
		if s.End == 0 {
			continue
		}
		per[s.Process+"/"+s.Name] += float64(s.DurationNanos()) / 1e6
		switch s.Name {
		case "solve":
			solve = s
		case "claim":
			claims++
		}
	}
	var phases []phaseRecord
	for _, s := range d.Spans {
		name, ok := strings.CutPrefix(s.Name, "phase.")
		if !ok || s.End == 0 || solve == nil || s.Parent != solve.ID {
			continue
		}
		r := phaseRecord{interval: interval{name, s.Start, s.End}}
		for _, a := range s.Attrs {
			switch a.Key {
			case "rounds":
				r.rounds = a.Int
			case "messages":
				r.messages = a.Int
			case "iterations":
				r.iterations = a.Int
			case "items":
				r.items = a.Int
			}
		}
		phases = append(phases, r)
	}
	return per, solve, phases, claims
}

// fetchTrace retrieves one finished job trace, retrying briefly while the
// frontend finalises it; nil if the server no longer holds it.
func (e *serveEnv) fetchTrace(jobID string) (*telemetry.Data, error) {
	for attempt := 0; ; attempt++ {
		resp, err := e.client.Get(e.base + "/v1/jobs/" + jobID + "/trace")
		if err != nil {
			return nil, err
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		if resp.StatusCode == http.StatusNotFound {
			return nil, nil
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("trace of job %s: status %d", jobID, resp.StatusCode)
		}
		var d telemetry.Data
		if err := json.Unmarshal(raw, &d); err != nil {
			return nil, fmt.Errorf("trace of job %s: %w", jobID, err)
		}
		if d.Complete || attempt >= 10 {
			return &d, nil
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// wireTimes times the request decode path (JSON into wire.SolveRequest,
// then the graph) and wire.Digest on the workload's distinct base request
// bodies, in microseconds per call.
func (e *serveEnv) wireTimes() (decode, digest float64) {
	const reps = 50
	bodies := e.bodies[:len(e.bases)]
	var dec, dig time.Duration
	for r := 0; r < reps; r++ {
		for _, body := range bodies {
			t0 := time.Now()
			var wr wire.SolveRequest
			if err := json.Unmarshal(body, &wr); err != nil {
				continue
			}
			g, err := wr.Graph.ToGraph()
			if err != nil {
				continue
			}
			t1 := time.Now()
			_ = wire.Digest(g, wr.SolveSpec)
			dig += time.Since(t1)
			dec += t1.Sub(t0)
		}
	}
	calls := float64(reps * len(bodies))
	return float64(dec.Nanoseconds()) / 1e3 / calls, float64(dig.Nanoseconds()) / 1e3 / calls
}
