// Package server implements kecss-serve as a thin frontend plus stateless
// solver agents over a pluggable broker and a durable content-addressed
// result store.
//
// The frontend owns everything durable and client-facing: the HTTP API,
// admission control, the single-flight job table, the write-ahead journal
// and the result store. Agents own only compute: each runs a kecss.Pool
// and a claim → solve → store put → complete loop against a queue.Broker.
// In the default fused mode ("all") one in-process Agent consumes the
// local broker directly — today's single-binary behavior. In split mode
// the frontend runs with -mode frontend and any number of cmd/kecss-agent
// processes attach over HTTP (the /broker/v1 mount, always available), so
// solve capacity scales out without moving any durable state.
//
// Endpoints:
//
//	POST /v1/solve        solve synchronously (wire.SolveRequest → wire.SolveResponse)
//	POST /v1/jobs         enqueue an async solve (202 + wire.JobResponse)
//	GET  /v1/jobs/{id}    poll an async solve
//	GET  /v1/deadletters  jobs that exhausted their retry budget (?limit=N)
//	GET  /healthz         liveness (503 only once the server is closed)
//	GET  /readyz          readiness (503 during replay, drain and shutdown)
//	GET  /metrics         Prometheus text metrics
//	*    /broker/v1/...   the broker API remote agents consume (httpbroker)
//
// Every request is content-addressed by wire.Digest(graph, spec); because
// the solver stack is deterministic in (graph, spec), a digest hit is
// served from the store with byte-identical results to a fresh solve —
// and with Config.StoreDir set the store survives restarts, so yesterday's
// solves are this morning's cache hits.
//
// # The job layer
//
// A store miss does not solve inline. It becomes a job: journaled to the
// write-ahead log (when Config.JournalPath is set), enqueued on the
// broker, and solved by whichever agent claims it under a TTL lease. Sync
// requests block on the job's completion; async requests poll it.
// Concurrent identical misses share one job (single-flight by digest),
// and a client that disconnects mid-solve does not abandon the job — the
// solve completes into the store for the waiters and the future.
//
// Agents that stall past the lease TTL lose the lease and the job is
// redelivered with capped exponential backoff; a job that exhausts its
// retry budget is dead-lettered (visible at /v1/deadletters) and reported
// to its waiters as a 503. Admission is bounded: beyond Config.QueueDepth
// in-flight jobs the server sheds load with 429 + Retry-After scaled to
// the backlog, rather than queueing unboundedly.
//
// # Crash safety
//
// With a journal configured, every accepted job is durable before its
// 202/200 is written: accepted → leased → done/failed records are
// fsync-batched to the log, and startup replay reconstructs the job table
// — finished jobs come back pollable with their results (which also
// repopulate the result store), unfinished jobs are re-enqueued and solved
// again. Completions are deduplicated per job ID, so a job accepted once
// is journaled done exactly once even across lease expiries, duplicate
// deliveries, agent SIGKILLs and restarts. Agents hold no durable state
// at all: killing one mid-solve costs a lease expiry, never an acked job.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	kecss "repro"
	"repro/internal/chaos"
	"repro/internal/journal"
	"repro/internal/queue"
	"repro/internal/queue/httpbroker"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Config sizes a Server. The zero value gets sensible defaults from New.
type Config struct {
	// Workers is the solver pool size (0 = GOMAXPROCS).
	Workers int
	// SolveWorkers is how many queue-consumer goroutines run solves
	// (0 = pool workers).
	SolveWorkers int
	// CacheSize is the maximum number of cached results (0 = 4096;
	// negative disables the cache).
	CacheSize int
	// QueueDepth bounds how many jobs may be in flight (queued, delayed or
	// running) before the server answers 429 (0 = 4×workers).
	QueueDepth int
	// JobHistory bounds how many finished async jobs stay pollable
	// (0 = 1024). Oldest finished jobs are evicted first.
	JobHistory int
	// JournalPath enables the durable job journal; empty keeps the job
	// layer ephemeral (the queue still runs, nothing survives a restart).
	JournalPath string
	// LeaseTTL is how long a worker may hold a job before it is
	// redelivered (0 = 30s).
	LeaseTTL time.Duration
	// MaxAttempts is the delivery budget before a job is dead-lettered
	// (0 = 5).
	MaxAttempts int
	// BackoffBase and BackoffMax shape the redelivery backoff
	// (0 = 50ms / 5s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Seed drives the queue's retry jitter.
	Seed int64
	// Chaos is the fault-injection plan (nil in production).
	Chaos *chaos.Injector
	// Mode selects what this process runs: "all" (default) fuses the
	// frontend with one in-process agent; "frontend" runs only the HTTP
	// API, journal and store — solves wait for remote agents to attach
	// via /broker/v1.
	Mode string
	// StoreDir is the durable result-store root; empty keeps results in
	// memory only (they die with the process, as the pre-store cache did).
	StoreDir string
	// Logger receives structured logs keyed by job_id/digest/attempt; nil
	// discards them (tests, benchmarks).
	Logger *slog.Logger
	// TraceRecent and TraceSlow bound the finished-trace retention sets
	// (0 = 256 recent / 32 slowest).
	TraceRecent int
	TraceSlow   int
}

// Server is the HTTP solve service. Create with New, mount Handler, stop
// with Drain (stop accepting, wait for in-flight jobs) then Close.
type Server struct {
	cfg       Config
	agent     *Agent        // fused in-process agent; nil in frontend mode
	store     *store.Store  // durable (or memory-only) result store
	sem       chan struct{} // admission tokens for new jobs
	metrics   *metrics
	jobs      *jobStore
	queue     *queue.Queue // the raw local queue
	broker    queue.Broker // journaling wrapper over queue; what agents consume
	brokerAPI *httpbroker.Server
	jnl       *journal.Journal // nil when ephemeral
	inj       *chaos.Injector
	start     time.Time
	replay    ReplayInfo
	traces    *telemetry.Registry
	log       *slog.Logger

	// drainMu makes admission atomic with the draining flag: ensureJob
	// holds it shared around (check draining, Add to inflight), Drain holds
	// it exclusively while setting the flag — so once Drain owns the flag,
	// no late admission can Add to a WaitGroup that Drain is Waiting on.
	drainMu  sync.RWMutex
	draining atomic.Bool
	closed   atomic.Bool
	inflight sync.WaitGroup // every unfinished job

	flightMu sync.Mutex
	flight   map[string]*job // guarded by flightMu; digest → active job (single-flight)

	closeOnce sync.Once
}

// ReplayInfo summarizes what startup recovered from the journal.
type ReplayInfo struct {
	// Records is how many valid journal records were replayed.
	Records int
	// Completed is how many finished jobs (done or failed) came back.
	Completed int
	// Requeued is how many unfinished jobs were re-enqueued.
	Requeued int
	// TornBytes is the size of the truncated torn tail (0 = clean).
	TornBytes int64
}

// solveError is a solve failure with its HTTP classification. retryable
// marks transient failures the queue should redeliver (pool shutdown mid-
// solve) as opposed to permanent input errors.
type solveError struct {
	code      int
	msg       string
	retryable bool
}

// maxBodyBytes bounds request bodies; a million-edge graph is ~20 MB of
// JSON, well inside this.
const maxBodyBytes = 64 << 20

// New starts a Server with its work queue, result store and (when
// configured) journal and fused agent; journal replay happens here, so
// once New returns the server is ready.
func New(cfg Config) (*Server, error) {
	switch cfg.Mode {
	case "", "all", "frontend":
	default:
		return nil, fmt.Errorf("server: unknown mode %q (want all or frontend)", cfg.Mode)
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if cfg.CacheSize == 0 {
		cfg.CacheSize = 4096
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4 * workers
	}
	if cfg.JobHistory <= 0 {
		cfg.JobHistory = 1024
	}
	if cfg.SolveWorkers <= 0 {
		cfg.SolveWorkers = workers
	}
	cacheSize := cfg.CacheSize
	if cacheSize < 0 {
		cacheSize = 0 // negative disables the memory tier
	}
	st, err := store.Open(store.Options{
		Dir:       cfg.StoreDir,
		CacheSize: cacheSize,
		Decode:    DecodeStoredResponse,
		Inject:    cfg.Chaos,
	})
	if err != nil {
		return nil, err
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	s := &Server{
		cfg:     cfg,
		store:   st,
		sem:     make(chan struct{}, cfg.QueueDepth),
		metrics: newMetrics(),
		jobs:    newJobStore(cfg.JobHistory),
		inj:     cfg.Chaos,
		flight:  make(map[string]*job),
		start:   time.Now(),
		traces:  telemetry.NewRegistry(cfg.TraceRecent, cfg.TraceSlow),
		log:     logger,
	}
	s.queue = queue.New(queue.Config{
		LeaseTTL:    cfg.LeaseTTL,
		MaxAttempts: cfg.MaxAttempts,
		BackoffBase: cfg.BackoffBase,
		BackoffMax:  cfg.BackoffMax,
		Seed:        cfg.Seed,
		OnEvent:     s.metrics.countQueueEvent,
		OnDead:      s.onDeadLetter,
		OnComplete:  s.onQueueComplete,
		OnExpired:   s.onLeaseExpired,
	})
	s.broker = &journalBroker{Broker: s.queue, s: s}
	s.brokerAPI = httpbroker.NewServer(s.broker, httpbroker.ServerOptions{Logger: logger})
	if cfg.JournalPath != "" {
		jnl, rep, err := journal.Open(cfg.JournalPath, journal.Options{
			Inject:  cfg.Chaos,
			OnFsync: s.metrics.journalFsync.observe,
		})
		if err != nil {
			s.queue.Close()
			return nil, err
		}
		s.jnl = jnl
		if err := s.applyReplay(rep); err != nil {
			s.queue.Close()
			jnl.Close()
			return nil, err
		}
	}
	if cfg.Mode != "frontend" {
		s.agent = NewAgent(s.broker, AgentConfig{
			Workers: cfg.Workers,
			Loops:   cfg.SolveWorkers,
			Store:   st,
			Chaos:   cfg.Chaos,
			OnSolve: s.metrics.solveLatency.observe,
		})
	}
	return s, nil
}

// DecodeStoredResponse is the store's decode hook: entries hold the
// canonical response JSON, the memory tier holds decoded values. It is
// shared with cmd/kecss-agent, whose local store holds the same entries.
func DecodeStoredResponse(b []byte) (any, error) {
	var r wire.SolveResponse
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// storeGet fetches a decoded response by digest. Entries are immutable:
// callers copy before mutating presentation fields (Cached).
func (s *Server) storeGet(digest string) (*wire.SolveResponse, bool) {
	v, ok := s.store.Get(digest)
	if !ok {
		return nil, false
	}
	return v.(*wire.SolveResponse), true
}

// Handler returns the server's routing table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve", s.instrument("/v1/solve", s.handleSolve))
	mux.HandleFunc("POST /v1/jobs", s.instrument("/v1/jobs", s.handleJobCreate))
	mux.HandleFunc("GET /v1/jobs/{id}", s.instrument("/v1/jobs/{id}", s.handleJobGet))
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.instrument("/v1/jobs/{id}/trace", s.handleJobTrace))
	mux.HandleFunc("GET /debug/traces", s.instrument("/debug/traces", s.handleDebugTraces))
	mux.HandleFunc("GET /v1/deadletters", s.instrument("/v1/deadletters", s.handleDeadLetters))
	mux.HandleFunc("GET /healthz", s.instrument("/healthz", s.handleHealth))
	mux.HandleFunc("GET /readyz", s.instrument("/readyz", s.handleReady))
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	// The broker API is always mounted: remote agents can attach to a
	// fused server too (extra capacity alongside the in-process agent).
	mux.Handle("/broker/v1/", http.StripPrefix("/broker/v1", s.brokerAPI.Handler()))
	return mux
}

// Replay reports what startup recovered from the journal.
func (s *Server) Replay() ReplayInfo { return s.replay }

// StartDrain flips the server into draining mode: /readyz turns 503 (so
// load balancers stop routing here) and new jobs are refused, while cached
// results keep being served and in-flight jobs run to completion. Call it
// before shutting the HTTP listener down; Drain calls it implicitly.
func (s *Server) StartDrain() {
	s.drainMu.Lock()
	s.draining.Store(true)
	s.drainMu.Unlock()
}

// Drain stops admitting new jobs and waits (bounded by ctx) for in-flight
// ones — including jobs waiting out a retry backoff — the SIGTERM half of
// graceful shutdown; pair with Close once the HTTP listener has stopped.
func (s *Server) Drain(ctx context.Context) error {
	s.StartDrain()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: drain interrupted with jobs in flight: %w", ctx.Err())
	}
}

// Close stops the fused agent, the queue and the journal. /healthz turns
// 503. Requests arriving afterwards fail cleanly. Remote agents see the
// broker close and detach on their own. Idempotent.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.StartDrain()
		s.closed.Store(true)
		// The agent first: in-flight solves run to completion and their
		// outcomes route through the still-open queue into the journal.
		if s.agent != nil {
			s.agent.Close()
		}
		s.queue.Close()
		// Unfinished jobs (abandoned mid-drain) keep their journal state and
		// will be replayed by the next incarnation; release their waiters.
		s.flightMu.Lock()
		stranded := make([]*job, 0, len(s.flight))
		for _, j := range s.flight {
			stranded = append(stranded, j)
		}
		s.flightMu.Unlock()
		for _, j := range stranded {
			if j.tryFinish() {
				s.finishJob(j, nil, &solveError{code: http.StatusServiceUnavailable, msg: "server shut down before the job completed"})
			}
		}
		if s.jnl != nil {
			s.jnl.Close()
		}
	})
}

// instrument wraps a handler with request counting and latency observation.
func (s *Server) instrument(path string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		h(rec, r)
		s.metrics.countRequest(path, rec.code)
		if path == "/v1/solve" {
			s.metrics.requestLatency.observe(time.Since(start))
		}
	}
}

type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, wire.ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// writeSolveError writes a classified solve failure, attaching Retry-After
// backpressure hints to 429 (queue full — scaled to the backlog) and 503
// (draining) so clients back off instead of hammering.
func (s *Server) writeSolveError(w http.ResponseWriter, serr *solveError) {
	switch serr.code {
	case http.StatusTooManyRequests:
		w.Header().Set("Retry-After", fmt.Sprintf("%d", s.retryAfterSeconds()))
		s.metrics.throttled.Add(1)
	case http.StatusServiceUnavailable:
		w.Header().Set("Retry-After", "1")
	}
	writeError(w, serr.code, "%s", serr.msg)
}

// retryAfterSeconds estimates how long a shed client should wait: the
// backlog divided by the worker parallelism, clamped to [1, 30] seconds.
func (s *Server) retryAfterSeconds() int {
	depth := s.queue.Depth()
	workers := s.cfg.SolveWorkers
	if workers < 1 {
		workers = 1
	}
	secs := 1 + depth/workers
	if secs > 30 {
		secs = 30
	}
	return secs
}

// decodeRequest parses and validates a solve request body, computes its
// graph and content digest, and re-encodes the request canonically for the
// journal. A false return means the response was already written.
func (s *Server) decodeRequest(w http.ResponseWriter, r *http.Request) (*solveWork, json.RawMessage, bool) {
	var req wire.SolveRequest
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return nil, nil, false
	}
	work, raw, err := buildWork(&req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return nil, nil, false
	}
	if req.TimeoutMillis > 0 {
		work.deadline = time.Now().Add(time.Duration(req.TimeoutMillis) * time.Millisecond)
	} else if dl, ok := r.Context().Deadline(); ok {
		work.deadline = dl
	}
	return work, raw, true
}

// buildWork validates a request and maps it to a pool task — the single
// decode path shared by the HTTP handlers and journal replay.
func buildWork(req *wire.SolveRequest) (*solveWork, json.RawMessage, error) {
	if err := req.Validate(); err != nil {
		return nil, nil, err
	}
	g, err := req.Graph.ToGraph()
	if err != nil {
		return nil, nil, err
	}
	solver, err := kecss.ParseSolver(req.Solver)
	if err != nil {
		return nil, nil, err
	}
	raw, err := json.Marshal(req)
	if err != nil {
		return nil, nil, err
	}
	return &solveWork{
		digest: wire.Digest(g, req.SolveSpec),
		task: kecss.Task{
			Graph:  g,
			Solver: solver,
			K:      req.K,
			Opts:   OptionsFromSpec(req.SolveSpec),
		},
	}, raw, nil
}

// solveWork is a decoded, validated request: its content digest, the pool
// task it maps to, and the client deadline (zero = none).
type solveWork struct {
	digest   string
	task     kecss.Task
	deadline time.Time
}

// OptionsFromSpec maps the wire-level solver knobs onto kecss options —
// the single definition of how a network request configures a solve, shared
// with cmd/kecss-load's direct-solve verification.
func OptionsFromSpec(spec wire.SolveSpec) []kecss.Option {
	opts := []kecss.Option{kecss.WithSeed(spec.Seed)}
	if spec.SimulateMST {
		opts = append(opts, kecss.WithSimulatedMST())
	}
	if spec.VoteDenom > 0 {
		opts = append(opts, kecss.WithVoteDenominator(spec.VoteDenom))
	}
	if spec.LabelBits > 0 {
		opts = append(opts, kecss.WithLabelBits(spec.LabelBits))
	}
	if spec.PhaseLen > 0 {
		opts = append(opts, kecss.WithPhaseLength(spec.PhaseLen))
	}
	return opts
}

// handleSolve is POST /v1/solve: cache hit → immediate response; miss →
// join or create the digest's job (admission may shed with 429/503) and
// wait for it. A waiter that times out or disconnects leaves the job
// running for everyone else.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	work, rawReq, ok := s.decodeRequest(w, r)
	if !ok {
		return
	}
	if resp, ok := s.storeGet(work.digest); ok {
		s.metrics.cacheHits.Add(1)
		s.serveCached(w, resp)
		return
	}
	j, created, serr := s.ensureJob(work, rawReq)
	if serr != nil {
		s.writeSolveError(w, serr)
		return
	}
	s.awaitJob(w, r, j, work, created)
}

// awaitJob blocks a sync request on a job's completion, honouring the
// client deadline and surviving client disconnects (the job keeps running;
// the disconnect is a metric, not a failure).
func (s *Server) awaitJob(w http.ResponseWriter, r *http.Request, j *job, work *solveWork, created bool) {
	// The job ID doubles as the trace ID; surfacing it lets clients fetch
	// GET /v1/jobs/{id}/trace for a solve they issued through /v1/solve.
	w.Header().Set("X-Kecss-Job", j.id)
	var deadlineC <-chan time.Time
	if !work.deadline.IsZero() {
		t := time.NewTimer(time.Until(work.deadline))
		defer t.Stop()
		deadlineC = t.C
	}
	select {
	case <-j.done:
	case <-deadlineC:
		writeError(w, http.StatusGatewayTimeout,
			"deadline exceeded waiting for job %s (the solve continues; retry to hit the cache)", j.id)
		return
	case <-r.Context().Done():
		// Client went away: count it and let the shared job finish for the
		// cache and any other waiters. No response can be written.
		s.metrics.clientDisconnects.Add(1)
		return
	}
	snap := j.snapshot()
	if snap.Error != "" {
		j.mu.Lock()
		serr := j.err
		j.mu.Unlock()
		s.writeSolveError(w, serr)
		return
	}
	resp := *snap.Result
	if !created {
		// A joiner shares the creator's solve: a cache-equivalent hit.
		resp.Cached = true
	}
	if resp.Digest != work.digest {
		// Shared job solved the same digest by construction; this is a bug.
		writeError(w, http.StatusInternalServerError, "job/digest mismatch")
		return
	}
	writeJSON(w, http.StatusOK, &resp)
}

// serveCached re-serves a cached response (value copied; cache entries are
// immutable).
func (s *Server) serveCached(w http.ResponseWriter, resp *wire.SolveResponse) {
	out := *resp
	out.Cached = true
	writeJSON(w, http.StatusOK, &out)
}

// ensureJob returns the active job for work's digest, creating (admitting,
// journaling and enqueueing) it if none is in flight. Single-flight: one
// durable job per digest, shared by every concurrent sync waiter and async
// submission. The accepted record is durable before ensureJob returns. The
// second return reports whether this caller created the job (false = joined
// an existing flight).
func (s *Server) ensureJob(work *solveWork, rawReq json.RawMessage) (*job, bool, *solveError) {
	admitStart := time.Now()
	s.flightMu.Lock()
	if j, ok := s.flight[work.digest]; ok {
		s.flightMu.Unlock()
		s.metrics.cacheHits.Add(1) // joins a flight: a cache-equivalent hit
		return j, false, nil
	}
	serr := s.admitJob()
	if serr != nil {
		s.flightMu.Unlock()
		return nil, false, serr
	}
	s.metrics.cacheMisses.Add(1)
	j := s.jobs.create(work.digest)
	j.work = work
	j.rawReq = rawReq
	j.deadline = work.deadline
	j.admitted = true
	s.flight[work.digest] = j
	s.flightMu.Unlock()
	s.beginTrace(j, admitStart)
	s.log.Info("job accepted", "job_id", j.id, "digest", j.digest)

	jspan := s.traceSpan(j, "journal.accept", 0)
	err := s.journalAppend(&journal.Record{
		Type:     journal.TypeAccepted,
		JobID:    j.id,
		Digest:   j.digest,
		Deadline: unixOrZero(j.deadline),
		Request:  rawReq,
	})
	jspan.End()
	if err != nil {
		s.log.Error("journal append failed", "job_id", j.id, "digest", j.digest, "err", err)
		if j.tryFinish() {
			s.finishJob(j, nil, &solveError{code: http.StatusServiceUnavailable, msg: fmt.Sprintf("journal unavailable: %v", err)})
		}
		return nil, false, &solveError{code: http.StatusServiceUnavailable, msg: "journal unavailable"}
	}
	espan := s.traceSpan(j, "enqueue", 0)
	err = s.queue.Enqueue(&queue.Job{
		ID:                j.id,
		Digest:            j.digest,
		DeadlineUnixNanos: unixOrZero(j.deadline),
		Request:           rawReq,
	})
	espan.End()
	if err != nil {
		if j.tryFinish() {
			s.finishJob(j, nil, &solveError{code: http.StatusServiceUnavailable, msg: "server is shutting down"})
		}
		return nil, false, &solveError{code: http.StatusServiceUnavailable, msg: "server is shutting down"}
	}
	s.traceWait(j)
	return j, true, nil
}

func unixOrZero(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixNano()
}

// admitJob reserves an admission slot for one new job, refusing while
// draining (503) or when the backlog is full (429). The drainMu read lock
// makes the draining check atomic with the inflight registration.
func (s *Server) admitJob() *solveError {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	if s.draining.Load() {
		return &solveError{code: http.StatusServiceUnavailable, msg: "server is draining"}
	}
	select {
	case s.sem <- struct{}{}:
	default:
		return &solveError{code: http.StatusTooManyRequests, msg: fmt.Sprintf("solve queue full (%d jobs in flight); retry later", cap(s.sem))}
	}
	s.inflight.Add(1)
	return nil
}

// finishJob publishes a job's outcome and releases its resources: the
// flight entry, the admission slot and the drain waiter. The caller must
// have won j.tryFinish (completion is exactly-once per job).
func (s *Server) finishJob(j *job, resp *wire.SolveResponse, serr *solveError) {
	j.finish(resp, serr)
	s.finishTrace(j, serr)
	if serr != nil {
		s.log.Info("job failed", "job_id", j.id, "digest", j.digest, "code", serr.code, "err", serr.msg)
	} else {
		s.log.Info("job done", "job_id", j.id, "digest", j.digest)
	}
	s.flightMu.Lock()
	if s.flight[j.digest] == j {
		delete(s.flight, j.digest)
	}
	s.flightMu.Unlock()
	if j.admitted {
		<-s.sem
	}
	s.inflight.Done()
}

// journalAppend durably logs rec, or does nothing in ephemeral mode.
func (s *Server) journalAppend(rec *journal.Record) error {
	if s.jnl == nil {
		return nil
	}
	return s.jnl.Append(rec)
}

// onQueueComplete is the broker's completion hook: an agent reported an
// outcome while still holding the lease. It journals the outcome, feeds
// the store, and finishes the job — exactly once per job; duplicate
// deliveries lose the tryFinish race and are dropped. The outcome record
// is durable before waiters are released (the hook runs synchronously
// inside the agent's Complete call, local or over HTTP).
func (s *Server) onQueueComplete(qj *queue.Job, out queue.Outcome) {
	j, ok := s.jobs.get(qj.ID)
	if !ok {
		return // evicted from history; the result is in the store regardless
	}
	if !j.tryFinish() {
		return
	}
	s.traceOutcome(j, &out)
	var resp *wire.SolveResponse
	var serr *solveError
	if out.Err != "" {
		code := out.Code
		if code == 0 {
			code = http.StatusUnprocessableEntity
		}
		serr = &solveError{code: code, msg: out.Err}
	} else {
		resp = new(wire.SolveResponse)
		if err := json.Unmarshal(out.Result, resp); err != nil {
			resp = nil
			serr = &solveError{code: http.StatusInternalServerError, msg: fmt.Sprintf("agent returned an undecodable result: %v", err)}
		}
	}
	rec := &journal.Record{JobID: j.id, Digest: j.digest}
	if serr != nil {
		rec.Type = journal.TypeFailed
		rec.Error = serr.msg
	} else {
		rec.Type = journal.TypeDone
		rec.Result = out.Result
	}
	if err := s.journalAppend(rec); err != nil {
		// The outcome could not be made durable; fail the waiters (the next
		// incarnation will re-solve from the accepted record).
		serr = &solveError{code: http.StatusServiceUnavailable, msg: fmt.Sprintf("journal unavailable: %v", err)}
		resp = nil
	}
	if resp != nil {
		// Idempotent for the fused agent (it already published); for
		// remote agents with their own store this is where the frontend's
		// store learns the result.
		putStart := time.Now()
		pspan := s.traceSpan(j, "store.put", qj.Attempt)
		_ = s.store.Put(j.digest, out.Result, resp)
		pspan.End()
		s.metrics.stageStorePut.observe(time.Since(putStart))
	}
	s.finishJob(j, resp, serr)
}

// onDeadLetter finishes a job the queue gave up on (retry budget spent).
func (s *Server) onDeadLetter(d queue.DeadLetter) {
	s.log.Warn("job dead-lettered", "job_id", d.Job.ID, "digest", d.Job.Digest, "attempt", d.Job.Attempt, "reason", d.Reason)
	_ = s.journalAppend(&journal.Record{
		Type:    journal.TypeDead,
		JobID:   d.Job.ID,
		Digest:  d.Job.Digest,
		Attempt: d.Job.Attempt,
		Error:   d.Reason,
	})
	j, ok := s.jobs.get(d.Job.ID)
	if !ok {
		return
	}
	if j.tryFinish() {
		s.finishJob(j, nil, &solveError{code: http.StatusServiceUnavailable, msg: fmt.Sprintf("job %s dead-lettered after %d attempts: %s", j.id, d.Job.Attempt, d.Reason)})
	}
}

// applyReplay reconstructs the job table from journal records: finished
// jobs come back pollable (results repopulate the cache), unfinished jobs
// are re-enqueued with their attempt count carried over.
func (s *Server) applyReplay(rep *journal.Replay) error {
	type jobState struct {
		accepted *journal.Record
		attempts int
		outcome  *journal.Record // done, failed or dead
	}
	states := make(map[string]*jobState)
	order := make([]string, 0, len(rep.Records))
	for i := range rep.Records {
		rec := &rep.Records[i]
		st := states[rec.JobID]
		if st == nil {
			st = &jobState{}
			states[rec.JobID] = st
			order = append(order, rec.JobID)
		}
		switch rec.Type {
		case journal.TypeAccepted:
			st.accepted = rec
		case journal.TypeLeased:
			if rec.Attempt > st.attempts {
				st.attempts = rec.Attempt
			}
		case journal.TypeDone, journal.TypeFailed, journal.TypeDead:
			st.outcome = rec
		}
	}
	s.replay = ReplayInfo{Records: len(rep.Records), TornBytes: rep.TornBytes}
	for _, id := range order {
		st := states[id]
		if st.accepted == nil {
			// Lease/outcome records whose accepted record was torn away are
			// orphans; the job was never acked to a client, skip it.
			continue
		}
		rec := st.accepted
		j := newJob(id, rec.Digest)
		if st.outcome != nil {
			s.replay.Completed++
			switch st.outcome.Type {
			case journal.TypeDone:
				var resp wire.SolveResponse
				if err := json.Unmarshal(st.outcome.Result, &resp); err != nil {
					return fmt.Errorf("server: replaying job %s result: %w", id, err)
				}
				j.finishing = true
				j.finish(&resp, nil)
				_ = s.store.Put(rec.Digest, st.outcome.Result, &resp)
			case journal.TypeFailed:
				j.finishing = true
				j.finish(nil, &solveError{code: http.StatusUnprocessableEntity, msg: st.outcome.Error})
			case journal.TypeDead:
				j.finishing = true
				j.finish(nil, &solveError{code: http.StatusServiceUnavailable, msg: fmt.Sprintf("job %s dead-lettered after %d attempts: %s", id, st.outcome.Attempt, st.outcome.Error)})
			}
			s.jobs.insert(j)
			continue
		}
		// Unfinished: rebuild the work from the journaled request and
		// re-enqueue. Replayed jobs bypass admission (they were admitted by
		// the previous incarnation) but count toward drain.
		var req wire.SolveRequest
		if err := json.Unmarshal(rec.Request, &req); err != nil {
			return fmt.Errorf("server: replaying job %s request: %w", id, err)
		}
		work, rawReq, err := buildWork(&req)
		if err != nil {
			// An older build may have accepted a request that decoding now
			// rejects (a vertex count beyond m+1): fail that job rather than
			// the restart.
			j.finishing = true
			j.finish(nil, &solveError{code: http.StatusBadRequest, msg: err.Error()})
			s.jobs.insert(j)
			continue
		}
		j.work = work
		j.rawReq = rawReq
		if rec.Deadline != 0 {
			j.deadline = time.Unix(0, rec.Deadline)
		}
		s.jobs.insert(j)
		s.flightMu.Lock()
		s.flight[j.digest] = j
		s.flightMu.Unlock()
		s.inflight.Add(1)
		s.replay.Requeued++
		// A replayed job's trace starts at the restart: the original
		// timeline died with the previous incarnation, so the root is
		// tagged and the attempts already spent are recorded on it.
		tr := s.traces.Start(j.id, "frontend")
		j.trace = tr
		j.rootSpan = tr.Start(0, "job", 0,
			telemetry.String("digest", j.digest),
			telemetry.Bool("replayed", true),
			telemetry.Int("prior_attempts", int64(st.attempts)))
		if err := s.queue.Enqueue(&queue.Job{
			ID:                j.id,
			Digest:            j.digest,
			DeadlineUnixNanos: unixOrZero(j.deadline),
			Request:           rawReq,
			Attempt:           st.attempts,
		}); err != nil {
			return fmt.Errorf("server: re-enqueueing job %s: %w", id, err)
		}
		s.traceWait(j)
	}
	return nil
}

// handleHealth is GET /healthz: liveness. 200 while the process can serve
// anything at all (including cache hits during drain); 503 only once Close
// has torn the serving stack down.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	code := http.StatusOK
	status := "ok"
	switch {
	case s.closed.Load():
		code = http.StatusServiceUnavailable
		status = "closed"
	case s.draining.Load():
		status = "draining"
	}
	writeJSON(w, code, map[string]any{
		"status":         status,
		"workers":        s.workerCount(),
		"cache_entries":  s.store.CacheLen(),
		"uptime_seconds": int64(time.Since(s.start).Seconds()),
	})
}

// workerCount is the local solver parallelism: the fused agent's pool size,
// or 0 in frontend mode (capacity lives in remote agents).
func (s *Server) workerCount() int {
	if s.agent != nil {
		return s.agent.Workers()
	}
	return 0
}

// handleReady is GET /readyz: readiness. 503 while draining or closed —
// load balancers stop routing here before liveness ever flips — with the
// journal replay summary in the body.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	code := http.StatusOK
	status := "ready"
	switch {
	case s.closed.Load():
		code = http.StatusServiceUnavailable
		status = "closed"
	case s.draining.Load():
		code = http.StatusServiceUnavailable
		status = "draining"
	}
	qs := s.queue.Stats()
	writeJSON(w, code, map[string]any{
		"status":          status,
		"journal":         s.cfg.JournalPath != "",
		"replay_records":  s.replay.Records,
		"replay_requeued": s.replay.Requeued,
		"replay_torn":     s.replay.TornBytes,
		"queue_ready":     qs.Ready,
		"queue_delayed":   qs.Delayed,
		"queue_leased":    qs.Leased,
		"dead_letters":    qs.Dead,
	})
}

// handleMetrics is GET /metrics in Prometheus text exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.write(w, s)
	s.metrics.countRequest("/metrics", http.StatusOK)
}
