package kecss

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/service"
)

// ErrPoolClosed is reported for every task of a Sweep (and wrapped by the
// batch helpers' errors) submitted after the pool's Close has begun. Test
// with errors.Is.
var ErrPoolClosed = errors.New("kecss: pool is closed")

// Solver names one of the pool's algorithms in a Task.
type Solver int

const (
	// Solver2ECSS runs Solve2ECSS (weighted 2-ECSS, Theorem 1.1).
	Solver2ECSS Solver = iota
	// SolverKECSS runs SolveKECSS with the task's K (Theorem 1.2).
	SolverKECSS
	// Solver3ECSSUnweighted runs Solve3ECSSUnweighted (Theorem 1.3).
	Solver3ECSSUnweighted
	// Solver3ECSSWeighted runs Solve3ECSSWeighted (§5.4).
	Solver3ECSSWeighted
)

// String returns the solver's short name (matching the sweep scenario
// vocabulary of cmd/kecss-bench).
func (s Solver) String() string {
	switch s {
	case Solver2ECSS:
		return "2ecss"
	case SolverKECSS:
		return "kecss"
	case Solver3ECSSUnweighted:
		return "3ecss"
	case Solver3ECSSWeighted:
		return "3ecss-weighted"
	}
	return fmt.Sprintf("Solver(%d)", int(s))
}

// ParseSolver maps a solver's short name ("2ecss", "kecss", "3ecss",
// "3ecss-weighted" — the vocabulary of Solver.String, the bench scenario
// files and the serve API) back to the Solver constant. The empty string
// defaults to Solver2ECSS, matching the scenario files.
func ParseSolver(name string) (Solver, error) {
	switch name {
	case "2ecss", "":
		return Solver2ECSS, nil
	case "kecss":
		return SolverKECSS, nil
	case "3ecss":
		return Solver3ECSSUnweighted, nil
	case "3ecss-weighted":
		return Solver3ECSSWeighted, nil
	}
	return 0, fmt.Errorf("kecss: unknown solver %q", name)
}

// Task is one solve in a Pool sweep.
type Task struct {
	// Graph is the instance to solve. Several tasks may share one *Graph
	// (per-trial sweeps); each task's solver checks the graph's
	// connectivity itself.
	Graph *Graph
	// Solver selects the algorithm.
	Solver Solver
	// K is the target connectivity for SolverKECSS (ignored otherwise).
	K int
	// Opts are per-task options, applied on top of the pool's defaults.
	// WithSeed here sets the task's base seed; the effective seed is
	// baseSeed XOR the task's index in the sweep, so repeating a graph
	// across tasks yields independent, reproducible trials.
	Opts []Option
}

// Result is one task's outcome. Exactly one of Two/KECSS/Three is non-nil
// on success, matching the task's solver; Edges, Weight and Rounds mirror
// that result for solver-agnostic consumers.
type Result struct {
	// Task is the task's index in the sweep (results keep sweep order).
	Task int
	// Err is the task's failure, nil on success.
	Err error
	// Edges, Weight and Rounds are the solved subgraph's edge IDs, total
	// weight and charged/measured round count.
	Edges  []int
	Weight int64
	Rounds int64
	// Two/KECSS/Three hold the full per-solver result struct.
	Two   *TwoECSSResult
	KECSS *KECSSResult
	Three *ThreeECSSResult
}

// PoolOption configures NewPool.
type PoolOption func(*poolConfig)

type poolConfig struct {
	defaults []Option
}

// WithPoolDefaults sets solver options applied to every task of every sweep
// (a task's own Opts are applied after these and win on conflict).
func WithPoolDefaults(opts ...Option) PoolOption {
	return func(c *poolConfig) { c.defaults = append(c.defaults, opts...) }
}

// Pool solves batches of instances on a fixed set of worker goroutines.
//
// Each task draws from its own RNG seeded with baseSeed XOR task index,
// which makes every batch API deterministic: the same tasks produce
// byte-identical results whether the pool has 1 worker or GOMAXPROCS, and
// regardless of how the scheduler interleaves the workers.
//
// A Pool is goroutine-safe: Sweep and the batch helpers may be called
// concurrently from multiple goroutines, and Close may race with them —
// sweeps admitted before Close complete normally, later ones report
// ErrPoolClosed on every task. Close is idempotent.
type Pool struct {
	svc      *service.Pool
	defaults []Option
}

// NewPool starts a solver pool with the given number of workers (<= 0 means
// GOMAXPROCS). Call Close when done.
func NewPool(workers int, opts ...PoolOption) *Pool {
	var c poolConfig
	for _, o := range opts {
		o(&c)
	}
	return &Pool{
		svc:      service.NewPool(workers),
		defaults: c.defaults,
	}
}

// Workers returns the number of workers.
func (p *Pool) Workers() int { return p.svc.Size() }

// Close shuts the workers down, waiting for in-flight sweeps to finish.
// Close is idempotent; sweeps and batch solves submitted after it report
// ErrPoolClosed instead of running.
func (p *Pool) Close() { p.svc.Close() }

// Sweep solves every task on the pool's workers and returns one Result per
// task, in task order. Individual failures land in Result.Err; Sweep itself
// never fails (on a closed pool every Result carries ErrPoolClosed). Each
// task's solver validates its input itself (see SolveKECSS and the 3-ECSS
// solvers), so an under-connected graph or a bad K fails only its own
// tasks.
func (p *Pool) Sweep(tasks []Task) []Result {
	results := make([]Result, len(tasks))
	err := p.svc.Run(len(tasks), func(i int, _ *service.Worker) {
		results[i] = p.solveOne(i, tasks[i])
	})
	if err != nil {
		// The pool was closed before the sweep was admitted: nothing ran.
		if errors.Is(err, service.ErrClosed) {
			err = ErrPoolClosed
		}
		for i := range results {
			results[i] = Result{Task: i, Err: err}
		}
	}
	return results
}

// solveOne runs one task on a worker. All state is derived from the task
// index and the task itself, never from the worker, so results are
// schedule-independent.
func (p *Pool) solveOne(idx int, t Task) Result {
	r := Result{Task: idx}
	if t.Graph == nil {
		r.Err = fmt.Errorf("kecss: task %d has a nil graph", idx)
		return r
	}
	opts := make([]Option, 0, len(p.defaults)+len(t.Opts))
	opts = append(opts, p.defaults...)
	opts = append(opts, t.Opts...)
	c := buildConfig(opts)
	// The task-index XOR keeps trials on a shared graph independent while
	// index 0 with the default seed reproduces the serial API.
	rng := rand.New(rand.NewSource(c.seed ^ int64(idx)))
	switch t.Solver {
	case Solver2ECSS:
		res, err := core.Solve2ECSS(t.Graph, c.twoOpts(rng))
		if err != nil {
			r.Err = err
			return r
		}
		r.Two, r.Edges, r.Weight, r.Rounds = res, res.Edges, res.Weight, res.Rounds
	case SolverKECSS:
		res, err := core.SolveKECSS(t.Graph, t.K, c.kecssOpts(rng))
		if err != nil {
			r.Err = err
			return r
		}
		r.KECSS, r.Edges, r.Weight, r.Rounds = res, res.Edges, res.Weight, res.Rounds
	case Solver3ECSSUnweighted:
		res, err := core.Solve3ECSSUnweighted(t.Graph, c.threeOpts(rng))
		if err != nil {
			r.Err = err
			return r
		}
		r.Three, r.Edges, r.Weight, r.Rounds = res, res.Edges, res.Weight, res.Rounds
	case Solver3ECSSWeighted:
		res, err := core.Solve3ECSSWeighted(t.Graph, c.threeOpts(rng))
		if err != nil {
			r.Err = err
			return r
		}
		r.Three, r.Edges, r.Weight, r.Rounds = res, res.Edges, res.Weight, res.Rounds
	default:
		r.Err = fmt.Errorf("kecss: unknown solver %d", int(t.Solver))
	}
	return r
}

// Solve2ECSS solves every graph with Solve2ECSS on the pool, returning
// results in input order. The first failure aborts with its error.
func (p *Pool) Solve2ECSS(graphs []*Graph, opts ...Option) ([]*TwoECSSResult, error) {
	results := p.Sweep(makeTasks(graphs, Solver2ECSS, 0, opts))
	out := make([]*TwoECSSResult, len(results))
	for i, r := range results {
		if r.Err != nil {
			return nil, fmt.Errorf("kecss: batch 2-ECSS task %d: %w", i, r.Err)
		}
		out[i] = r.Two
	}
	return out, nil
}

// SolveKECSS solves every graph with SolveKECSS(k) on the pool, returning
// results in input order. The first failure aborts with its error.
func (p *Pool) SolveKECSS(graphs []*Graph, k int, opts ...Option) ([]*KECSSResult, error) {
	results := p.Sweep(makeTasks(graphs, SolverKECSS, k, opts))
	out := make([]*KECSSResult, len(results))
	for i, r := range results {
		if r.Err != nil {
			return nil, fmt.Errorf("kecss: batch %d-ECSS task %d: %w", k, i, r.Err)
		}
		out[i] = r.KECSS
	}
	return out, nil
}

// Solve3ECSS solves every graph with Solve3ECSSUnweighted on the pool,
// returning results in input order. The first failure aborts with its
// error.
func (p *Pool) Solve3ECSS(graphs []*Graph, opts ...Option) ([]*ThreeECSSResult, error) {
	results := p.Sweep(makeTasks(graphs, Solver3ECSSUnweighted, 0, opts))
	out := make([]*ThreeECSSResult, len(results))
	for i, r := range results {
		if r.Err != nil {
			return nil, fmt.Errorf("kecss: batch 3-ECSS task %d: %w", i, r.Err)
		}
		out[i] = r.Three
	}
	return out, nil
}

func makeTasks(graphs []*Graph, s Solver, k int, opts []Option) []Task {
	tasks := make([]Task, len(graphs))
	for i, g := range graphs {
		tasks[i] = Task{Graph: g, Solver: s, K: k, Opts: opts}
	}
	return tasks
}
