package main

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	kecss "repro"
	"repro/internal/graph"
	"repro/internal/wire"
)

// libSpec is a library workload: a fixed sequence of (graph, seed) tasks
// solved by a closed loop of callers, each issuing single-task Pool.Sweep
// calls on one shared kecss.Pool (the path server.Agent uses).
type libSpec struct {
	solver kecss.Solver
	k      int // connectivity the generator guarantees and SolverKECSS targets
	n      int
	extra  int   // random edges on top of the circulant backbone
	maxW   int64 // weights uniform in [1, maxW]; 0 = unit weights
	graphs int   // distinct graphs
	seeds  int   // distinct solver seeds per graph
	opts   []kecss.Option
}

// kecssCuts: weighted k=4 SolveKECSS; Karger–Stein cut enumeration
// (ks-sweep inside cut-enum) dominates.
func kecssCuts(tiny bool) libSpec {
	s := libSpec{solver: kecss.SolverKECSS, k: 4, n: 128, extra: 256, maxW: 100, graphs: 8, seeds: 2}
	if tiny {
		s.n, s.extra, s.graphs, s.seeds = 24, 48, 1, 2
	}
	return s
}

// threeLabel: unweighted Solve3ECSSUnweighted; the §5 augment loop, exact
// correction and the pool's Dinic pre-validation dominate.
func threeLabel(tiny bool) libSpec {
	s := libSpec{solver: kecss.Solver3ECSSUnweighted, k: 3, n: 512, extra: 1024, graphs: 8, seeds: 1}
	if tiny {
		s.n, s.extra, s.graphs, s.seeds = 32, 64, 1, 2
	}
	return s
}

// twoCongest: weighted Solve2ECSS with message-passing Borůvka on the
// CONGEST simulator; the simulated mst phase dominates.
func twoCongest(tiny bool) libSpec {
	s := libSpec{solver: kecss.Solver2ECSS, k: 2, n: 1600, extra: 3200, maxW: 1000, graphs: 8, seeds: 2,
		opts: []kecss.Option{kecss.WithSimulatedMST()}}
	if tiny {
		s.n, s.extra, s.graphs, s.seeds = 64, 128, 1, 2
	}
	return s
}

// mix derives an independent stream seed from the workload seed and a
// stream index (splitmix64 finaliser).
func mix(seed int64, stream int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(stream+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// libEnv is a built library workload: its graphs, task sequence, pool and
// the reference result of every task.
type libEnv struct {
	spec    libSpec
	seconds float64 // length of the measured window
	graphs  []*graph.Graph
	tasks   []kecss.Task
	pool    *kecss.Pool
	refs    []kecss.Result
}

// newLibEnv generates the workload's inputs from seed, starts the pool and
// solves every task once, so arenas are warm and every later solve has a
// reference result to match.
func newLibEnv(spec libSpec, seed int64, seconds float64) (*libEnv, error) {
	e := &libEnv{spec: spec, seconds: seconds}
	for gi := 0; gi < spec.graphs; gi++ {
		rng := rand.New(rand.NewSource(mix(seed, gi)))
		wf := graph.UnitWeights()
		if spec.maxW > 0 {
			wf = graph.RandomWeights(rng, spec.maxW)
		}
		e.graphs = append(e.graphs, graph.RandomKConnected(spec.n, spec.k, spec.extra, rng, wf))
	}
	for si := 0; si < spec.seeds; si++ {
		for gi, g := range e.graphs {
			opts := append([]kecss.Option{kecss.WithSeed(mix(seed, 1000+si*spec.graphs+gi))}, spec.opts...)
			e.tasks = append(e.tasks, kecss.Task{Graph: g, Solver: spec.solver, K: spec.k, Opts: opts})
		}
	}
	e.pool = kecss.NewPool(callers())
	e.refs = make([]kecss.Result, len(e.tasks))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < callers(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(e.tasks); i = int(next.Add(1) - 1) {
				e.refs[i] = e.pool.Sweep(e.tasks[i : i+1])[0]
			}
		}()
	}
	wg.Wait()
	for i, r := range e.refs {
		if r.Err != nil {
			e.close()
			return nil, fmt.Errorf("task %d: %w", i, r.Err)
		}
	}
	return e, nil
}

func (e *libEnv) close() { e.pool.Close() }

// call is one measured Sweep call.
type call struct {
	task    int
	latency time.Duration
	done    time.Duration // completion, from the start of the loop
	res     kecss.Result
	phases  []phaseRecord // traced calls only
}

// loop runs the closed loop for the given duration, starting at sequence
// position from. With observe set, every call carries its phase intervals.
func (e *libEnv) loop(seconds float64, from int64, observe bool) ([]call, time.Duration) {
	var next atomic.Int64
	next.Store(from)
	var mu sync.Mutex
	var calls []call
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for c := 0; c < callers(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local []call
			for time.Now().Before(deadline) {
				i := int(next.Add(1)-1) % len(e.tasks)
				task := e.tasks[i]
				var phases []phaseRecord
				var t0 time.Time
				if observe {
					task.Opts = append(slices.Clip(task.Opts), kecss.WithPhaseObserver(func(ev kecss.PhaseEvent) {
						s := ev.Start.Sub(t0).Nanoseconds()
						phases = append(phases, phaseRecord{
							interval: interval{ev.Phase, s, s + ev.Duration.Nanoseconds()},
							rounds:   ev.Rounds, messages: ev.Messages,
							iterations: int64(ev.Iterations), items: int64(ev.Items),
						})
					}))
				}
				t0 = time.Now()
				res := e.pool.Sweep([]kecss.Task{task})[0]
				now := time.Now()
				local = append(local, call{task: i, latency: now.Sub(t0), done: now.Sub(start), res: res, phases: phases})
			}
			mu.Lock()
			calls = append(calls, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return calls, time.Since(start)
}

// check counts the calls whose result differs from the task's reference.
// References were verified k-edge-connected, so a byte-identical result is
// verified too; any other result is a failure.
func (e *libEnv) check(calls []call) int64 {
	var failed int64
	for _, c := range calls {
		ref := e.refs[c.task]
		if c.res.Err != nil || c.res.Weight != ref.Weight || c.res.Rounds != ref.Rounds || !slices.Equal(c.res.Edges, ref.Edges) {
			failed++
		}
	}
	return failed
}

// verifyRefs checks every reference result with the exact oracle and
// returns the failures plus the digest of the whole reference sequence.
func (e *libEnv) verifyRefs() (int64, string) {
	var failed int64
	lines := make([]wire.ResultLine, len(e.refs))
	for i, r := range e.refs {
		if !kecss.VerifyKEdgeConnected(e.tasks[i].Graph, r.Edges, e.spec.k) {
			failed++
		}
		lines[i] = wire.ResultLine{Task: i, Edges: r.Edges, Weight: r.Weight, Rounds: r.Rounds}
	}
	return failed, wire.ResultDigest(lines)
}

func (e *libEnv) weightMean() float64 {
	var sum float64
	for _, r := range e.refs {
		sum += float64(r.Weight)
	}
	return sum / float64(len(e.refs))
}

func (e *libEnv) measure() *outcome {
	meter := startAllocMeter()
	calls, elapsed := e.loop(e.seconds, 0, false)
	allocMB := meter.mbPerOp(int64(len(calls)))
	failed := e.check(calls)
	refFailed, digest := e.verifyRefs()
	fastest := e.fastest(calls)
	var sum float64
	for _, f := range fastest {
		sum += f
	}
	p50, p90 := percentile(fastest, 0.5), percentile(fastest, 0.9)
	return &outcome{
		attempted: int64(len(calls) + len(e.refs)),
		failed:    failed + refFailed,
		digest:    digest,
		notes: []string{
			fmt.Sprintf("%d solves in %.2fs from %d callers over a %d-task sequence (%.2f solves/s completed)",
				len(calls), elapsed.Seconds(), callers(), len(e.tasks), float64(len(calls))/elapsed.Seconds()),
			fmt.Sprintf("all solves: p50 %.3fms p90 %.3fms", percentile(latencies(calls), 0.5), percentile(latencies(calls), 0.9)),
		},
		metrics: map[string]metric{
			// The rate the callers sustain when every task takes its
			// fastest time.
			"solves_per_s":    {float64(callers()) * 1e3 * float64(len(fastest)) / max(sum, 1e-9), "1/s"},
			"solve_p50_ms":    {p50, "ms"},
			"solve_p90_ms":    {p90, "ms"},
			"weight_mean":     {e.weightMean(), "weight"},
			"alloc_mb_per_op": {allocMB, "MB"},
			// The library path has no result cache: every call solves, so
			// every call is a miss, and a repeated task (a would-be hit)
			// costs the same full solve.
			"miss_p50_ms": {p50, "ms"},
			"miss_p90_ms": {p90, "ms"},
			"hit_p50_ms":  {p50, "ms"},
			"hit_p90_ms":  {p90, "ms"},
		},
	}
}

// fastest returns, for every task the calls solved, its fastest solve in
// ms. A task does the same work every time it is solved (its result is
// byte-identical), and noise on a shared machine only ever adds time, so
// the fastest solve is the task's cost. Whole-call percentiles swing with
// how often a neighbour slows the machine (see WORKLOADS.md).
func (e *libEnv) fastest(calls []call) []float64 {
	best := make([]float64, len(e.tasks))
	for _, c := range calls {
		if l := ms(c.latency); best[c.task] == 0 || l < best[c.task] {
			best[c.task] = l
		}
	}
	return slices.DeleteFunc(best, func(l float64) bool { return l == 0 })
}

// traced runs half the window untraced and half with a phase observer on
// every task, in alternating stretches so drift on the machine falls on
// both, then breaks the traced solves down by phase.
func (e *libEnv) traced() (*outcome, error) {
	const stretches = 4
	var plain, calls []call
	var pos int64
	for i := 0; i < stretches; i++ {
		got, _ := e.loop(e.seconds/stretches, pos, i%2 == 1)
		pos += int64(len(got))
		if i%2 == 1 {
			calls = append(calls, got...)
		} else {
			plain = append(plain, got...)
		}
	}
	b := newSolveBreakdown()
	b.validate = e.validateTime()
	for _, c := range calls {
		b.add(c.latency.Nanoseconds(), c.phases)
	}
	m := b.metrics()
	m["trace.overhead_ratio"] = metric{median(latencies(calls)) / median(latencies(plain)), "ratio"}
	fillPerLayer(m)
	failed := e.check(plain) + e.check(calls)
	refFailed, digest := e.verifyRefs()
	return &outcome{
		attempted: int64(len(plain) + len(calls) + len(e.refs)),
		failed:    failed + refFailed,
		digest:    digest,
		metrics:   m,
		notes:     b.notes(),
	}, nil
}

func latencies(calls []call) []float64 {
	lat := make([]float64, len(calls))
	for i, c := range calls {
		lat[i] = ms(c.latency)
	}
	return lat
}

// validateTime is the mean standalone pre-validation time over the
// workload's graphs.
func (e *libEnv) validateTime() time.Duration {
	var sum time.Duration
	for _, g := range e.graphs {
		sum += validateTime(g, requiredFor(e.spec.solver, e.spec.k))
	}
	return sum / time.Duration(len(e.graphs))
}
