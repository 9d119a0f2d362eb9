// Package kecss is a reproduction of "Distributed Approximation of Minimum
// k-edge-connected Spanning Subgraphs" (Michal Dory, PODC 2018) as a Go
// library: distributed CONGEST-model approximation algorithms for the
// minimum weight k-edge-connected spanning subgraph (k-ECSS) problem, built
// on a faithful CONGEST simulator.
//
// The three headline algorithms are exposed directly:
//
//   - Solve2ECSS — weighted 2-ECSS: MST + distributed weighted tree
//     augmentation (Theorem 1.1, O(log n)-approximation in
//     O((D+√n)·log²n) rounds w.h.p.);
//   - SolveKECSS — weighted k-ECSS by repeated Aug_i covering steps
//     (Theorem 1.2, O(k·log n) expected approximation in
//     O(k(D·log³n + n)) rounds);
//   - Solve3ECSSUnweighted — unweighted 3-ECSS via cycle space sampling
//     (Theorem 1.3, O(log n) expected approximation in O(D·log³n) rounds);
//   - SolveTAP — the weighted tree augmentation subroutine on its own
//     (Theorem 3.12).
//
// Graphs are built with NewGraph/AddEdge or the generator helpers. All
// randomness is controlled by WithSeed for reproducibility; round counts,
// iteration counts and approximation diagnostics are in the result structs.
//
// # Concurrency
//
// The package-level solvers (Solve2ECSS, SolveKECSS, Solve3ECSSUnweighted,
// Solve3ECSSWeighted, SolveTAP) are goroutine-safe with respect to each
// other and to themselves: each call derives its own random stream from
// WithSeed and touches no shared mutable state, so concurrent calls — even
// on the same *Graph — are race-free. A *Graph itself is safe for
// concurrent readers only; do not AddEdge while any solver is running on it.
//
// What is NOT goroutine-safe is sharing solver-internal state across calls
// yourself: a *rand.Rand, a congest.NetworkArena, or a result struct being
// mutated. The public API never hands these out for sharing — seeds go in,
// results come out — so the only way to race is through the internal
// packages.
//
// For solving many instances, Pool runs batches on a fixed set of workers,
// each with its own recycled simulation arena and a per-task RNG derived as
// baseSeed XOR taskIndex, making batch results byte-identical regardless of
// worker count or scheduling. See NewPool, Pool.Sweep and the batch
// helpers; examples/fleet is a worked example. Pool.Close is idempotent and
// may race with sweeps: work submitted after Close begins reports
// ErrPoolClosed instead of running.
//
// # Serving
//
// The solver stack is also exposed as an HTTP service (cmd/kecss-serve,
// implemented in internal/server): POST /v1/solve and the async /v1/jobs
// endpoints accept a graph in the canonical wire form of internal/wire plus
// the solver spec (solver name, k, seed, option overrides). Because every
// solve is deterministic in (graph, spec), the service content-addresses
// requests with wire.Digest and answers repeats from an LRU cache with
// byte-identical results; cmd/kecss-load replays scenario families against
// a server and verifies served results against direct in-process calls.
package kecss

import (
	"math/rand"

	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/cycles"
	"repro/internal/graph"
	"repro/internal/tap"
	"repro/internal/tree"
)

// Graph is an undirected weighted multigraph on vertices 0..N-1.
// See NewGraph.
type Graph = graph.Graph

// Edge is an undirected weighted edge of a Graph.
type Edge = graph.Edge

// TwoECSSResult is the outcome of Solve2ECSS.
type TwoECSSResult = core.TwoECSSResult

// KECSSResult is the outcome of SolveKECSS.
type KECSSResult = core.KECSSResult

// ThreeECSSResult is the outcome of Solve3ECSSUnweighted.
type ThreeECSSResult = core.ThreeECSSResult

// TAPResult is the outcome of SolveTAP.
type TAPResult = tap.Result

// NewGraph returns an empty graph on n vertices. Add edges with
// (*Graph).AddEdge(u, v, w); weights must be non-negative integers
// (polynomial in n, per the paper's model, so they fit in O(log n)-bit
// messages).
func NewGraph(n int) *Graph { return graph.New(n) }

type config struct {
	seed        int64
	seedSet     bool
	executor    congest.Executor
	simulateMST bool
	voteDenom   int64
	labelBits   int
	phaseLen    int
	phase       core.PhaseObserver
}

// Option configures the solvers.
type Option func(*config)

// WithSeed fixes the random seed, making every solver run reproducible.
// Without it, seed 1 is used (the library never draws entropy implicitly).
func WithSeed(seed int64) Option {
	return func(c *config) { c.seed = seed; c.seedSet = true }
}

// WithParallelExecutor runs the CONGEST simulations on a persistent worker
// pool (chunked vertex ranges, one worker per CPU) instead of the
// deterministic sequential executor. Results are identical; wall-clock
// behaviour differs (see the executor ablation benchmark).
func WithParallelExecutor() Option {
	return func(c *config) { c.executor = congest.ParallelExecutor{} }
}

// WithSimulatedMST computes MSTs by the genuinely message-passing Borůvka
// algorithm on the simulator (measured rounds) instead of the sequential
// oracle with the Kutten–Peleg round bound charged.
func WithSimulatedMST() Option {
	return func(c *config) { c.simulateMST = true }
}

// WithVoteDenominator overrides the TAP acceptance threshold |Ce|/d
// (paper: 8). Only affects Solve2ECSS and SolveTAP.
func WithVoteDenominator(d int64) Option {
	return func(c *config) { c.voteDenom = d }
}

// WithLabelBits overrides the cycle-space label width b (default 48).
// Only affects Solve3ECSSUnweighted.
func WithLabelBits(b int) Option {
	return func(c *config) { c.labelBits = b }
}

// WithPhaseLength overrides the M in the Aug_k activation schedule
// "double p every M·log n iterations" (default 1).
func WithPhaseLength(m int) Option {
	return func(c *config) { c.phaseLen = m }
}

// PhaseEvent reports one completed solver phase (validation, MST, base
// labeling, cut enumeration, augmentation, correction) with its wall-clock
// duration and its cost in the paper's CONGEST measure (charged/measured
// rounds, and simulator-measured messages where the phase ran real message
// passing). See core.PhaseEvent for the per-solver phase lists.
type PhaseEvent = core.PhaseEvent

// PhaseObserver receives PhaseEvents during a solve. See WithPhaseObserver.
type PhaseObserver = core.PhaseObserver

// WithPhaseObserver installs a per-phase telemetry hook: fn is called
// synchronously on the solving goroutine once per completed phase. It must
// be cheap and must not retain the event past the call. The hook observes
// only — results and round accounting are byte-identical with or without
// it — and a nil fn (the default) costs nothing: solvers check the
// observer for nil before capturing any timestamps, so the disabled hook
// adds no allocations to the hot paths.
func WithPhaseObserver(fn PhaseObserver) Option {
	return func(c *config) { c.phase = fn }
}

func buildConfig(opts []Option) config {
	c := config{seed: 1}
	for _, o := range opts {
		o(&c)
	}
	return c
}

func (c config) rng() *rand.Rand { return rand.New(rand.NewSource(c.seed)) }

// solveEnv is the per-call execution state a solver run gets on top of its
// config: its private random stream plus, for pool workers, the worker's
// recycled arenas. It lives for exactly one solve call on the worker that
// owns the arenas.
//
//kecss:arena-owner
type solveEnv struct {
	rng    *rand.Rand
	arena  *congest.NetworkArena
	labels *cycles.Arena
}

func (c config) serialEnv() solveEnv { return solveEnv{rng: c.rng()} }

func (c config) twoOpts(env solveEnv) core.TwoECSSOptions {
	return core.TwoECSSOptions{
		Rng:         env.rng,
		TAP:         tap.Options{VoteDenom: c.voteDenom},
		SimulateMST: c.simulateMST,
		Executor:    c.executor,
		Arena:       env.arena,
		Phase:       c.phase,
	}
}

func (c config) kecssOpts(env solveEnv) core.KECSSOptions {
	return core.KECSSOptions{
		Rng:         env.rng,
		PhaseLen:    c.phaseLen,
		SimulateMST: c.simulateMST,
		Executor:    c.executor,
		Arena:       env.arena,
		Phase:       c.phase,
	}
}

func (c config) threeOpts(env solveEnv) core.ThreeECSSOptions {
	return core.ThreeECSSOptions{
		Rng:        env.rng,
		LabelBits:  c.labelBits,
		PhaseLen:   c.phaseLen,
		Executor:   c.executor,
		Arena:      env.arena,
		LabelArena: env.labels,
		Phase:      c.phase,
	}
}

// Solve2ECSS computes an O(log n)-approximate minimum weight
// 2-edge-connected spanning subgraph of g (Theorem 1.1). g must be
// 2-edge-connected.
func Solve2ECSS(g *Graph, opts ...Option) (*TwoECSSResult, error) {
	c := buildConfig(opts)
	return core.Solve2ECSS(g, c.twoOpts(c.serialEnv()))
}

// SolveKECSS computes an O(k·log n)-expected-approximate minimum weight
// k-edge-connected spanning subgraph of g (Theorem 1.2). g must be
// k-edge-connected.
func SolveKECSS(g *Graph, k int, opts ...Option) (*KECSSResult, error) {
	c := buildConfig(opts)
	return core.SolveKECSS(g, k, c.kecssOpts(c.serialEnv()))
}

// Solve3ECSSUnweighted computes an O(log n)-expected-approximate minimum
// size 3-edge-connected spanning subgraph of g (Theorem 1.3), ignoring edge
// weights. g must be 3-edge-connected.
func Solve3ECSSUnweighted(g *Graph, opts ...Option) (*ThreeECSSResult, error) {
	c := buildConfig(opts)
	return core.Solve3ECSSUnweighted(g, c.threeOpts(c.serialEnv()))
}

// Solve3ECSSWeighted computes an O(log n)-expected-approximate minimum
// weight 3-edge-connected spanning subgraph of g (the §5.4 weighted
// variant: weighted 2-ECSS base + weighted cycle-space augmentation).
// Slower than the unweighted variant — per-iteration cost follows the
// spanning-tree height of the weighted base rather than D.
func Solve3ECSSWeighted(g *Graph, opts ...Option) (*ThreeECSSResult, error) {
	c := buildConfig(opts)
	return core.Solve3ECSSWeighted(g, c.threeOpts(c.serialEnv()))
}

// SolveTAP augments the spanning tree given by treeEdges (graph edge IDs)
// to 2-edge-connectivity with a guaranteed O(log n)-approximate edge set
// (Theorem 3.12). root selects the tree root (any vertex).
func SolveTAP(g *Graph, treeEdges []int, root int, opts ...Option) (*TAPResult, error) {
	c := buildConfig(opts)
	tr, err := tree.FromEdges(g, treeEdges, root)
	if err != nil {
		return nil, err
	}
	return tap.Augment(g, tr, tap.Options{Rng: c.rng(), VoteDenom: c.voteDenom})
}

// VerifyKEdgeConnected reports whether the subgraph of g induced by the
// given edge IDs spans g and is k-edge-connected — the acceptance check for
// every solver's output.
func VerifyKEdgeConnected(g *Graph, edges []int, k int) bool {
	sub, _ := g.SubgraphOf(edges)
	return sub.IsKEdgeConnected(k)
}
