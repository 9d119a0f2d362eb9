package core

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/congest"
	"repro/internal/graph"
)

// KECSSOptions configures the weighted k-ECSS solver (§4, Theorem 1.2).
type KECSSOptions struct {
	// Rng drives all randomness. Required.
	Rng *rand.Rand
	// PhaseLen is forwarded to each Aug_i (see AugOptions.PhaseLen).
	PhaseLen int
	// SimulateMST runs the first level (connectivity 0→1) as the real
	// message-passing Borůvka on the CONGEST simulator and uses its measured
	// rounds; otherwise the level is computed by Kruskal and charged the
	// Kutten–Peleg bound the paper assumes.
	SimulateMST bool
	// Executor selects the simulator executor when SimulateMST is set.
	Executor congest.Executor
	// Phase, if set, receives a PhaseEvent per completed solver phase
	// (validate, mst, then cut-enum/augment per level, audit for k >= 4).
	// Nil costs nothing.
	Phase PhaseObserver
}

// KECSSResult is the outcome of the k-ECSS computation.
type KECSSResult struct {
	// Edges holds the edge IDs of the k-edge-connected spanning subgraph.
	Edges []int
	// Weight is the subgraph's total weight.
	Weight int64
	// Rounds is the charged/measured round total across all k levels
	// (Theorem 1.2: O(k(D·log³n + n))).
	Rounds int64
	// Iterations is the total Aug iteration count across levels.
	Iterations int
	// Levels records each level's totals: Levels[0] is the MST step (Added,
	// Weight and Rounds only), Levels[i] the Aug_{i+1} step. A direct Aug
	// call returns the added edges and the per-iteration E6 traces.
	Levels []LevelSummary
}

// LevelSummary is one level of a k-ECSS solve, as totals only: a result
// outlives its solve (pools and servers keep it), and the level's edges are
// already in KECSSResult.Edges.
type LevelSummary struct {
	// Added is the number of edges the level added.
	Added int
	// Weight is their total weight.
	Weight int64
	// Iterations is the level's sampling-iteration count.
	Iterations int
	// Cuts is the number of minimum cuts the level had to cover.
	Cuts int
	// Rounds is the level's charged/measured round count.
	Rounds int64
}

// SolveKECSS computes a k-edge-connected spanning subgraph of g by the
// framework of Claim 2.1: level 1 is an MST (the optimal Aug_1), and each
// level i in 2..k runs the §4 algorithm to augment connectivity from i-1
// to i. Expected approximation O(k·log n).
func SolveKECSS(g *graph.Graph, k int, opts KECSSOptions) (*KECSSResult, error) {
	if opts.Rng == nil {
		return nil, fmt.Errorf("core: KECSSOptions.Rng is required")
	}
	if k < 1 {
		return nil, fmt.Errorf("core: k must be >= 1, got %d", k)
	}
	t0 := opts.Phase.phaseStart()
	ok := g.IsKEdgeConnected(k)
	opts.Phase.emit(PhaseEvent{Phase: "validate", Start: t0})
	if !ok {
		return nil, fmt.Errorf("core: input graph is not %d-edge-connected", k)
	}
	res := &KECSSResult{Levels: make([]LevelSummary, 0, k)}

	// Level 1: MST.
	t0 = opts.Phase.phaseStart()
	h, weight, mstRounds, mstMessages, err := computeMST(g, opts.SimulateMST, opts.Executor)
	if err != nil {
		return nil, err
	}
	level1 := LevelSummary{Added: len(h), Weight: weight, Rounds: mstRounds}
	opts.Phase.emit(PhaseEvent{
		Phase: "mst", Level: 1, Start: t0,
		Rounds: level1.Rounds, Messages: mstMessages, Items: level1.Added,
	})
	res.Levels = append(res.Levels, level1)
	h = append([]int(nil), h...)
	res.Rounds += level1.Rounds

	for i := 2; i <= k; i++ {
		ar, err := Aug(g, h, i, AugOptions{Rng: opts.Rng, PhaseLen: opts.PhaseLen, Phase: opts.Phase})
		if err != nil {
			return nil, fmt.Errorf("core: Aug_%d: %w", i, err)
		}
		res.Rounds += ar.Rounds
		res.Iterations += ar.Iterations
		h = append(h, ar.Added...)
		res.Levels = append(res.Levels, LevelSummary{
			Added: len(ar.Added), Weight: ar.Weight, Iterations: ar.Iterations, Cuts: ar.Cuts, Rounds: ar.Rounds,
		})
	}
	sort.Ints(h)
	if k >= 4 {
		// Every level enumerates its cuts exactly, so the output is
		// k-edge-connected by construction; the audit re-checks it on the
		// unit-flow engine, so a defect anywhere in the levels surfaces as
		// an error instead of an under-connected result.
		t0 := opts.Phase.phaseStart()
		sub, _ := g.SubgraphOf(h)
		ok := sub.IsKEdgeConnected(k)
		opts.Phase.emit(PhaseEvent{Phase: "audit", Level: k, Start: t0, Items: len(h)})
		if !ok {
			return nil, fmt.Errorf("core: %d-ECSS output failed the connectivity audit", k)
		}
	}
	res.Edges = exactInts(h)
	res.Weight = g.WeightOf(h)
	return res, nil
}

// exactInts returns s in an allocation of exactly len(s), copying only when
// s has spare capacity.
func exactInts(s []int) []int {
	if cap(s) == len(s) {
		return s
	}
	c := make([]int, len(s))
	copy(c, s)
	return c
}
