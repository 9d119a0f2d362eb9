package core

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/mst"
	"repro/internal/rounds"
)

// KECSSOptions configures the weighted k-ECSS solver (§4, Theorem 1.2).
// The option value (and the arena it may carry) lives for one Solve call
// on the caller's goroutine.
//
//kecss:arena-owner
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
	// Arena, if set, supplies reusable simulation buffers (for repetition
	// sweeps that solve many same-sized instances).
	Arena *congest.NetworkArena
	// SkipValidation skips the up-front k-edge-connectivity check of the
	// input graph. The check costs a capped max-flow sweep per call; sweep
	// drivers that solve many trials on one already-validated graph (the
	// kecss.Pool does) validate once and set this for the per-trial solves.
	// With an input that is not k-edge-connected the solver fails later,
	// with a less precise error.
	SkipValidation bool
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
	// Levels records the per-level augmentation results (Levels[0] is the
	// MST step and has only Added/Weight/Rounds populated). Their
	// per-iteration E6 traces (MaxCutDegreeTrace, PTrace) are not kept;
	// a direct Aug call returns them.
	Levels []*AugResult
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
	if !opts.SkipValidation {
		t0 := opts.Phase.phaseStart()
		ok := g.IsKEdgeConnected(k)
		opts.Phase.emit(PhaseEvent{Phase: "validate", Start: t0})
		if !ok {
			return nil, fmt.Errorf("core: input graph is not %d-edge-connected", k)
		}
	}
	res := &KECSSResult{Levels: make([]*AugResult, 0, k)}

	// Level 1: MST.
	level1 := &AugResult{}
	t0 := opts.Phase.phaseStart()
	var mstMessages int64
	if opts.SimulateMST {
		var simOpts []congest.Option
		if opts.Executor != nil {
			simOpts = append(simOpts, congest.WithExecutor(opts.Executor))
		}
		if opts.Arena != nil {
			simOpts = append(simOpts, congest.WithArena(opts.Arena))
		}
		mres, err := mst.DistributedBoruvka(g, simOpts...)
		if err != nil {
			return nil, fmt.Errorf("core: distributed MST: %w", err)
		}
		level1.Added = mres.EdgeIDs
		level1.Weight = mres.Weight
		level1.Rounds = int64(mres.Metrics.Rounds)
		mstMessages = mres.Metrics.Messages
	} else {
		ids, w := mst.Kruskal(g)
		level1.Added = ids
		level1.Weight = w
		level1.Rounds = rounds.MSTKuttenPeleg(g.N(), g.DiameterEstimate())
	}
	opts.Phase.emit(PhaseEvent{
		Phase: "mst", Level: 1, Start: t0,
		Rounds: level1.Rounds, Messages: mstMessages, Items: len(level1.Added),
	})
	level1.Added = exactInts(level1.Added)
	res.Levels = append(res.Levels, level1)
	h := append([]int(nil), level1.Added...)
	res.Rounds += level1.Rounds

	for i := 2; i <= k; i++ {
		ar, err := Aug(g, h, i, AugOptions{Rng: opts.Rng, PhaseLen: opts.PhaseLen, Phase: opts.Phase})
		if err != nil {
			return nil, fmt.Errorf("core: Aug_%d: %w", i, err)
		}
		res.Rounds += ar.Rounds
		res.Iterations += ar.Iterations
		h = append(h, ar.Added...)
		// A result outlives its solve (pools and servers keep it), so it
		// keeps per-level totals only and no spare slice capacity.
		ar.Added = exactInts(ar.Added)
		ar.MaxCutDegreeTrace, ar.PTrace = nil, nil
		res.Levels = append(res.Levels, ar)
	}
	sort.Ints(h)
	if k >= 4 {
		// Levels up to 4 enumerate exactly (bridges, cut pairs, cycle-space
		// labels for size 3). Levels from 5 on enumerate by Karger–Stein,
		// complete w.h.p. but not certainly; intermediate misses surface at
		// the next level's connectivity check, but the final level has no
		// next level. The pooled-Dinic audit makes a missed cut an explicit
		// error instead of a silently under-connected result; at k = 4 it
		// stays as a safety net.
		t0 := opts.Phase.phaseStart()
		sub, _ := g.SubgraphOf(h)
		ok := sub.IsKEdgeConnected(k)
		opts.Phase.emit(PhaseEvent{Phase: "audit", Level: k, Start: t0, Items: len(h)})
		if !ok {
			return nil, fmt.Errorf("core: %d-ECSS output failed the connectivity audit (cut enumeration missed a minimum cut; rerun with another seed)", k)
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
