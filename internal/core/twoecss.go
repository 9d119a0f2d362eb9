package core

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/mst"
	"repro/internal/rounds"
	"repro/internal/tap"
	"repro/internal/tree"
)

// TwoECSSOptions configures the weighted 2-ECSS solver (§3, Theorem 1.1).
// The option value (and the arena it may carry) lives for one Solve call
// on the caller's goroutine.
//
//kecss:arena-owner
type TwoECSSOptions struct {
	// Rng drives the TAP voting. Required.
	Rng *rand.Rand
	// TAP tunes the augmentation step; its Rng field is overridden by Rng.
	TAP tap.Options
	// SimulateMST runs the MST as real message passing (measured rounds)
	// instead of Kruskal + the charged Kutten–Peleg bound.
	SimulateMST bool
	// Executor selects the simulator executor when SimulateMST is set.
	Executor congest.Executor
	// Arena, if set, supplies reusable simulation buffers (for repetition
	// sweeps that solve many same-sized instances).
	Arena *congest.NetworkArena
	// Phase, if set, receives a PhaseEvent per completed phase (mst, tap).
	// Nil costs nothing.
	Phase PhaseObserver
}

// TwoECSSResult is the outcome of the 2-ECSS computation.
type TwoECSSResult struct {
	// Edges is the 2-edge-connected spanning subgraph (MST ∪ augmentation).
	Edges []int
	// Weight is its total weight.
	Weight int64
	// MSTWeight is the weight of the underlying MST (also a lower bound on
	// the optimal 2-ECSS, used by the ratio experiments).
	MSTWeight int64
	// Rounds is the total charged/measured rounds (Theorem 1.1:
	// O((D+√n)·log²n) w.h.p.).
	Rounds int64
	// TAP is the augmentation sub-result (iterations, round breakdown).
	TAP *tap.Result
	// TreeHeight is the height of the rooted MST the augmentation ran on.
	TreeHeight int
}

// Solve2ECSS computes a 2-edge-connected spanning subgraph of g: an MST
// followed by the §3 weighted TAP augmentation, per Claim 2.1 (the MST is
// the optimal Aug_1, TAP is the O(log n)-approximate Aug_2, so the result is
// an O(log n)-approximation of the minimum weight 2-ECSS).
func Solve2ECSS(g *graph.Graph, opts TwoECSSOptions) (*TwoECSSResult, error) {
	if opts.Rng == nil {
		return nil, fmt.Errorf("core: TwoECSSOptions.Rng is required")
	}
	if g.N() < 2 {
		return nil, fmt.Errorf("core: need at least 2 vertices")
	}
	var (
		mstIDs      []int
		mstWeight   int64
		mstRounds   int64
		mstMessages int64
	)
	t0 := opts.Phase.phaseStart()
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
		mstIDs, mstWeight, mstRounds = mres.EdgeIDs, mres.Weight, int64(mres.Metrics.Rounds)
		mstMessages = mres.Metrics.Messages
	} else {
		mstIDs, mstWeight = mst.Kruskal(g)
		mstRounds = rounds.MSTKuttenPeleg(g.N(), g.DiameterEstimate())
	}
	opts.Phase.emit(PhaseEvent{
		Phase: "mst", Start: t0,
		Rounds: mstRounds, Messages: mstMessages, Items: len(mstIDs),
	})
	tr, err := tree.FromEdges(g, mstIDs, 0)
	if err != nil {
		return nil, fmt.Errorf("core: rooting MST: %w", err)
	}
	topts := opts.TAP
	topts.Rng = opts.Rng
	t0 = opts.Phase.phaseStart()
	tres, err := tap.Augment(g, tr, topts)
	if err != nil {
		return nil, fmt.Errorf("core: TAP augmentation: %w", err)
	}
	opts.Phase.emit(PhaseEvent{
		Phase: "tap", Start: t0,
		Rounds: tres.Rounds, Iterations: tres.Iterations, Items: len(tres.Augmentation),
	})
	edges := make([]int, 0, len(mstIDs)+len(tres.Augmentation))
	edges = append(append(edges, mstIDs...), tres.Augmentation...)
	sort.Ints(edges)
	return &TwoECSSResult{
		Edges:      edges,
		Weight:     g.WeightOf(edges),
		MSTWeight:  mstWeight,
		Rounds:     mstRounds + tres.Rounds,
		TAP:        tres,
		TreeHeight: tr.Height(),
	}, nil
}
