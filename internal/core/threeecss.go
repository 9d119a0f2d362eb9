package core

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/baselines"
	"repro/internal/congest"
	"repro/internal/cycles"
	"repro/internal/graph"
	"repro/internal/rounds"
)

// ThreeECSSOptions configures the unweighted 3-ECSS solver (§5, Theorem 1.3).
// The option value (and the arenas it may carry) lives for one Solve call
// on the caller's goroutine.
//
//kecss:arena-owner
type ThreeECSSOptions struct {
	// Rng drives label sampling and candidate activation. Required.
	Rng *rand.Rand
	// LabelBits is the circulation width b (default 48; the paper uses
	// Θ(log n), and 48 makes Property 5.1 failures negligible at any n this
	// simulator reaches). Labels persist across iterations in the
	// incremental engine, so a narrow width inflates only the output size
	// (spurious collisions keep the loop augmenting), never correctness —
	// collisions are one-sided and the final subgraph is verified exactly.
	LabelBits int
	// PhaseLen is the activation-schedule constant (see AugOptions.PhaseLen).
	PhaseLen int
	// Executor selects the simulator executor for the base label scan.
	Executor congest.Executor
	// Arena supplies reusable simulation buffers for the base label scan.
	// Defaults to a fresh arena per solve.
	Arena *congest.NetworkArena
	// LabelArena supplies reusable scratch for the incremental labeling
	// engine (cycles.Arena ownership rules apply: one live engine at a
	// time, one arena per goroutine). Defaults to unpooled scratch.
	LabelArena *cycles.Arena
	// Phase, if set, receives a PhaseEvent per completed phase (validate,
	// base, base-label, augment, correction). Nil costs nothing.
	Phase PhaseObserver
}

// ThreeECSSResult is the outcome of the 3-ECSS computation.
type ThreeECSSResult struct {
	// Edges is the 3-edge-connected spanning subgraph (H ∪ A).
	Edges []int
	// Size is the number of edges (the unweighted objective).
	Size int
	// Weight is the total edge weight (the §5.4 weighted objective;
	// equals Size on unit-weight graphs).
	Weight int64
	// BaseSize is the size of the 2-edge-connected base subgraph H built by
	// the O(D)-round 2-approximation of [1].
	BaseSize int
	// Iterations is the number of sampling iterations that aggregated
	// cost-effectiveness and ran the activation lottery. An iteration whose
	// candidate pool is empty falls through to the exact correction without
	// being counted (its aggregation result is discarded), though it does
	// count toward the sampler's iteration bound.
	Iterations int
	// Rounds is the base 2-ECSS's rounds, plus the measured base label
	// scan, plus the charged per-iteration costs: the 2D
	// cost-effectiveness aggregations, the O(height + |added|) incremental
	// label dissemination, and — on the rare empty-pool exit — the one
	// discarded final aggregation (Theorem 1.3: O(D·log³n)).
	Rounds int64
	// LabelRoundsMeasured is the simulator-measured part of Rounds: the one
	// base label scan. Incremental label updates are charged analytically
	// (O(height + |added|) per iteration) and therefore count toward Rounds
	// but not toward this field.
	LabelRoundsMeasured int64
	// CorrectionEdges counts edges added by the exact fallback that runs if
	// the w.h.p. label-based termination missed a cut pair (expected 0).
	CorrectionEdges int
}

// Solve3ECSSUnweighted computes a small 3-edge-connected spanning subgraph
// of g per §5: build a 2-edge-connected base H with the O(D)-round
// 2-approximation of [1], then cover all cut pairs of H using cycle space
// sampling to evaluate cost-effectiveness in O(D) rounds per iteration.
// Edge weights of g are ignored (the unweighted objective is edge count).
func Solve3ECSSUnweighted(g *graph.Graph, opts ThreeECSSOptions) (*ThreeECSSResult, error) {
	if opts.Rng == nil {
		return nil, fmt.Errorf("core: ThreeECSSOptions.Rng is required")
	}
	if err := validate3EC(g, opts); err != nil {
		return nil, err
	}
	var acc rounds.Accountant
	// Base subgraph H: BFS tree + O(D)-round augmentation [1].
	t0 := opts.Phase.phaseStart()
	h, _, err := baselines.TwoECSSUnweighted2Approx(g, 0)
	if err != nil {
		return nil, fmt.Errorf("core: base 2-ECSS: %w", err)
	}
	baseRounds := 2 * int64(g.DiameterEstimate())
	acc.Charge("base 2-ECSS [1]", baseRounds)
	opts.Phase.emit(PhaseEvent{Phase: "base", Start: t0, Rounds: baseRounds, Items: len(h)})
	return solve3ECSS(g, h, false, opts, &acc)
}

// validate3EC runs the up-front 3-edge-connectivity check, reporting it to
// the phase observer.
func validate3EC(g *graph.Graph, opts ThreeECSSOptions) error {
	t0 := opts.Phase.phaseStart()
	ok := g.IsKEdgeConnected(3)
	opts.Phase.emit(PhaseEvent{Phase: "validate", Start: t0})
	if !ok {
		return fmt.Errorf("core: input graph is not 3-edge-connected")
	}
	return nil
}

// Solve3ECSSWeighted is the §5.4 weighted variant: the base H is the §3
// weighted 2-ECSS (MST + TAP) instead of the BFS-tree 2-approximation, and
// candidate cost-effectiveness is |Ce|/w(e). Per-iteration cost is governed
// by the height of H's spanning tree (Θ(hMST) in the worst case, which is
// why the paper calls the weighted variant slower: O(n·log³n) total).
func Solve3ECSSWeighted(g *graph.Graph, opts ThreeECSSOptions) (*ThreeECSSResult, error) {
	if opts.Rng == nil {
		return nil, fmt.Errorf("core: ThreeECSSOptions.Rng is required")
	}
	if err := validate3EC(g, opts); err != nil {
		return nil, err
	}
	var acc rounds.Accountant
	t0 := opts.Phase.phaseStart()
	base, err := Solve2ECSS(g, TwoECSSOptions{Rng: opts.Rng})
	if err != nil {
		return nil, fmt.Errorf("core: weighted base 2-ECSS: %w", err)
	}
	acc.Charge("base weighted 2-ECSS (Thm 1.1)", base.Rounds)
	opts.Phase.emit(PhaseEvent{Phase: "base", Start: t0, Rounds: base.Rounds, Items: len(base.Edges)})
	return solve3ECSS(g, base.Edges, true, opts, &acc)
}

// Accounting labels of the solve3ECSS loop, shared with the breakdown
// regression tests.
const (
	chargeLabelScans   = "label scans (measured)"
	chargeAggregation  = "cost-effectiveness aggregation"
	chargeLabelUpdates = "incremental label dissemination (charged)"
	chargeFinalAgg     = "final aggregation (no candidates)"
)

// solve3ECSS runs the §5 augmentation loop from the 2-edge-connected base h
// to 3-edge-connectivity. weighted selects the §5.4 cost-effectiveness
// |Ce|/w(e); otherwise ρ(e)=|Ce|.
//
// The cycle-space labeling of H ∪ A is maintained by the incremental engine
// (cycles.Incremental): the BFS tree and labels of H are computed once
// (distributed, measured), and each iteration only samples labels for the
// newly activated candidates and XORs them along their tree paths, with an
// O(height + |added|) dissemination charge.
func solve3ECSS(g *graph.Graph, h []int, weighted bool, opts ThreeECSSOptions, acc *rounds.Accountant) (*ThreeECSSResult, error) {
	bits := opts.LabelBits
	if bits == 0 {
		bits = 48
	}
	var simOpts []congest.Option
	if opts.Executor != nil {
		simOpts = append(simOpts, congest.WithExecutor(opts.Executor))
	}
	// The base label scan runs one short-lived network over g.
	simOpts = congest.WithDefaultArena(simOpts)
	if opts.Arena != nil {
		simOpts = append(simOpts, congest.WithArena(opts.Arena))
	}
	d := int64(g.DiameterEstimate())
	res := &ThreeECSSResult{BaseSize: len(h)}

	t0 := opts.Phase.phaseStart()
	eng, err := cycles.NewIncremental(g, h, bits, opts.Rng, opts.LabelArena, simOpts...)
	if err != nil {
		return nil, fmt.Errorf("core: labeling base H: %w", err)
	}
	defer eng.Release()
	res.LabelRoundsMeasured = int64(eng.Metrics.Rounds)
	acc.Charge(chargeLabelScans, int64(eng.Metrics.Rounds))
	opts.Phase.emit(PhaseEvent{
		Phase: "base-label", Start: t0,
		Rounds: int64(eng.Metrics.Rounds), Messages: eng.Metrics.Messages, Items: len(h),
	})
	height := int64(eng.Tree.Height())

	selected := make([]bool, g.M())
	for _, id := range h {
		selected[id] = true
	}
	sel := append([]int(nil), h...)

	// Candidates are evaluated output-sensitively: a cycles.CoverIndex
	// keeps every candidate's |Ce| current under the engine's label
	// updates (recomputing only candidates whose covering tree edges
	// changed), and expBuckets keep them sorted by rounded exponent, so
	// Lines 1–2 cost O(pool + changed candidates) per iteration instead of
	// an O(m·height) rescan. The equivalence corpus pins this against a
	// from-scratch rescan.
	candIDs := make([]int, 0, g.M()-len(h))
	candIdx := make([]int32, g.M()) // candidate edge ID -> candidate index
	for _, e := range g.Edges() {
		if !selected[e.ID] {
			candIdx[e.ID] = int32(len(candIDs))
			candIDs = append(candIDs, e.ID)
		}
	}
	cover := cycles.NewCoverIndex(eng, candIDs)
	bk := newExpBuckets(len(candIDs))
	refresh := func(i int, ce int64) {
		if ce == 0 {
			bk.remove(i)
			return
		}
		w := int64(1)
		if weighted {
			w = g.Edge(candIDs[i]).W
		}
		bk.update(i, roundedExp(ce, w))
	}
	s := newSampler(g, opts.PhaseLen, opts.Rng)
	var pool []int // candidate edge IDs at the maximum rounded value
	var added []int

	loopStart := opts.Phase.phaseStart()
	roundsAtLoop := acc.Total()
	for !eng.ThreeEdgeConnected() {
		if err := s.next(); err != nil {
			return nil, fmt.Errorf("core: 3-ECSS %w", err)
		}

		// Lines 1–2: cost-effectiveness via Claim 5.8 (unit weights:
		// ρ(e) = |Ce|), candidates at the maximum rounded value.
		cover.Refresh(refresh)
		var best int
		pool, best = bk.pool(pool[:0], candIDs)
		sort.Ints(pool) // activation draws follow ascending edge ID
		if len(pool) == 0 {
			// Labels say not 3-edge-connected but no candidate covers
			// anything: fall through to the exact correction below. The
			// pass is not a sampling iteration (its aggregation result is
			// discarded), but discovering the empty pool still costs the
			// 2D aggregation in the CONGEST model — charge it under its
			// own label so "cost-effectiveness aggregation" stays exactly
			// 2D per counted iteration.
			acc.Charge(chargeFinalAgg, 2*d)
			break
		}
		acc.Charge(chargeAggregation, 2*d)
		res.Iterations++

		// Line 3: every active candidate joins the augmentation directly
		// (no MST filter in the unweighted §5 variant).
		picked, _ := s.activate(best, len(pool))
		if len(picked) == 0 {
			continue
		}
		added = added[:0]
		for _, i := range picked {
			id := pool[i]
			added = append(added, id)
			selected[id] = true
			// Deactivate before AddEdges so the activation's own label
			// churn does not dirty the leaving candidates.
			cover.Deactivate(int(candIdx[id]))
			bk.remove(int(candIdx[id]))
		}
		eng.AddEdges(added)
		sel = append(sel, added...)
		// Dissemination of the new labels: each activated edge's label
		// floods its tree path; pipelined along the fixed tree this is
		// O(height + |added|) rounds.
		acc.Charge(chargeLabelUpdates, height+int64(len(added)))
	}

	opts.Phase.emit(PhaseEvent{
		Phase: "augment", Start: loopStart,
		Rounds: acc.Total() - roundsAtLoop, Iterations: res.Iterations,
		Items: len(sel) - len(h),
	})

	// Exact verification, then the correction loop if a cut pair survived.
	// (With this labeling construction the correction is belt-and-braces:
	// Property 5.1's equality holds with certainty for genuine cut pairs,
	// so the label-based termination can falsely reject but never falsely
	// certify, and a genuine cut pair always leaves a positive-CoverCount
	// candidate while g is 3-edge-connected — see correctTo3EC's test.)
	t0 = opts.Phase.phaseStart()
	corrections, err := correctTo3EC(g, selected, &sel)
	if err != nil {
		return nil, err
	}
	res.CorrectionEdges = corrections
	opts.Phase.emit(PhaseEvent{Phase: "correction", Start: t0, Items: corrections})

	sort.Ints(sel)
	// Results outlive their solve, so the edge list keeps no spare capacity.
	res.Edges = exactInts(sel)
	res.Size = len(sel)
	res.Weight = g.WeightOf(sel)
	res.Rounds = acc.Total()
	return res, nil
}

// correctTo3EC brings a 2-edge-connected selection the last step to
// 3-edge-connectivity exactly: while the selected subgraph has a cut pair,
// cover one per round trip. Each round trip builds the selected subgraph
// once and shares it between the connectivity check and the cut
// enumeration. Returns the number of edges added.
func correctTo3EC(g *graph.Graph, selected []bool, sel *[]int) (int, error) {
	corrections := 0
	for {
		sub, _ := g.SubgraphOf(*sel)
		if sub.IsKEdgeConnected(3) {
			return corrections, nil
		}
		added, err := coverOneCutPairExactly(g, sub, selected, sel)
		if err != nil {
			return corrections, err
		}
		corrections += added
	}
}

// coverOneCutPairExactly enumerates the remaining size-2 minimum cuts of
// sub — the already-built subgraph of g selected by sel (the base H keeps
// it 2-edge-connected, so a not-yet-3-connected selection has λ = 2) — and
// adds the smallest-ID edge of g crossing the first one. Returns the number
// of edges added (always 1 on success).
func coverOneCutPairExactly(g *graph.Graph, sub *graph.Graph, selected []bool, sel *[]int) (int, error) {
	cuts, err := EnumerateMinCuts(sub, 2, nil)
	if err != nil {
		return 0, fmt.Errorf("core: enumerating remaining cut pairs: %w", err)
	}
	if len(cuts) == 0 {
		// 2-edge-connected check must have failed for another reason.
		return 0, fmt.Errorf("core: subgraph not 3-edge-connected but has no cut pairs")
	}
	c := cuts[0]
	for _, e := range g.Edges() {
		if selected[e.ID] || !c.Crosses(e.U, e.V) {
			continue
		}
		selected[e.ID] = true
		*sel = append(*sel, e.ID)
		return 1, nil
	}
	return 0, fmt.Errorf("core: no edge of G covers a remaining cut pair (G not 3-edge-connected?)")
}
