package core

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/graph"
	"repro/internal/rounds"
	"repro/internal/tap"
)

// AugOptions configures one Aug_k run (§4).
type AugOptions struct {
	// Rng drives the activation sampling and cut enumeration. Required.
	Rng *rand.Rand
	// PhaseLen is the M in the paper's "every M·log n iterations we increase
	// p by a factor of 2". 0 means 1 (the smallest constant; the analysis
	// fixes M large for the w.h.p. argument, the measured behaviour is the
	// experiment).
	PhaseLen int
	// Phase, if set, receives a cut-enum and an augment PhaseEvent for this
	// level (Level = k), and, from level 5 on, the ks-sweep /
	// ks-materialise events of its Karger–Stein cut enumeration. Nil costs
	// nothing.
	Phase PhaseObserver
}

// AugResult is the outcome of one connectivity augmentation step.
type AugResult struct {
	// Added holds the edge IDs added to the augmentation (the set A).
	Added []int
	// Weight is their total weight.
	Weight int64
	// Iterations is the number of sampling iterations executed.
	Iterations int
	// Cuts is the number of size-(k-1) cuts of H that had to be covered.
	Cuts int
	// Rounds is the charged round total for this augmentation.
	Rounds int64
	// MaxCutDegreeTrace records, per iteration, the maximum number of
	// candidates covering any uncovered cut — the quantity Lemma 4.5 argues
	// decays along the p_i schedule (experiment E6).
	MaxCutDegreeTrace []int
	// PTrace records the activation probability exponent (p = 2^-PTrace[i])
	// per iteration.
	PTrace []int
}

// Aug augments the (k-1)-edge-connected spanning subgraph H (given by edge
// IDs of g) to k-edge-connectivity following §4: in each iteration every
// maximum-rounded-cost-effectiveness edge becomes a candidate, candidates
// activate with probability p_i, and the active candidates joining the
// MST-filter forest (weights: A=0, active=1, rest=2 — realised by the
// equivalent union-find filter seeded with A's components) are added to A.
// The p_i schedule starts at 1/2^⌈log m⌉ and doubles every PhaseLen·⌈log n⌉
// iterations, restarting whenever the maximum rounded cost-effectiveness
// drops.
func Aug(g *graph.Graph, h []int, k int, opts AugOptions) (*AugResult, error) {
	if opts.Rng == nil {
		return nil, fmt.Errorf("core: AugOptions.Rng is required")
	}
	if k < 2 {
		return nil, fmt.Errorf("core: Aug requires k >= 2 (k=1 is the MST step)")
	}
	hs, _ := g.SubgraphOf(h)
	size := k - 1
	var enumOpts CutEnumOptions
	if opts.Phase != nil {
		// Forward the solver observer into the enumeration so its ks-sweep /
		// ks-materialise events appear inside this level's cut-enum span,
		// tagged with the level they belong to.
		inner := opts.Phase
		enumOpts.Phase = func(ev PhaseEvent) {
			ev.Level = k
			inner(ev)
		}
	}
	enumStart := opts.Phase.phaseStart()
	var cuts []Cut
	var err error
	if size >= 3 {
		// One capped max-flow pass (on the pooled Dinic scratch) decides
		// whether H is already k-edge-connected; the enumerator is told the
		// answer instead of re-verifying it with a cold check of its own.
		switch lam := hs.EdgeConnectivityUpTo(size + 1); {
		case lam > size:
			cuts = nil // H is already k-edge-connected: nothing to cover
		case lam < size:
			return nil, fmt.Errorf("core: enumerating size-%d cuts: subgraph H has connectivity %d < %d", size, lam, size)
		default:
			enumOpts.KnownConnectivity = size
			cuts, err = EnumerateMinCutsOpts(hs, size, opts.Rng, enumOpts)
		}
	} else {
		// Sizes 1–2 use the exact enumerators, which need no λ pre-check.
		cuts, err = EnumerateMinCutsOpts(hs, size, opts.Rng, enumOpts)
	}
	if err != nil {
		return nil, fmt.Errorf("core: enumerating size-%d cuts: %w", size, err)
	}
	opts.Phase.emit(PhaseEvent{Phase: "cut-enum", Level: k, Start: enumStart, Items: len(cuts)})
	res := &AugResult{Cuts: len(cuts)}
	var acc rounds.Accountant
	n := g.N()
	d := int64(g.DiameterEstimate())
	// All vertices learn H once: O(D + |H|) by pipelined broadcast.
	acc.Charge("learn H", d+int64(len(h)))
	loopStart := opts.Phase.phaseStart()

	if len(cuts) == 0 {
		res.Rounds = acc.Total()
		opts.Phase.emit(PhaseEvent{Phase: "augment", Level: k, Start: loopStart, Rounds: res.Rounds})
		return res, nil // H is already k-edge-connected
	}

	inH := make(map[int]bool, len(h))
	for _, id := range h {
		inH[id] = true
	}
	logn := int(rounds.Log2Ceil(n)) + 1
	phaseLen := opts.PhaseLen
	if phaseLen == 0 {
		phaseLen = 1
	}
	maxIters := 20*logn*logn*logn + 200

	// Candidate pool: edges outside H, with the cuts they cross, each
	// carrying its live uncovered-cut count ce — kept current by the
	// cut→candidate transpose below, so the per-iteration Lines 1–2 scan
	// reads a cached integer per candidate instead of re-walking c.cuts.
	type cand struct {
		id   int
		w    int64
		ce   int64 // uncovered cuts crossed; maintained, never rescanned
		cuts []int // indices into the cuts slice
		inA  bool
	}
	var cands []*cand
	for _, e := range g.Edges() {
		if inH[e.ID] {
			continue
		}
		c := &cand{id: e.ID, w: e.W}
		for ci, cut := range cuts {
			if cut.Crosses(e.U, e.V) {
				c.cuts = append(c.cuts, ci)
			}
		}
		if len(c.cuts) > 0 {
			c.ce = int64(len(c.cuts))
			cands = append(cands, c)
		}
	}
	// cutCands is the transpose of c.cuts (cut index → candidates crossing
	// it): when a cut flips to covered in the Line-4 loop, exactly the
	// candidates whose cost-effectiveness that changes get their cached ce
	// decremented — total maintenance work O(Σ |c.cuts|) over the whole
	// run, in place of a per-iteration rescan of every candidate's list.
	cutCands := make([][]int32, len(cuts))
	for i, c := range cands {
		for _, ci := range c.cuts {
			cutCands[ci] = append(cutCands[ci], int32(i))
		}
	}

	covered := make([]bool, len(cuts))
	uncovered := len(cuts)
	// Union-find re-seeded (Reset, one allocation for the whole loop) each
	// iteration with A's forest, realising the MST filter of Line 4
	// (Claims 4.1–4.3).
	uf := graph.NewUnionFind(n)
	deg := make([]int, len(cuts))
	var a []int

	// expOf returns the rounded cost-effectiveness exponent, with weight-0
	// edges treated as +infinity per §2.1.
	expOf := func(c *cand, ce int64) int {
		if c.w == 0 {
			return infExp
		}
		return tap.RoundedExp(ce, c.w)
	}

	mExp := 0
	for v := 1; v < g.M(); v <<= 1 {
		mExp++
	}
	pExp := mExp // p = 2^-pExp
	prevBest := infExp + 1
	itersAtThisP := 0

	for uncovered > 0 {
		if res.Iterations >= maxIters {
			return nil, fmt.Errorf("core: Aug_%d exceeded %d iterations with %d cuts uncovered", k, maxIters, uncovered)
		}
		res.Iterations++

		// Lines 1–2: cost-effectiveness and candidate selection, O(1) per
		// candidate off the maintained ce caches.
		best := -(1 << 30)
		var pool []*cand
		for _, c := range cands {
			if c.inA || c.ce == 0 {
				continue
			}
			e := expOf(c, c.ce)
			if e > best {
				best = e
				pool = pool[:0]
			}
			if e == best {
				pool = append(pool, c)
			}
		}
		if len(pool) == 0 {
			return nil, fmt.Errorf("core: Aug_%d stuck with %d cuts uncovered (graph not %d-edge-connected?)", k, uncovered, k)
		}

		// p_i schedule bookkeeping.
		if best < prevBest {
			pExp = mExp
			itersAtThisP = 0
		}
		prevBest = best
		res.PTrace = append(res.PTrace, pExp)

		// Record the max cut degree for E6 before sampling.
		for i := range deg {
			deg[i] = 0
		}
		for _, c := range pool {
			for _, ci := range c.cuts {
				if !covered[ci] {
					deg[ci]++
				}
			}
		}
		maxDeg := 0
		for _, x := range deg {
			if x > maxDeg {
				maxDeg = x
			}
		}
		res.MaxCutDegreeTrace = append(res.MaxCutDegreeTrace, maxDeg)

		// Line 3: activation with probability p = 2^-pExp.
		var active []*cand
		for _, c := range pool {
			if pExp == 0 || opts.Rng.Int63n(1<<uint(pExp)) == 0 {
				active = append(active, c)
			}
		}
		sort.Slice(active, func(i, j int) bool { return active[i].id < active[j].id })

		// Line 4: MST filter — active candidates joining the forest A.
		uf.Reset()
		for _, id := range a {
			e := g.Edge(id)
			uf.Union(e.U, e.V)
		}
		addedNow := 0
		for _, c := range active {
			e := g.Edge(c.id)
			if uf.Union(e.U, e.V) {
				c.inA = true
				a = append(a, c.id)
				addedNow++
			}
			// Claim 4.3 either way: every cut crossed by an active candidate
			// is covered by the end of the iteration — if the candidate was
			// rejected it closed a cycle in A, and a cycle crosses every cut
			// an even number of times, so another A-edge covers each cut.
			// Each flip pushes the decrement through the transpose, so every
			// crossing candidate's cached ce stays exact.
			for _, ci := range c.cuts {
				if !covered[ci] {
					covered[ci] = true
					uncovered--
					for _, cj := range cutCands[ci] {
						cands[cj].ce--
					}
				}
			}
		}

		// Per-iteration round charge (§4.1): O(D) for the global max, the
		// Kutten–Peleg MST of Line 4, and O(D + n_i) to disseminate the
		// added edges.
		acc.Charge("iteration aggregation", 2*d)
		acc.Charge("iteration MST filter", rounds.MSTKuttenPeleg(n, int(d)))
		acc.Charge("learn added edges", d+int64(addedNow))

		itersAtThisP++
		if itersAtThisP >= phaseLen*logn && pExp > 0 {
			pExp--
			itersAtThisP = 0
		}
	}
	sort.Ints(a)
	res.Added = a
	res.Weight = g.WeightOf(a)
	res.Rounds = acc.Total()
	opts.Phase.emit(PhaseEvent{
		Phase: "augment", Level: k, Start: loopStart,
		Rounds: res.Rounds, Iterations: res.Iterations, Items: len(res.Added),
	})
	return res, nil
}
