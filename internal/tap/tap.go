// Package tap implements the paper's Section 3: the distributed weighted
// tree augmentation (TAP) algorithm that underlies Theorem 1.1. Given a
// spanning tree T of a 2-edge-connected weighted graph G, it selects a set A
// of non-tree edges such that T ∪ A is 2-edge-connected, with a *guaranteed*
// O(log n) approximation of the optimum augmentation, in O(log² n)
// iterations w.h.p., each costing O(D + √n) rounds.
//
// The iteration logic (rounded cost-effectiveness, random voting with
// threshold |Ce|/8) is implemented exactly as specified. Coverage and voting
// are computed over the tree paths S_e; the per-iteration round cost is
// charged from the measured segment-decomposition parameters per the
// implementation plan of §3.1 (computations (I)–(III), each O(D + √n):
// a constant number of segment-local pipelined scans of length ≤ the maximum
// segment diameter plus skeleton/BFS-tree broadcasts of length ≤ D + number
// of segments).
//
//kecss:deterministic
package tap

import (
	"fmt"
	"math/bits"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/rounds"
	"repro/internal/segments"
	"repro/internal/tree"
)

// Options configures the TAP algorithm. The zero value selects the paper's
// parameters.
type Options struct {
	// Rng drives the random voting. Required.
	Rng *rand.Rand
	// VoteDenom is the acceptance threshold denominator: a candidate needs
	// at least |Ce|/VoteDenom votes. The paper uses 8. 0 means 8.
	VoteDenom int64
	// DisableRounding makes candidate selection use exact maximum
	// cost-effectiveness instead of the power-of-2 rounded value
	// (an ablation; the approximation proof needs rounding).
	DisableRounding bool
}

// Result is the outcome of the augmentation.
type Result struct {
	// Augmentation holds the selected non-tree edge IDs (the set A).
	Augmentation []int
	// Weight is the total weight of the augmentation.
	Weight int64
	// Iterations is the number of voting iterations executed (Lemma 3.11:
	// O(log² n) w.h.p.).
	Iterations int
	// Rounds is the total charged round count (Theorem 3.12:
	// O((D+√n)·log² n)).
	Rounds int64
	// RoundBreakdown itemizes the charges.
	RoundBreakdown []rounds.Charge
}

// Augment runs the weighted TAP algorithm on graph g with spanning tree tr.
// Every tree edge must be coverable by some non-tree edge (g must be
// 2-edge-connected), otherwise an error is returned.
func Augment(g *graph.Graph, tr *tree.Rooted, opts Options) (*Result, error) {
	if opts.Rng == nil {
		return nil, fmt.Errorf("tap: Options.Rng is required")
	}
	voteDenom := opts.VoteDenom
	if voteDenom == 0 {
		voteDenom = 8
	}
	n := g.N()
	// The main loop is bounded far above the w.h.p. O(log² n) iterations
	// of Lemma 3.11.
	l := int(rounds.Log2Ceil(n)) + 1
	maxIters := 40*l*l + 100

	dec, err := segments.Decompose(g, tr, segments.DefaultTarget(n))
	if err != nil {
		return nil, fmt.Errorf("tap: decomposition failed: %w", err)
	}
	var acc rounds.Accountant
	// Construction costs charged once: the decomposition itself plus the
	// initial dissemination of Claims 3.1/3.2 (all O(D + √n)).
	d := int64(g.DiameterEstimate())
	segCost := int64(dec.MaxSegmentDiameter()) + int64(len(dec.Segments))
	acc.Charge("decomposition", d+segCost)

	st := newState(g, tr, voteDenom, !opts.DisableRounding, opts.Rng)

	// Pre-iteration step: add all weight-0 edges and mark their coverage
	// (§3: "at the beginning of the algorithm we add to A all the edges with
	// weight 0").
	for i := range st.cands {
		if c := &st.cands[i]; g.Edge(c.edge).W == 0 {
			st.addToA(c)
		}
	}
	acc.Charge("zero-weight preprocessing", d+segCost)

	res := &Result{}
	for st.uncovered > 0 {
		if res.Iterations >= maxIters {
			return nil, fmt.Errorf("tap: exceeded %d iterations with %d tree edges uncovered", maxIters, st.uncovered)
		}
		res.Iterations++
		progressed, err := st.iterate()
		if err != nil {
			return nil, err
		}
		// Per-iteration charge, Lemma 3.3 / §3.1: computations (I)–(III)
		// are each a constant number of segment pipelines (≤ max segment
		// diameter), skeleton/BFS broadcasts (≤ D + #segments) and global
		// aggregations (≤ D).
		acc.Charge("iterations", 3*(d+segCost)+2*d)
		if !progressed {
			return nil, fmt.Errorf("tap: no progress in iteration %d (tree not augmentable?)", res.Iterations)
		}
	}
	res.Augmentation = append(res.Augmentation, st.a...)
	res.Weight = g.WeightOf(res.Augmentation)
	res.Rounds = acc.Total()
	res.RoundBreakdown = acc.Breakdown()
	return res, nil
}

// candidate is the per-non-tree-edge bookkeeping. se points into the state's
// shared path arena.
type candidate struct {
	edge int
	se   []int // tree edge IDs on the covered path (S_e), fixed
	inA  bool
}

// state keeps all per-edge data in dense slices indexed by graph edge ID —
// the voting loop is the hot path of the whole 2-ECSS solve, and map lookups
// per tree edge per candidate per iteration dominated it.
type state struct {
	g         *graph.Graph
	tr        *tree.Rooted
	voteDenom int64
	rounding  bool
	rng       *rand.Rand

	cands     []candidate
	isTree    []bool // per edge ID: tree edge of tr
	covered   []bool // per edge ID: covered tree edge (false for non-tree)
	uncovered int
	a         []int

	// Per-iteration scratch, reused across iterations.
	pool     []scored  // candidates at the maximum rounded cost-effectiveness
	keys     []voteKey // random keys, aligned with pool
	voteBest []voteKey // per tree edge: winning key this iteration
	voteIter []int32   // per tree edge: iteration voteBest was written
	iter     int32
	accepted []int32 // pool indices accepted this iteration
}

// scored pairs a candidate index with its current |Ce|.
type scored struct {
	cand int
	ce   int64
}

func newState(g *graph.Graph, tr *tree.Rooted, voteDenom int64, rounding bool, rng *rand.Rand) *state {
	m := g.M()
	st := &state{
		g:         g,
		tr:        tr,
		voteDenom: voteDenom,
		rounding:  rounding,
		rng:       rng,
		isTree:    make([]bool, m),
		covered:   make([]bool, m),
		voteBest:  make([]voteKey, m),
		voteIter:  make([]int32, m),
	}
	for v := 0; v < tr.N(); v++ {
		if v != tr.Root {
			st.isTree[tr.ParentEdge[v]] = true
		}
	}
	// Candidate paths live in one flat arena: total length first, then fill.
	// (A non-tree edge with an empty path could only be a self-loop, which
	// Graph forbids, so every non-tree edge is a candidate.)
	nCands, totalLen := 0, 0
	for _, e := range g.Edges() {
		if !st.isTree[e.ID] {
			nCands++
			totalLen += tr.PathLen(e.U, e.V)
		}
	}
	arena := make([]int, 0, totalLen)
	st.cands = make([]candidate, 0, nCands)
	for _, e := range g.Edges() {
		if st.isTree[e.ID] {
			continue
		}
		start := len(arena)
		arena = tr.AppendPathEdges(arena, e.U, e.V)
		st.cands = append(st.cands, candidate{edge: e.ID, se: arena[start:len(arena):len(arena)]})
	}
	st.uncovered = tr.N() - 1
	return st
}

// ceLen returns |Ce|: uncovered tree edges on the candidate's path.
func (st *state) ceLen(c *candidate) int64 {
	var k int64
	for _, t := range c.se {
		if !st.covered[t] {
			k++
		}
	}
	return k
}

// addToA puts the candidate into the augmentation and marks its whole path
// covered.
func (st *state) addToA(c *candidate) {
	if c.inA {
		return
	}
	c.inA = true
	st.a = append(st.a, c.edge)
	for _, t := range c.se {
		if !st.covered[t] {
			st.covered[t] = true
			st.uncovered--
		}
	}
}

// RoundedExp returns the exponent i of the rounded cost-effectiveness
// ρ̃ = 2^i: the smallest power of two strictly greater than ρ = ce/w
// (§2.1). Requires ce >= 1 and w >= 1 (zero-weight edges are handled in
// preprocessing and ce = 0 edges are never candidates). Exact integer
// arithmetic, overflow-safe. Exported because the Aug_k algorithm of §4
// rounds its cost-effectiveness identically.
func RoundedExp(ce, w int64) int {
	// 2^i·w > ce is monotone in i and first becomes true within one step of
	// the bit-length difference, so probe from there instead of scanning the
	// full exponent range (this runs once per candidate per iteration).
	start := bits.Len64(uint64(ce)) - bits.Len64(uint64(w)) - 1
	if start < -62 {
		start = -62
	}
	for i := start; i <= 62; i++ {
		if pow2TimesExceeds(i, w, ce) {
			return i
		}
	}
	return 63
}

// pow2TimesExceeds reports whether 2^i · w > ce, without overflowing.
func pow2TimesExceeds(i int, w, ce int64) bool {
	if i >= 0 {
		if w > (int64(1)<<62)>>uint(i) {
			return true // 2^i·w exceeds 2^62 > any ce we see
		}
		return (w << uint(i)) > ce
	}
	s := uint(-i)
	if ce > (int64(1)<<62)>>s {
		return false // ce·2^s exceeds 2^62 >= w
	}
	return w > (ce << s)
}

// voteKey orders candidates for tree-edge voting: by random number, then by
// edge ID (the paper's tie-break).
type voteKey struct {
	r  int64
	id int
}

func (k voteKey) less(o voteKey) bool {
	if k.r != o.r {
		return k.r < o.r
	}
	return k.id < o.id
}

// iterate executes one voting iteration (Lines 1–6 of the §3 algorithm).
// It reports whether at least one edge was added to A. All per-iteration
// working sets are dense slices reused across iterations; the per-tree-edge
// vote table is invalidated by bumping st.iter instead of clearing.
func (st *state) iterate() (bool, error) {
	// Line 1–2: rounded cost-effectiveness; candidates achieve the maximum.
	var (
		best      = -1 << 30 // max rounded exponent
		bestExact struct{ ce, w int64 }
		exact     = !st.rounding
	)
	bestExact.w = 1
	st.pool = st.pool[:0]
	for i := range st.cands {
		c := &st.cands[i]
		if c.inA {
			continue
		}
		ce := st.ceLen(c)
		if ce == 0 {
			continue
		}
		w := st.g.Edge(c.edge).W
		if exact {
			// Compare ce/w with bestExact by cross-multiplication.
			cmp := ce*bestExact.w - bestExact.ce*w
			if cmp > 0 {
				bestExact.ce, bestExact.w = ce, w
				st.pool = st.pool[:0]
			}
			if cmp >= 0 {
				st.pool = append(st.pool, scored{i, ce})
			}
			continue
		}
		e := RoundedExp(ce, w)
		if e > best {
			best = e
			st.pool = st.pool[:0]
		}
		if e == best {
			st.pool = append(st.pool, scored{i, ce})
		}
	}
	if len(st.pool) == 0 {
		return false, fmt.Errorf("tap: %d uncovered tree edges but no candidate covers any (graph not 2-edge-connected)", st.uncovered)
	}

	// Line 3: random numbers.
	st.keys = st.keys[:0]
	for _, s := range st.pool {
		st.keys = append(st.keys, voteKey{r: st.rng.Int63(), id: st.cands[s.cand].edge})
	}

	// Line 4: each uncovered tree edge votes for the first candidate
	// covering it.
	st.iter++
	for pi, s := range st.pool {
		k := st.keys[pi]
		for _, t := range st.cands[s.cand].se {
			if st.covered[t] {
				continue
			}
			if st.voteIter[t] != st.iter || k.less(st.voteBest[t]) {
				st.voteIter[t] = st.iter
				st.voteBest[t] = k
			}
		}
	}

	// Line 5: count votes against the coverage state at the start of the
	// iteration; all acceptances happen simultaneously, so collect first.
	st.accepted = st.accepted[:0]
	for pi, s := range st.pool {
		k := st.keys[pi]
		var votes int64
		for _, t := range st.cands[s.cand].se {
			if !st.covered[t] && st.voteIter[t] == st.iter && st.voteBest[t] == k {
				votes++
			}
		}
		if votes*st.voteDenom >= s.ce {
			st.accepted = append(st.accepted, int32(s.cand))
		}
	}
	// Line 6: add the accepted candidates and refresh coverage.
	for _, ci := range st.accepted {
		st.addToA(&st.cands[ci])
	}
	return len(st.accepted) > 0, nil
}
