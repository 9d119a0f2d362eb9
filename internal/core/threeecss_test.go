package core

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

func TestSolve3ECSSWeighted(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 5; trial++ {
		g := graph.RandomKConnected(14+rng.Intn(10), 3, 18, rng, graph.RandomWeights(rng, 30))
		res, err := Solve3ECSSWeighted(g, ThreeECSSOptions{Rng: rand.New(rand.NewSource(int64(trial)))})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		sub, _ := g.SubgraphOf(res.Edges)
		if !sub.IsKEdgeConnected(3) {
			t.Fatalf("trial %d: weighted 3-ECSS result not 3-edge-connected", trial)
		}
		if res.Weight != g.WeightOf(res.Edges) {
			t.Fatalf("trial %d: weight %d != recomputed %d", trial, res.Weight, g.WeightOf(res.Edges))
		}
		if res.Weight <= 0 || res.Size != len(res.Edges) {
			t.Fatalf("trial %d: bad bookkeeping: %+v", trial, res)
		}
	}
}

func TestSolve3ECSSWeightedPrefersLightEdges(t *testing.T) {
	// A 4-edge-connected circulant where one copy of every chord class is
	// free and the rest expensive: the weighted variant should land well
	// under the all-expensive weight.
	rng := rand.New(rand.NewSource(33))
	g := graph.Circulant(12, 2, func(i int) int64 {
		if i%2 == 0 {
			return 1
		}
		return 100
	})
	_ = rng
	res, err := Solve3ECSSWeighted(g, ThreeECSSOptions{Rng: rand.New(rand.NewSource(2))})
	if err != nil {
		t.Fatal(err)
	}
	sub, _ := g.SubgraphOf(res.Edges)
	if !sub.IsKEdgeConnected(3) {
		t.Fatal("not 3-edge-connected")
	}
	if res.Weight >= g.TotalWeight() {
		t.Fatalf("weighted variant kept everything: %d >= %d", res.Weight, g.TotalWeight())
	}
}

func TestSolve3ECSSWeightedBaseSelection(t *testing.T) {
	// The weighted variant must build its base with the §3 weighted 2-ECSS
	// (MST + TAP), not the BFS-tree 2-approximation: with the same seed, the
	// base is exactly Solve2ECSS's edge set, and every base edge survives
	// into the final answer (the loop only ever adds).
	rng := rand.New(rand.NewSource(51))
	g := graph.RandomKConnected(16, 3, 20, rng, graph.RandomWeights(rng, 40))
	base, err := Solve2ECSS(g, TwoECSSOptions{Rng: rand.New(rand.NewSource(9))})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve3ECSSWeighted(g, ThreeECSSOptions{Rng: rand.New(rand.NewSource(9))})
	if err != nil {
		t.Fatal(err)
	}
	if res.BaseSize != len(base.Edges) {
		t.Fatalf("BaseSize %d != weighted 2-ECSS size %d", res.BaseSize, len(base.Edges))
	}
	in := make(map[int]bool, len(res.Edges))
	for _, id := range res.Edges {
		in[id] = true
	}
	for _, id := range base.Edges {
		if !in[id] {
			t.Fatalf("base edge %d missing from the final subgraph", id)
		}
	}
}

func TestSolve3ECSSWeightedZeroWeightEdges(t *testing.T) {
	// Weight-0 candidates have infinite cost-effectiveness (the W == 0
	// branch skips RoundedExp entirely), so as long as a free candidate
	// covers anything, no priced edge enters the activation pool: on a ring
	// of weight-1 edges with weight-0 distance-2 chords, the augmentation
	// must be entirely free.
	n := 12
	g := graph.New(n)
	for v := 0; v < n; v++ {
		g.AddEdge(v, (v+1)%n, 1)
	}
	for v := 0; v < n; v++ {
		g.AddEdge(v, (v+2)%n, 0)
	}
	res, err := Solve3ECSSWeighted(g, ThreeECSSOptions{Rng: rand.New(rand.NewSource(4))})
	if err != nil {
		t.Fatal(err)
	}
	sub, _ := g.SubgraphOf(res.Edges)
	if !sub.IsKEdgeConnected(3) {
		t.Fatal("not 3-edge-connected")
	}
	freeSelected := 0
	for _, id := range res.Edges {
		if g.Edge(id).W == 0 {
			freeSelected++
		}
	}
	if freeSelected == 0 {
		t.Fatal("no weight-0 edge was selected")
	}
	// The base must pick up all n ring edges at most (weight n); everything
	// beyond it must have been free.
	if res.Weight > int64(n) {
		t.Fatalf("augmentation paid for priced edges: weight %d > ring weight %d", res.Weight, n)
	}
}

func TestSolve3ECSSWeightedNarrowLabelsStillExact(t *testing.T) {
	// Narrowing LabelBits floods the labeling with collisions — but the
	// collision direction is one-sided: Property 5.1's label equality holds
	// with certainty for genuine cut pairs (every fundamental cycle crosses
	// a 2-cut an even number of times), so the Claim 5.10 termination can
	// falsely reject, never falsely certify. The solver therefore stays
	// exact at any width, with the exact correction path untriggered
	// (CorrectionEdges = 0 — see TestCorrectTo3EC for the path itself).
	rng := rand.New(rand.NewSource(53))
	g := graph.RandomKConnected(14, 3, 16, rng, graph.RandomWeights(rng, 25))
	for _, bits := range []int{1, 2, 4} {
		res, err := Solve3ECSSWeighted(g, ThreeECSSOptions{
			Rng:       rand.New(rand.NewSource(int64(bits))),
			LabelBits: bits,
		})
		if err != nil {
			t.Fatalf("bits=%d: %v", bits, err)
		}
		sub, _ := g.SubgraphOf(res.Edges)
		if !sub.IsKEdgeConnected(3) {
			t.Fatalf("bits=%d: output not 3-edge-connected", bits)
		}
		if res.CorrectionEdges != 0 {
			t.Fatalf("bits=%d: %d corrections — the one-sided error argument is broken",
				bits, res.CorrectionEdges)
		}
	}
}

// circulant12 builds the {±1, ±2} circulant on n vertices: the first n edge
// IDs are the weight-1 ring, the next n the distance-2 chords.
func circulant12(n int, chordW int64) *graph.Graph {
	g := graph.New(n)
	for v := 0; v < n; v++ {
		g.AddEdge(v, (v+1)%n, 1)
	}
	for v := 0; v < n; v++ {
		g.AddEdge(v, (v+2)%n, chordW)
	}
	return g
}

func TestCorrectTo3EC(t *testing.T) {
	// The exact correction path is unreachable through the solvers on a
	// valid input (see TestSolve3ECSSWeightedNarrowLabelsStillExact), so
	// exercise it directly: a 2-edge-connected ring selection inside a
	// 4-edge-connected circulant must be augmented to 3-edge-connectivity,
	// one covered cut pair per round trip.
	n := 12
	g := circulant12(n, 1)
	sel := make([]int, 0, n)
	selected := make([]bool, g.M())
	for id := 0; id < n; id++ { // the ring: 2EC, every adjacent edge pair is a cut pair
		sel = append(sel, id)
		selected[id] = true
	}
	added, err := correctTo3EC(g, selected, &sel)
	if err != nil {
		t.Fatal(err)
	}
	if added == 0 {
		t.Fatal("no corrections on a non-3EC selection")
	}
	if added != len(sel)-n {
		t.Fatalf("reported %d corrections, selection grew by %d", added, len(sel)-n)
	}
	sub, _ := g.SubgraphOf(sel)
	if !sub.IsKEdgeConnected(3) {
		t.Fatal("correction loop did not reach 3-edge-connectivity")
	}

	// On a host that is not 3-edge-connected the loop must report that no
	// edge can cover the remaining pair instead of spinning.
	ring := graph.Cycle(6, graph.UnitWeights())
	all := make([]int, ring.M())
	allSel := make([]bool, ring.M())
	for i := range all {
		all[i] = i
		allSel[i] = true
	}
	if _, err := correctTo3EC(ring, allSel, &all); err == nil {
		t.Fatal("expected an error on an under-connected host")
	}
}

func TestSolve3ECSSWeightedVsUnweightedObjective(t *testing.T) {
	// On a weighted instance, the weighted variant should not be (much)
	// heavier than the unweighted one, which ignores weights entirely.
	rng := rand.New(rand.NewSource(37))
	g := graph.RandomKConnected(18, 3, 24, rng, graph.RandomWeights(rng, 50))
	w, err := Solve3ECSSWeighted(g, ThreeECSSOptions{Rng: rand.New(rand.NewSource(3))})
	if err != nil {
		t.Fatal(err)
	}
	u, err := Solve3ECSSUnweighted(g, ThreeECSSOptions{Rng: rand.New(rand.NewSource(3))})
	if err != nil {
		t.Fatal(err)
	}
	if w.Weight > 3*u.Weight {
		t.Fatalf("weighted variant (%d) much heavier than weight-blind one (%d)", w.Weight, u.Weight)
	}
}
