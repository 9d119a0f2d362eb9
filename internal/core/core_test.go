package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/baselines"
	"repro/internal/graph"
)

// --- Cut enumeration -------------------------------------------------------

// bruteForceMinCuts returns λ(h) and every bipartition crossed by exactly
// λ edges, in sortCuts order, by visiting all 2^(n-1) bipartitions with
// vertex 0 on side 0 (n ≤ 20). A disconnected h has λ = 0, and a graph
// with one vertex reports M()+1 and no cuts.
func bruteForceMinCuts(h *graph.Graph) (int, []Cut) {
	n := h.N()
	lambda := h.M() + 1
	var masks []int
	for mask := 1; mask < 1<<uint(n-1); mask++ {
		side := mask << 1 // vertex v > 0 is inside iff bit v is set
		crossing := 0
		for _, e := range h.Edges() {
			if (side>>uint(e.U))&1 != (side>>uint(e.V))&1 {
				crossing++
			}
		}
		if crossing < lambda {
			lambda, masks = crossing, masks[:0]
		}
		if crossing == lambda {
			masks = append(masks, side)
		}
	}
	cuts := make([]Cut, 0, len(masks))
	for _, side := range masks {
		cuts = append(cuts, newCut(n, func(v int) bool { return (side>>uint(v))&1 != 0 }))
	}
	sortCuts(cuts)
	return lambda, cuts
}

func cutKeySet(cuts []Cut) map[string]bool {
	m := make(map[string]bool, len(cuts))
	for _, c := range cuts {
		m[c.Key()] = true
	}
	return m
}

func TestEnumerateMinCutsBridges(t *testing.T) {
	// Path: every edge is a size-1 cut.
	g := graph.New(5)
	for i := 0; i+1 < 5; i++ {
		g.AddEdge(i, i+1, 1)
	}
	cuts, err := EnumerateMinCuts(g, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cuts) != 4 {
		t.Fatalf("got %d cuts, want 4", len(cuts))
	}
}

func TestEnumerateMinCutsAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, size := range []int{1, 2, 3, 4, 5} {
		for trial := 0; trial < 6; trial++ {
			var h *graph.Graph
			switch size {
			case 1:
				// A tree plus a few chords leaves some bridges.
				h = graph.New(9)
				for i := 0; i+1 < 9; i++ {
					h.AddEdge(i, i+1, 1)
				}
				h.AddEdge(0, 3, 1)
			case 2:
				h = graph.RandomKConnected(8+trial, 2, trial%3, rng, graph.UnitWeights())
			case 3:
				h = graph.Harary(3, 8+trial, graph.UnitWeights())
			default:
				h = graph.RandomKConnected(9+trial, size, trial, rng, graph.UnitWeights())
			}
			lambda, want := bruteForceMinCuts(h)
			if lambda != size {
				continue // only minimum cuts are in scope
			}
			cuts, err := EnumerateMinCuts(h, size, rng)
			if err != nil {
				t.Fatalf("size %d trial %d: %v", size, trial, err)
			}
			got := cutKeySet(cuts)
			if len(got) != len(cuts) || len(got) != len(want) {
				t.Fatalf("size %d trial %d: %d cuts (%d distinct), want %d", size, trial, len(cuts), len(got), len(want))
			}
			for _, c := range want {
				if !got[c.Key()] {
					t.Fatalf("size %d trial %d: missing cut", size, trial)
				}
			}
		}
	}
}

func TestCutCrossesCanonical(t *testing.T) {
	c := newCut(6, func(v int) bool { return v >= 3 })
	if c.contains(0) {
		t.Fatal("vertex 0 must be canonicalised outside")
	}
	if !c.Crosses(2, 3) || c.Crosses(0, 1) || c.Crosses(4, 5) {
		t.Fatal("Crosses wrong")
	}
	// Complement orientation produces the same key.
	c2 := newCut(6, func(v int) bool { return v < 3 })
	if c.Key() != c2.Key() {
		t.Fatal("complementary cuts should share a key")
	}
}

// --- Aug -------------------------------------------------------------------

func TestAugValidation(t *testing.T) {
	g := graph.Cycle(5, graph.UnitWeights())
	if _, err := Aug(g, nil, 2, AugOptions{}); err == nil {
		t.Fatal("expected error without rng")
	}
	if _, err := Aug(g, nil, 1, AugOptions{Rng: rand.New(rand.NewSource(1))}); err == nil {
		t.Fatal("expected error for k=1")
	}
}

func TestAugTwoOnSpanningTree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		g := graph.RandomKConnected(12+rng.Intn(15), 2, 15, rng, graph.RandomWeights(rng, 30))
		// H = a spanning tree (1-edge-connected).
		tree := spanningTreeIDs(g)
		res, err := Aug(g, tree, 2, AugOptions{Rng: rng})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		all := append(append([]int(nil), tree...), res.Added...)
		sub, _ := g.SubgraphOf(all)
		if !sub.TwoEdgeConnected() {
			t.Fatalf("trial %d: H∪A not 2-edge-connected", trial)
		}
	}
}

func spanningTreeIDs(g *graph.Graph) []int {
	uf := graph.NewUnionFind(g.N())
	var out []int
	for _, e := range g.Edges() {
		if uf.Union(e.U, e.V) {
			out = append(out, e.ID)
		}
	}
	return out
}

func TestAugForestInvariantClaim41(t *testing.T) {
	// Claim 4.1: the added set A never contains a cycle.
	rng := rand.New(rand.NewSource(7))
	g := graph.RandomKConnected(20, 2, 25, rng, graph.RandomWeights(rng, 20))
	tree := spanningTreeIDs(g)
	res, err := Aug(g, tree, 2, AugOptions{Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	sub, _ := g.SubgraphOf(res.Added)
	_, count := sub.Components()
	// Forest iff m = n - #components.
	if sub.M() != sub.N()-count {
		t.Fatalf("A has a cycle: m=%d, n=%d, comps=%d", sub.M(), sub.N(), count)
	}
}

func TestAugOnAlreadyConnectedEnough(t *testing.T) {
	g := graph.Harary(3, 10, graph.UnitWeights())
	all := make([]int, g.M())
	for i := range all {
		all[i] = i
	}
	// H = whole graph is already 3-edge-connected: Aug_3 adds nothing.
	res, err := Aug(g, all, 3, AugOptions{Rng: rand.New(rand.NewSource(9))})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Added) != 0 || res.Cuts != 0 {
		t.Fatalf("added=%v cuts=%d, want none", res.Added, res.Cuts)
	}
}

// TestAugLevelFourOnFourConnected drives Aug_4 on an H that is already
// 4-edge-connected. The size-3 enumerator checks λ(H) with the linear cap-3
// pass, which cannot tell 3 from 4, so the empty label enumeration is what
// reports that nothing needs covering. An H with λ = 2 is an error.
func TestAugLevelFourOnFourConnected(t *testing.T) {
	g := graph.Harary(4, 14, graph.UnitWeights())
	h := make([]int, g.M())
	var ring []int
	for i, e := range g.Edges() {
		h[i] = e.ID
		if d := (e.V - e.U + g.N()) % g.N(); d == 1 || d == g.N()-1 {
			ring = append(ring, e.ID)
		}
	}
	g.AddEdge(0, 7, 1)
	g.AddEdge(3, 10, 1)
	res, err := Aug(g, h, 4, AugOptions{Rng: rand.New(rand.NewSource(5))})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cuts != 0 || len(res.Added) != 0 || res.Iterations != 0 {
		t.Fatalf("cuts=%d added=%v iterations=%d, want none", res.Cuts, res.Added, res.Iterations)
	}
	if len(ring) != g.N() {
		t.Fatalf("found %d ring edges, want %d", len(ring), g.N())
	}
	if _, err := Aug(g, ring, 4, AugOptions{Rng: rand.New(rand.NewSource(5))}); err == nil {
		t.Fatal("Aug_4 on a 2-edge-connected H must fail")
	}
}

// --- SolveKECSS ------------------------------------------------------------

func TestSolveKECSSValidation(t *testing.T) {
	g := graph.Cycle(6, graph.UnitWeights())
	if _, err := SolveKECSS(g, 2, KECSSOptions{}); err == nil {
		t.Fatal("expected error without rng")
	}
	if _, err := SolveKECSS(g, 0, KECSSOptions{Rng: rand.New(rand.NewSource(1))}); err == nil {
		t.Fatal("expected error for k=0")
	}
	if _, err := SolveKECSS(g, 3, KECSSOptions{Rng: rand.New(rand.NewSource(1))}); err == nil {
		t.Fatal("expected error: cycle is not 3-edge-connected")
	}
}

func TestSolveKECSSProducesKConnected(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, k := range []int{1, 2, 3, 4} {
		g := graph.RandomKConnected(16, k, 20, rng, graph.RandomWeights(rng, 25))
		res, err := SolveKECSS(g, k, KECSSOptions{Rng: rng})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		sub, _ := g.SubgraphOf(res.Edges)
		if !sub.IsKEdgeConnected(k) {
			t.Fatalf("k=%d: result not %d-edge-connected (λ=%d)", k, k, sub.EdgeConnectivity())
		}
		if res.Weight != g.WeightOf(res.Edges) {
			t.Fatalf("k=%d: weight mismatch", k)
		}
		if len(res.Levels) != k {
			t.Fatalf("k=%d: %d levels", k, len(res.Levels))
		}
	}
}

func TestSolveKECSSWithSimulatedMST(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := graph.RandomKConnected(14, 2, 12, rng, graph.RandomWeights(rng, 10))
	res, err := SolveKECSS(g, 2, KECSSOptions{Rng: rng, SimulateMST: true})
	if err != nil {
		t.Fatal(err)
	}
	sub, _ := g.SubgraphOf(res.Edges)
	if !sub.TwoEdgeConnected() {
		t.Fatal("not 2-edge-connected")
	}
	if res.Levels[0].Rounds == 0 {
		t.Fatal("simulated MST should report measured rounds")
	}
}

func TestSolveKECSSApproxAgainstExact(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	worst := 0.0
	for trial := 0; trial < 8; trial++ {
		g := graph.RandomKConnected(7, 2, 3, rng, graph.RandomWeights(rng, 12))
		if g.M() > baselines.MaxExactKECSSEdges {
			continue
		}
		_, opt, err := baselines.ExactKECSS(g, 2)
		if err != nil {
			t.Fatal(err)
		}
		res, err := SolveKECSS(g, 2, KECSSOptions{Rng: rng})
		if err != nil {
			t.Fatal(err)
		}
		ratio := float64(res.Weight) / float64(opt)
		if ratio > worst {
			worst = ratio
		}
		// Theorem 1.2 bound with generous constants for a 7-vertex graph.
		if ratio > 2*8*math.Log(float64(g.N()))+8 {
			t.Fatalf("trial %d: ratio %.2f too large", trial, ratio)
		}
	}
	t.Logf("worst 2-ECSS (via Aug framework) ratio vs OPT: %.2f", worst)
}

// --- Solve2ECSS ------------------------------------------------------------

func TestSolve2ECSS(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 8; trial++ {
		g := graph.RandomKConnected(25+rng.Intn(25), 2, 40, rng, graph.RandomWeights(rng, 60))
		res, err := Solve2ECSS(g, TwoECSSOptions{Rng: rand.New(rand.NewSource(int64(trial)))})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		sub, _ := g.SubgraphOf(res.Edges)
		if !sub.TwoEdgeConnected() {
			t.Fatalf("trial %d: not 2-edge-connected", trial)
		}
		if res.Weight < res.MSTWeight {
			t.Fatalf("trial %d: weight %d below MST bound %d", trial, res.Weight, res.MSTWeight)
		}
		if res.TAP.Iterations < 1 {
			t.Fatalf("trial %d: no TAP iterations recorded", trial)
		}
	}
}

func TestSolve2ECSSSimulatedMSTAgreesOnWeight(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := graph.RandomKConnected(18, 2, 20, rng, graph.RandomWeights(rng, 15))
	a, err := Solve2ECSS(g, TwoECSSOptions{Rng: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solve2ECSS(g, TwoECSSOptions{Rng: rand.New(rand.NewSource(1)), SimulateMST: true})
	if err != nil {
		t.Fatal(err)
	}
	if a.MSTWeight != b.MSTWeight {
		t.Fatalf("MST weight differs: %d vs %d", a.MSTWeight, b.MSTWeight)
	}
}

// --- Solve3ECSSUnweighted --------------------------------------------------

func TestSolve3ECSSUnweighted(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 6; trial++ {
		g := graph.RandomKConnected(14+rng.Intn(12), 3, 20, rng, graph.UnitWeights())
		res, err := Solve3ECSSUnweighted(g, ThreeECSSOptions{Rng: rand.New(rand.NewSource(int64(trial)))})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		sub, _ := g.SubgraphOf(res.Edges)
		if !sub.IsKEdgeConnected(3) {
			t.Fatalf("trial %d: result not 3-edge-connected", trial)
		}
		if res.Size != len(res.Edges) {
			t.Fatalf("trial %d: size mismatch", trial)
		}
		// Any 3-ECSS has >= 3n/2 edges; the algorithm is O(log n)-approx, so
		// cap generously.
		lower := 3 * g.N() / 2
		if res.Size > lower*int(4*math.Log2(float64(g.N()))+8) {
			t.Fatalf("trial %d: size %d way above O(log n)·OPT", trial, res.Size)
		}
		if res.CorrectionEdges != 0 {
			t.Errorf("trial %d: exact fallback fired (%d edges) — labels too narrow?",
				trial, res.CorrectionEdges)
		}
	}
}

func TestSolve3ECSSRejectsUnderConnected(t *testing.T) {
	g := graph.Cycle(8, graph.UnitWeights())
	if _, err := Solve3ECSSUnweighted(g, ThreeECSSOptions{Rng: rand.New(rand.NewSource(1))}); err == nil {
		t.Fatal("expected error")
	}
}

func TestSolve3ECSSHarary(t *testing.T) {
	// On the minimum 3-edge-connected graph the algorithm must keep
	// essentially everything: |result| within [3n/2, m].
	g := graph.Harary(3, 12, graph.UnitWeights())
	res, err := Solve3ECSSUnweighted(g, ThreeECSSOptions{Rng: rand.New(rand.NewSource(2))})
	if err != nil {
		t.Fatal(err)
	}
	if res.Size < 3*g.N()/2 || res.Size > g.M() {
		t.Fatalf("size %d outside [%d,%d]", res.Size, 3*g.N()/2, g.M())
	}
}

// Property: SolveKECSS output is always k-edge-connected.
func TestSolveKECSSQuick(t *testing.T) {
	f := func(seed int64, kRaw, nRaw uint8) bool {
		k := int(kRaw%3) + 1
		n := int(nRaw%10) + 2*k + 4
		rng := rand.New(rand.NewSource(seed))
		g := graph.RandomKConnected(n, k, n/2, rng, graph.RandomWeights(rng, 9))
		res, err := SolveKECSS(g, k, KECSSOptions{Rng: rng})
		if err != nil {
			return false
		}
		sub, _ := g.SubgraphOf(res.Edges)
		return sub.IsKEdgeConnected(k)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
