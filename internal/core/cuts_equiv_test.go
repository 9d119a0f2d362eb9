package core

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/mst"
)

// multiplyEdges returns g with every edge duplicated `times` times, which
// multiplies the edge connectivity by `times` (families like Grid or Cycle
// whose λ is pinned at 2 join the size >= 3 corpus this way; the model
// permits multigraphs).
func multiplyEdges(g *graph.Graph, times int) *graph.Graph {
	d := graph.New(g.N())
	for _, e := range g.Edges() {
		for i := 0; i < times; i++ {
			d.AddEdge(e.U, e.V, e.W)
		}
	}
	return d
}

// equivCase is one corpus instance: a generator-family representative whose
// edge connectivity (pinned by `lambda`) lies in {3,4,5}.
type equivCase struct {
	name   string
	lambda int
	build  func() *graph.Graph
}

// level4H returns the subgraph H that SolveKECSS's level 4 augments on a
// kecss-cuts-shaped input (k=4, n=128, 256 extra edges, weights up to 100):
// the MST plus the Aug_2 and Aug_3 additions, λ(H) = 3.
func level4H(seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.RandomKConnected(128, 4, 256, rng, graph.RandomWeights(rng, 100))
	h, _ := mst.Kruskal(g)
	for k := 2; k <= 3; k++ {
		ar, err := Aug(g, h, k, AugOptions{Rng: rng})
		if err != nil {
			panic(err)
		}
		h = append(h, ar.Added...)
	}
	hs, _ := g.SubgraphOf(h)
	return hs
}

func equivCorpus() []equivCase {
	u := graph.UnitWeights()
	return []equivCase{
		{"harary/k=3", 3, func() *graph.Graph { return graph.Harary(3, 14, u) }},
		{"harary/k=4", 4, func() *graph.Graph { return graph.Harary(4, 14, u) }},
		{"harary/k=5", 5, func() *graph.Graph { return graph.Harary(5, 14, u) }},
		{"cycle-x2/k=4", 4, func() *graph.Graph { return multiplyEdges(graph.Cycle(12, u), 2) }},
		{"circulant/k=4", 4, func() *graph.Graph { return graph.Circulant(13, 2, u) }},
		{"randomk/k=4a", 4, func() *graph.Graph {
			return graph.RandomKConnected(14, 3, 6, rand.New(rand.NewSource(11)), u)
		}},
		{"randomk/k=4b", 4, func() *graph.Graph {
			return graph.RandomKConnected(16, 4, 2, rand.New(rand.NewSource(7)), u)
		}},
		{"grid-x2/k=4", 4, func() *graph.Graph { return multiplyEdges(graph.Grid(3, 5, u), 2) }},
		{"cliquechain/k=3", 3, func() *graph.Graph { return graph.CliqueChain(3, 5, 3, u) }},
		{"cliquechain/k=4", 4, func() *graph.Graph { return graph.CliqueChain(3, 6, 4, u) }},
		{"cliquechain/k=5", 5, func() *graph.Graph { return graph.CliqueChain(2, 6, 5, u) }},
		{"geometric/k=3", 3, func() *graph.Graph {
			return graph.RandomGeometric(16, 0.30, 2, rand.New(rand.NewSource(2)))
		}},
		{"geometric/k=5", 5, func() *graph.Graph {
			return graph.RandomGeometric(16, 0.35, 3, rand.New(rand.NewSource(1)))
		}},
		{"chunglu/k=5", 5, func() *graph.Graph {
			return graph.ChungLu(16, 2.5, 6, 3, rand.New(rand.NewSource(1)), u)
		}},
		{"fattree-x2/k=4", 4, func() *graph.Graph { return multiplyEdges(graph.FatTree(4, u), 2) }},
		{"paperfig2-x2/k=4", 4, func() *graph.Graph { return multiplyEdges(graph.PaperFigure2Graph(), 2) }},
		{"triple-edge/k=3", 3, tripleEdge},
		{"harary/k=3/n=255", 3, func() *graph.Graph { return graph.Harary(3, 255, u) }},
		{"kecss-cuts-H/seed=1", 3, func() *graph.Graph { return level4H(1) }},
		{"kecss-cuts-H/seed=2", 3, func() *graph.Graph { return level4H(2) }},
	}
}

// bruteForceMaxN bounds the corpus cases checked against brute force: 2^19
// bipartitions at most.
const bruteForceMaxN = 20

// TestEnumerateMinCutsEquivalenceCorpus pins EnumerateMinCuts to exact
// oracles across the ten generator families at sizes 3–5: to brute force
// over every bipartition wherever n ≤ 20, and on every λ=3 case, large
// ones included, to the unit-flow engine called directly, an enumerator
// independent of the cycle-space labels that serve size 3. Both sort
// canonically, so the slices must be identical.
func TestEnumerateMinCutsEquivalenceCorpus(t *testing.T) {
	for _, tc := range equivCorpus() {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.build()
			if lam := g.EdgeConnectivity(); lam != tc.lambda {
				t.Fatalf("corpus drift: λ=%d, case pins %d", lam, tc.lambda)
			}
			got, err := EnumerateMinCuts(g, tc.lambda, rand.New(rand.NewSource(202)))
			if err != nil {
				t.Fatalf("enumerate: %v", err)
			}
			if len(got) == 0 {
				t.Fatal("no cuts found")
			}
			if tc.lambda == 3 {
				flow, err := cutsByFlow(g, 3, rand.New(rand.NewSource(202)))
				if err != nil {
					t.Fatalf("flow engine: %v", err)
				}
				if !reflect.DeepEqual(got, flow) {
					t.Fatalf("label path and flow engine differ: %d vs %d cuts", len(got), len(flow))
				}
			}
			if g.N() > bruteForceMaxN {
				return
			}
			if lam, want := bruteForceMinCuts(g); lam != tc.lambda || !reflect.DeepEqual(got, want) {
				t.Fatalf("brute force: λ=%d, %d cuts; enumerate %d cuts", lam, len(want), len(got))
			}
		})
	}
}

// TestEnumerateMinCutsConcurrentDeterministic pins the determinism contract
// of the unit-flow engine (λ = 4 here) under concurrent enumeration: its
// scratch comes from a shared sync.Pool, so goroutines enumerating at once
// must not interfere (run with -race).
func TestEnumerateMinCutsConcurrentDeterministic(t *testing.T) {
	g := graph.RandomKConnected(48, 4, 10, rand.New(rand.NewSource(5)), graph.UnitWeights())
	size := g.EdgeConnectivity()
	if size != 4 {
		t.Fatalf("instance drift: λ=%d, want 4", size)
	}
	want, err := EnumerateMinCuts(g, size, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("no cuts found")
	}
	var wg sync.WaitGroup
	results := make([][]Cut, 8)
	errs := make([]error, 8)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = EnumerateMinCuts(g, size, rand.New(rand.NewSource(9)))
		}(i)
	}
	wg.Wait()
	for i, r := range results {
		if errs[i] != nil {
			t.Fatalf("concurrent %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(want, r) {
			t.Fatalf("concurrent enumeration %d differs", i)
		}
	}
}

// TestEnumerateMinCutsChecksConnectivity pins the enumerator's own λ check
// on a 4-edge-connected graph: size 3 (the linear cap-3 check, then an empty
// label enumeration) finds no cuts, size 4 (one unit-flow pass) finds the
// 4-cuts, and size 5 is an error because λ < 5.
func TestEnumerateMinCutsChecksConnectivity(t *testing.T) {
	g := graph.Harary(4, 14, graph.UnitWeights())
	none, err := EnumerateMinCuts(g, 3, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if len(none) != 0 {
		t.Fatalf("λ = 4 > size 3 must report no cuts, got %d", len(none))
	}
	got, err := EnumerateMinCuts(g, 4, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if lam, want := bruteForceMinCuts(g); lam != 4 || !reflect.DeepEqual(got, want) {
		t.Fatalf("size 4: got %d cuts, brute force finds %d (λ=%d)", len(got), len(want), lam)
	}
	if _, err := EnumerateMinCuts(g, 5, rand.New(rand.NewSource(3))); err == nil {
		t.Fatal("λ = 4 < size 5 must error")
	}
}

// TestCutInterner covers dedup, collision-safe equality, and block
// detachment on reset.
func TestCutInterner(t *testing.T) {
	var it cutInterner
	it.reset(130) // 3 words
	a := []uint64{1, 2, 3}
	b := []uint64{1, 2, 4}
	c1, new1 := it.add(a)
	if !new1 {
		t.Fatal("first add not new")
	}
	if _, new2 := it.add(a); new2 {
		t.Fatal("duplicate add reported new")
	}
	if _, new3 := it.add(b); !new3 {
		t.Fatal("distinct add not new")
	}
	// Mutating the input after add must not affect the interned copy.
	a[0] = 77
	if _, isNew := it.add([]uint64{1, 2, 3}); isNew {
		t.Fatal("interned copy was aliased to caller memory")
	}
	old := c1.side
	it.reset(130)
	if _, isNew := it.add([]uint64{1, 2, 3}); !isNew {
		t.Fatal("reset kept old entries")
	}
	if old[0] != 1 || old[1] != 2 || old[2] != 3 {
		t.Fatal("reset clobbered a cut handed out earlier")
	}
}

// TestComponentsSkipping pins the scan against the SubgraphWithout oracle.
func TestComponentsSkipping(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := graph.RandomKConnected(12, 2, 8, rng, graph.UnitWeights())
	comp := make([]int, g.N())
	queue := make([]int, 0, g.N())
	for a := 0; a < g.M(); a++ {
		for b := -1; b < a; b++ {
			skip := map[int]bool{a: true}
			if b >= 0 {
				skip[b] = true
			}
			sub, _ := g.SubgraphWithout(skip)
			wantComp, wantCount := sub.Components()
			gotCount := componentsSkipping(g, comp, queue, a, b, -1)
			if gotCount != wantCount {
				t.Fatalf("skip{%d,%d}: %d components, want %d", a, b, gotCount, wantCount)
			}
			for v := range wantComp {
				if comp[v] != wantComp[v] {
					t.Fatalf("skip{%d,%d}: vertex %d in comp %d, want %d", a, b, v, comp[v], wantComp[v])
				}
			}
		}
	}
}

// tripleEdge is the smallest λ=3 instance: two vertices, three parallel
// edges.
func tripleEdge() *graph.Graph {
	g := graph.New(2)
	for i := 0; i < 3; i++ {
		g.AddEdge(0, 1, 1)
	}
	return g
}

// TestEnumerateMinCutsTwoVertexMultigraph: on the smallest size >= 3
// instance the spanning tree is one edge and both others cover it.
func TestEnumerateMinCutsTwoVertexMultigraph(t *testing.T) {
	cuts, err := EnumerateMinCuts(tripleEdge(), 3, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if len(cuts) != 1 || !cuts[0].Crosses(0, 1) {
		t.Fatalf("want the single {0}|{1} cut, got %d cuts", len(cuts))
	}
}

// TestEnumerateMinCutsLargeFamilies checks both exact enumerators far
// beyond brute force, on families whose minimum cuts are known in closed
// form: Harary(k, n) for k = 3, 4 and large n has exactly the n singleton
// cuts, and the doubled cycle on n vertices has one 4-cut per arc {i..j}
// of the cycle avoiding vertex 0, n(n−1)/2 in all. At size 3 the label path
// and the flow engine must also agree slice for slice.
func TestEnumerateMinCutsLargeFamilies(t *testing.T) {
	u := graph.UnitWeights()
	singletons := func(t *testing.T, g *graph.Graph, cuts []Cut) {
		t.Helper()
		if len(cuts) != g.N() {
			t.Fatalf("%d cuts, want the %d singletons", len(cuts), g.N())
		}
		for _, c := range cuts {
			in := 0
			for v := 0; v < g.N(); v++ {
				if c.contains(v) {
					in++
				}
			}
			if in != 1 && in != g.N()-1 {
				t.Fatalf("a cut with %d vertices on one side is not a singleton", in)
			}
		}
	}
	t.Run("harary-ring/k=3/n=4096", func(t *testing.T) {
		g := graph.Harary(3, 4096, u)
		got, err := EnumerateMinCuts(g, 3, rand.New(rand.NewSource(77)))
		if err != nil {
			t.Fatal(err)
		}
		singletons(t, g, got)
		flow, err := cutsByFlow(g, 3, rand.New(rand.NewSource(77)))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, flow) {
			t.Fatalf("label path and flow engine differ: %d vs %d cuts", len(got), len(flow))
		}
	})
	t.Run("harary-ring/k=4/n=4096", func(t *testing.T) {
		g := graph.Harary(4, 4096, u)
		got, err := EnumerateMinCuts(g, 4, rand.New(rand.NewSource(77)))
		if err != nil {
			t.Fatal(err)
		}
		singletons(t, g, got)
	})
	t.Run("cycle-x2/k=4/n=200", func(t *testing.T) {
		const n = 200
		g := multiplyEdges(graph.Cycle(n, u), 2)
		got, err := EnumerateMinCuts(g, 4, rand.New(rand.NewSource(77)))
		if err != nil {
			t.Fatal(err)
		}
		var want []Cut
		for i := 1; i < n; i++ {
			for j := i; j < n; j++ {
				want = append(want, newCut(n, func(v int) bool { return v >= i && v <= j }))
			}
		}
		sortCuts(want)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%d cuts, want the %d arcs", len(got), len(want))
		}
	})
}

// FuzzEnumerateMinCuts pins EnumerateMinCuts at sizes 3–6 to brute force on
// multigraphs with n ≤ 12: on λ = size inputs it must return exactly the
// minimum cuts in canonical order, on λ > size none, and on λ < size an
// error. Its seeds are the corpus families small enough to decode, at their
// own λ and one off it.
func FuzzEnumerateMinCuts(f *testing.F) {
	u := graph.UnitWeights()
	for _, g := range []*graph.Graph{
		graph.Harary(3, 12, u),
		graph.Harary(4, 12, u),
		graph.Harary(5, 12, u),
		graph.Harary(6, 12, u),
		multiplyEdges(graph.Cycle(12, u), 2),
		multiplyEdges(graph.Cycle(7, u), 3),
		graph.Circulant(12, 2, u),
		graph.CliqueChain(2, 6, 5, u),
		multiplyEdges(graph.PaperFigure2Graph(), 2),
		tripleEdge(),
	} {
		lam := g.EdgeConnectivity()
		for _, size := range []int{lam - 1, lam, lam + 1} {
			f.Add(encodeMultigraph(g), uint8(size-3), int64(size))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, sizeByte uint8, seed int64) {
		g := fuzzMultigraph(data, 12)
		size := 3 + int(sizeByte)%4
		got, err := EnumerateMinCuts(g, size, rand.New(rand.NewSource(seed)))
		lambda, want := bruteForceMinCuts(g)
		switch {
		case lambda < size:
			if err == nil {
				t.Fatalf("λ=%d < size %d: want an error, got %d cuts", lambda, size, len(got))
			}
		case err != nil:
			t.Fatalf("λ=%d, size %d: %v", lambda, size, err)
		case lambda > size:
			if len(got) != 0 {
				t.Fatalf("λ=%d > size %d: want no cuts, got %d", lambda, size, len(got))
			}
		case !reflect.DeepEqual(got, want):
			t.Fatalf("λ=size=%d: got %d cuts, brute force %d", size, len(got), len(want))
		}
	})
}

// encodeMultigraph is the inverse of fuzzMultigraph for graphs it can
// decode: n−2 in the first byte, then one byte pair per edge.
func encodeMultigraph(g *graph.Graph) []byte {
	data := []byte{byte(g.N() - 2)}
	for _, e := range g.Edges() {
		data = append(data, byte(e.U), byte(e.V))
	}
	return data
}
