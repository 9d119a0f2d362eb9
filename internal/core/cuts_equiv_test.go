package core

import (
	"math/rand"
	"reflect"
	"slices"
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
// ones included, to threeCutsByDeletion, which shares no code with the
// unit-flow engine. Both sort canonically, so the slices must be
// identical.
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
				if want := threeCutsByDeletion(g); !reflect.DeepEqual(got, want) {
					t.Fatalf("flow engine and deletion oracle differ: %d vs %d cuts", len(got), len(want))
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

// threeCutsByDeletion lists the 3-edge cuts of a 3-edge-connected g in
// sortCuts order by brute force over one deleted edge: every 3-cut through
// e is a cut pair of g−e, and its sides are the components of g without
// the three edges.
func threeCutsByDeletion(g *graph.Graph) []Cut {
	seen := map[string]bool{}
	var out []Cut
	for e := 0; e < g.M(); e++ {
		rest, ids := g.SubgraphWithout(map[int]bool{e: true})
		for _, p := range rest.CutPairs() {
			sub, _ := g.SubgraphWithout(map[int]bool{e: true, ids[p.A]: true, ids[p.B]: true})
			comp, _ := sub.Components()
			c := newCut(g.N(), func(v int) bool { return comp[v] != comp[0] })
			if !seen[c.Key()] {
				seen[c.Key()] = true
				out = append(out, c)
			}
		}
	}
	sortCuts(out)
	return out
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
// on a 4-edge-connected graph: size 3 (a unit-flow pass whose flows all
// reach 4) finds no cuts, size 4 finds the 4-cuts, and size 5 is an error
// because λ < 5.
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

// TestCutStoreDetachesOnReset pins cutStore's ownership rule: alloc copies
// the caller's words, and a reset never clobbers a cut handed out before
// it.
func TestCutStoreDetachesOnReset(t *testing.T) {
	var cs cutStore
	cs.reset(130) // 3 words
	a := []uint64{1, 2, 3}
	c1 := cs.alloc(a)
	a[0] = 77
	if c1.side[0] != 1 {
		t.Fatal("stored cut aliases the caller's words")
	}
	cs.reset(130)
	for i := 0; i < 64; i++ { // past the first block
		cs.alloc([]uint64{9, 9, 9})
	}
	if !reflect.DeepEqual(c1.side, []uint64{1, 2, 3}) {
		t.Fatalf("reset clobbered a cut handed out earlier: %v", c1.side)
	}
}

// TestTreeSidesMatchComponents pins the tree sides of every bridge and
// every 2-edge cut to the components left by deleting the cut's edges, on
// graphs with small and large sides, so both the set and the complement
// writes of sideOf run.
func TestTreeSidesMatchComponents(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	u := graph.UnitWeights()
	path := graph.New(70)
	for i := 0; i+1 < 70; i++ {
		path.AddEdge(i, (i+37)%70, 1)
	}
	for _, g := range []*graph.Graph{
		graph.RandomKConnected(12, 2, 8, rng, u),
		graph.RandomKConnected(70, 1, 20, rng, u),
		graph.Cycle(130, u),
		path,
	} {
		ts := newTreeSides(g)
		for a := 0; a < g.M(); a++ {
			for b := -1; b < a; b++ {
				skip := map[int]bool{a: true}
				edges := []int{a}
				if b >= 0 {
					skip[b] = true
					edges = append(edges, b)
				}
				sub, _ := g.SubgraphWithout(skip)
				comp, count := sub.Components()
				if count != 2 {
					continue
				}
				want := newCut(g.N(), func(v int) bool { return comp[v] != comp[0] })
				if got := ts.sideOf(edges...); !reflect.DeepEqual(got, want.side) {
					t.Fatalf("n=%d cut %v: side %x, want %x", g.N(), edges, got, want.side)
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

// TestEnumerateMinCutsLargeFamilies checks the unit-flow engine far beyond
// brute force, on families whose minimum cuts are known in closed
// form: Harary(k, n) for k = 3, 4 and large n has exactly the n singleton
// cuts, and the doubled cycle on n vertices has one 4-cut per arc {i..j}
// of the cycle avoiding vertex 0, n(n−1)/2 in all.
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

// FuzzEnumerateMinCuts pins EnumerateMinCuts at sizes 1–6 to brute force
// on multigraphs with n ≤ 12: on λ = size inputs it must return exactly the
// minimum cuts, in canonical order from size 3 on and in crossing-edge
// order at sizes 1–2; on λ > size none, and on λ < size an error. It also
// pins the random stream: size 3 draws one Int63 whenever λ ≥ 3, larger
// sizes only when λ = size, and sizes 1–2 draw nothing and give the same
// cuts with a nil rng. Its seeds are the corpus families small enough to
// decode, at their own λ and one off it.
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
		graph.Cycle(9, u),
		graph.CliqueChain(3, 4, 1, u),
	} {
		lam := g.EdgeConnectivity()
		for _, size := range []int{lam - 1, lam, lam + 1} {
			f.Add(encodeMultigraph(g), uint8(size-1), int64(size))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, sizeByte uint8, seed int64) {
		g := fuzzMultigraph(data, 12)
		size := 1 + int(sizeByte)%6
		rng := rand.New(rand.NewSource(seed))
		got, err := EnumerateMinCuts(g, size, rng)
		lambda, want := bruteForceMinCuts(g)
		draws := 0
		if (size == 3 && lambda >= 3) || (size > 3 && lambda == size) {
			draws = 1
		}
		ref := rand.New(rand.NewSource(seed))
		for i := 0; i < draws; i++ {
			ref.Int63()
		}
		if next, wantNext := rng.Int63(), ref.Int63(); next != wantNext {
			t.Fatalf("λ=%d, size %d: the rng moved other than %d draws", lambda, size, draws)
		}
		if size <= 2 {
			if again, errAgain := EnumerateMinCuts(g, size, nil); !reflect.DeepEqual(again, got) || (errAgain == nil) != (err == nil) {
				t.Fatalf("size %d: a nil rng changed the result", size)
			}
			checkCrossingOrder(t, g, got)
			got = slices.Clone(got)
			sortCuts(got)
		}
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

// FuzzEnumerateMinCutsSize3 pins size 3 alone to brute force on multigraphs
// with n ≤ 10: on λ=3 inputs it must return exactly the minimum cuts in
// canonical order, on λ>3 none, and on λ<3 or disconnected inputs an error.
// Its corpus holds hand-picked cubic and near-cubic families; the same
// graphs seed FuzzEnumerateMinCuts at size byte 2.
func FuzzEnumerateMinCutsSize3(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		g := fuzzMultigraph(data, 10)
		got, err := EnumerateMinCuts(g, 3, rand.New(rand.NewSource(seed)))
		lambda, want := bruteForceMinCuts(g)
		switch {
		case lambda < 3:
			if err == nil {
				t.Fatalf("λ=%d: want an error, got %d cuts", lambda, len(got))
			}
		case err != nil:
			t.Fatalf("λ=%d: %v", lambda, err)
		case lambda > 3:
			if len(got) != 0 {
				t.Fatalf("λ=%d: want no 3-cuts, got %d", lambda, len(got))
			}
		case !reflect.DeepEqual(got, want):
			t.Fatalf("λ=3: got %d cuts, brute force %d", len(got), len(want))
		}
	})
}

// checkCrossingOrder checks that cuts come in ascending order of their
// crossing edge IDs, compared as sequences: bridge order at size 1 and
// graph.CutPairs order at size 2.
func checkCrossingOrder(t *testing.T, g *graph.Graph, cuts []Cut) {
	t.Helper()
	var prev []int
	for i, c := range cuts {
		var ids []int
		for _, e := range g.Edges() {
			if c.Crosses(e.U, e.V) {
				ids = append(ids, e.ID)
			}
		}
		if i > 0 && slices.Compare(prev, ids) >= 0 {
			t.Fatalf("cut %d crosses %v, after %v", i, ids, prev)
		}
		prev = ids
	}
}

// fuzzMultigraph decodes data into a multigraph on 2..maxN vertices with at
// most maxN(maxN−1)/2 edges: the first byte picks n, and each following
// byte pair is one edge, endpoints taken mod n (parallel edges occur; a
// pair naming one vertex twice is skipped, as graphs have no self-loops).
func fuzzMultigraph(data []byte, maxN int) *graph.Graph {
	if len(data) == 0 {
		return graph.New(2)
	}
	n := 2 + int(data[0])%(maxN-1)
	g := graph.New(n)
	for i := 1; i+1 < len(data) && g.M() < maxN*(maxN-1)/2; i += 2 {
		if u, v := int(data[i])%n, int(data[i+1])%n; u != v {
			g.AddEdge(u, v, 1)
		}
	}
	return g
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
