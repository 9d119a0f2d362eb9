package graph

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestAddEdgeAndAccessors(t *testing.T) {
	g := New(4)
	id := g.AddEdge(0, 1, 5)
	if id != 0 {
		t.Fatalf("first edge ID = %d, want 0", id)
	}
	id2 := g.AddEdge(1, 2, 7)
	if id2 != 1 {
		t.Fatalf("second edge ID = %d, want 1", id2)
	}
	if g.N() != 4 || g.M() != 2 {
		t.Fatalf("N=%d M=%d, want 4, 2", g.N(), g.M())
	}
	if g.Degree(1) != 2 || g.Degree(3) != 0 {
		t.Fatalf("degrees wrong: deg(1)=%d deg(3)=%d", g.Degree(1), g.Degree(3))
	}
	if w := g.TotalWeight(); w != 12 {
		t.Fatalf("TotalWeight = %d, want 12", w)
	}
	if got := g.Edge(0).Other(0); got != 1 {
		t.Fatalf("Other(0) = %d, want 1", got)
	}
	if got := g.Edge(0).Other(1); got != 0 {
		t.Fatalf("Other(1) = %d, want 0", got)
	}
}

func TestAddEdgePanics(t *testing.T) {
	tests := []struct {
		name string
		f    func()
	}{
		{"self-loop", func() { New(3).AddEdge(1, 1, 0) }},
		{"out of range", func() { New(3).AddEdge(0, 3, 0) }},
		{"negative weight", func() { New(3).AddEdge(0, 1, -1) }},
		{"negative n", func() { New(-1) }},
		{"other non-endpoint", func() { e := Edge{U: 0, V: 1}; e.Other(2) }},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", tc.name)
				}
			}()
			tc.f()
		})
	}
}

func TestParallelEdgesAllowed(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1, 1)
	g.AddEdge(0, 1, 2)
	if g.M() != 2 {
		t.Fatalf("M = %d, want 2", g.M())
	}
	if !g.TwoEdgeConnected() {
		t.Fatal("parallel pair should be 2-edge-connected")
	}
}

func TestBFSDistancesOnCycle(t *testing.T) {
	g := Cycle(6, UnitWeights())
	res := g.BFS(0)
	want := []int{0, 1, 2, 3, 2, 1}
	for v, d := range want {
		if res.Dist[v] != d {
			t.Errorf("Dist[%d] = %d, want %d", v, res.Dist[v], d)
		}
	}
	if res.Parent[0] != -1 {
		t.Errorf("source parent = %d, want -1", res.Parent[0])
	}
	if len(res.Order) != 6 {
		t.Errorf("visited %d vertices, want 6", len(res.Order))
	}
}

func TestBFSUnreachable(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1)
	res := g.BFS(0)
	if res.Dist[2] != -1 || res.Parent[2] != -1 {
		t.Fatalf("unreachable vertex should have Dist/Parent -1, got %d/%d", res.Dist[2], res.Parent[2])
	}
}

func TestDiameter(t *testing.T) {
	tests := []struct {
		name string
		g    *Graph
		want int
	}{
		{"cycle6", Cycle(6, UnitWeights()), 3},
		{"cycle7", Cycle(7, UnitWeights()), 3},
		{"grid3x4", Grid(3, 4, UnitWeights()), 5},
		{"single edge", func() *Graph { g := New(2); g.AddEdge(0, 1, 1); return g }(), 1},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.g.Diameter(); got != tc.want {
				t.Errorf("Diameter = %d, want %d", got, tc.want)
			}
			if est := tc.g.DiameterEstimate(); est < tc.want || est > 2*tc.want {
				t.Errorf("DiameterEstimate = %d, want within [D, 2D] = [%d, %d]", est, tc.want, 2*tc.want)
			}
		})
	}
}

func TestComponents(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 1, 1)
	g.AddEdge(3, 4, 1)
	comp, count := g.Components()
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	if comp[0] != comp[1] || comp[3] != comp[4] || comp[0] == comp[2] || comp[2] == comp[3] {
		t.Fatalf("bad component assignment: %v", comp)
	}
}

func TestUnionFind(t *testing.T) {
	uf := NewUnionFind(5)
	if uf.Sets() != 5 {
		t.Fatalf("Sets = %d, want 5", uf.Sets())
	}
	if !uf.Union(0, 1) {
		t.Fatal("first union should merge")
	}
	if uf.Union(1, 0) {
		t.Fatal("repeated union should not merge")
	}
	uf.Union(2, 3)
	uf.Union(0, 2)
	if !uf.Same(1, 3) {
		t.Fatal("1 and 3 should be connected")
	}
	if uf.Same(1, 4) {
		t.Fatal("4 should be isolated")
	}
	if uf.Sets() != 2 {
		t.Fatalf("Sets = %d, want 2", uf.Sets())
	}
}

func TestBridgesOnKnownGraphs(t *testing.T) {
	t.Run("path has all bridges", func(t *testing.T) {
		g := New(4)
		g.AddEdge(0, 1, 1)
		g.AddEdge(1, 2, 1)
		g.AddEdge(2, 3, 1)
		if got := g.Bridges(); len(got) != 3 {
			t.Fatalf("bridges = %v, want all 3 edges", got)
		}
	})
	t.Run("cycle has none", func(t *testing.T) {
		if got := Cycle(5, UnitWeights()).Bridges(); len(got) != 0 {
			t.Fatalf("bridges = %v, want none", got)
		}
	})
	t.Run("two triangles joined by an edge", func(t *testing.T) {
		g := New(6)
		g.AddEdge(0, 1, 1)
		g.AddEdge(1, 2, 1)
		g.AddEdge(2, 0, 1)
		bridge := g.AddEdge(2, 3, 1)
		g.AddEdge(3, 4, 1)
		g.AddEdge(4, 5, 1)
		g.AddEdge(5, 3, 1)
		got := g.Bridges()
		if len(got) != 1 || got[0] != bridge {
			t.Fatalf("bridges = %v, want [%d]", got, bridge)
		}
	})
	t.Run("parallel edges are not bridges", func(t *testing.T) {
		g := New(3)
		g.AddEdge(0, 1, 1)
		g.AddEdge(0, 1, 1)
		b := g.AddEdge(1, 2, 1)
		got := g.Bridges()
		if len(got) != 1 || got[0] != b {
			t.Fatalf("bridges = %v, want [%d]", got, b)
		}
	})
}

// bridgesBruteForce recomputes bridges by removing each edge and checking
// connectivity, as an independent oracle.
func bridgesBruteForce(g *Graph) map[int]bool {
	out := make(map[int]bool)
	if !g.Connected() {
		return out
	}
	for _, e := range g.Edges() {
		rem, _ := g.SubgraphWithout(map[int]bool{e.ID: true})
		if !rem.Connected() {
			out[e.ID] = true
		}
	}
	return out
}

func TestBridgesMatchBruteForceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		n := 5 + rng.Intn(20)
		g := New(n)
		m := n + rng.Intn(2*n)
		for i := 0; i < m; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				g.AddEdge(u, v, 1)
			}
		}
		want := bridgesBruteForce(g)
		// Bridges() works per component; restrict oracle comparison to a
		// connected graph by adding a spanning path when disconnected.
		if !g.Connected() {
			for v := 0; v+1 < n; v++ {
				g.AddEdge(v, v+1, 1)
			}
			want = bridgesBruteForce(g)
		}
		got := g.Bridges()
		gotSet := make(map[int]bool, len(got))
		for _, id := range got {
			gotSet[id] = true
		}
		if len(gotSet) != len(want) {
			t.Fatalf("trial %d: got %d bridges, want %d", trial, len(gotSet), len(want))
		}
		for id := range want {
			if !gotSet[id] {
				t.Fatalf("trial %d: missing bridge %d", trial, id)
			}
		}
	}
}

func TestEdgeConnectivityKnown(t *testing.T) {
	tests := []struct {
		name string
		g    *Graph
		want int
	}{
		{"cycle", Cycle(8, UnitWeights()), 2},
		{"circulant j=2", Circulant(9, 2, UnitWeights()), 4},
		{"harary k=3 even n", Harary(3, 10, UnitWeights()), 3},
		{"harary k=3 odd n", Harary(3, 11, UnitWeights()), 3},
		{"harary k=4", Harary(4, 12, UnitWeights()), 4},
		{"harary k=5", Harary(5, 12, UnitWeights()), 5},
		{"path", func() *Graph {
			g := New(4)
			g.AddEdge(0, 1, 1)
			g.AddEdge(1, 2, 1)
			g.AddEdge(2, 3, 1)
			return g
		}(), 1},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.g.EdgeConnectivity(); got != tc.want {
				t.Errorf("EdgeConnectivity = %d, want %d", got, tc.want)
			}
			if !tc.g.IsKEdgeConnected(tc.want) {
				t.Errorf("IsKEdgeConnected(%d) = false", tc.want)
			}
			if tc.g.IsKEdgeConnected(tc.want + 1) {
				t.Errorf("IsKEdgeConnected(%d) = true", tc.want+1)
			}
		})
	}
}

func TestEdgeConnectivityDisconnected(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(2, 3, 1)
	if got := g.EdgeConnectivity(); got != 0 {
		t.Fatalf("EdgeConnectivity = %d, want 0", got)
	}
}

func TestCutPairsOnKnownGraphs(t *testing.T) {
	t.Run("cycle4: every pair is a cut pair", func(t *testing.T) {
		g := Cycle(4, UnitWeights())
		pairs := g.CutPairs()
		if len(pairs) != 6 { // C(4,2)
			t.Fatalf("got %d cut pairs, want 6: %v", len(pairs), pairs)
		}
	})
	t.Run("K4 has no cut pairs", func(t *testing.T) {
		g := New(4)
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				g.AddEdge(i, j, 1)
			}
		}
		if pairs := g.CutPairs(); len(pairs) != 0 {
			t.Fatalf("K4 cut pairs = %v, want none", pairs)
		}
	})
	t.Run("figure2 graph", func(t *testing.T) {
		g := PaperFigure2Graph()
		if !g.TwoEdgeConnected() {
			t.Fatal("figure-2 graph must be 2-edge-connected")
		}
		pairs := g.CutPairs()
		if len(pairs) == 0 {
			t.Fatal("figure-2 graph should contain cut pairs")
		}
		// Removing any cut pair must disconnect the graph.
		for _, p := range pairs {
			rem, _ := g.SubgraphWithout(map[int]bool{p.A: true, p.B: true})
			if rem.Connected() {
				t.Errorf("removing cut pair %v leaves graph connected", p)
			}
		}
	})
}

func TestCutPairsMatchDefinitionRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		g := RandomKConnected(10+rng.Intn(8), 2, 3, rng, UnitWeights())
		pairs := g.CutPairs()
		inPairs := make(map[CutPair]bool, len(pairs))
		for _, p := range pairs {
			inPairs[p] = true
		}
		for a := 0; a < g.M(); a++ {
			for b := a + 1; b < g.M(); b++ {
				rem, _ := g.SubgraphWithout(map[int]bool{a: true, b: true})
				disconnects := !rem.Connected()
				if disconnects != inPairs[CutPair{A: a, B: b}] {
					t.Fatalf("trial %d: pair {%d,%d} disconnects=%v but CutPairs=%v",
						trial, a, b, disconnects, inPairs[CutPair{A: a, B: b}])
				}
			}
		}
	}
}

func TestGlobalMinCutWeight(t *testing.T) {
	t.Run("unit cycle", func(t *testing.T) {
		if got := Cycle(6, UnitWeights()).GlobalMinCutWeight(); got != 2 {
			t.Fatalf("min cut = %d, want 2", got)
		}
	})
	t.Run("weighted dumbbell", func(t *testing.T) {
		// Two triangles of heavy edges joined by two light edges.
		g := New(6)
		for _, tri := range [][3]int{{0, 1, 2}, {3, 4, 5}} {
			g.AddEdge(tri[0], tri[1], 100)
			g.AddEdge(tri[1], tri[2], 100)
			g.AddEdge(tri[2], tri[0], 100)
		}
		g.AddEdge(2, 3, 1)
		g.AddEdge(0, 5, 3)
		if got := g.GlobalMinCutWeight(); got != 4 {
			t.Fatalf("min cut = %d, want 4", got)
		}
	})
	t.Run("matches unit edge connectivity", func(t *testing.T) {
		rng := rand.New(rand.NewSource(3))
		for trial := 0; trial < 10; trial++ {
			g := RandomKConnected(8+rng.Intn(8), 2, 4, rng, UnitWeights())
			if got, want := g.GlobalMinCutWeight(), int64(g.EdgeConnectivity()); got != want {
				t.Fatalf("trial %d: StoerWagner=%d, unit flow=%d", trial, got, want)
			}
		}
	})
}

func TestGeneratorsConnectivity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tests := []struct {
		name string
		g    *Graph
		k    int
	}{
		{"cycle", Cycle(12, UnitWeights()), 2},
		{"grid", Grid(4, 5, UnitWeights()), 2},
		{"harary k=2", Harary(2, 9, UnitWeights()), 2},
		{"harary k=4 odd", Harary(4, 13, UnitWeights()), 4},
		{"harary k=5 even", Harary(5, 14, UnitWeights()), 5},
		{"random k=3", RandomKConnected(15, 3, 10, rng, UnitWeights()), 3},
		{"clique chain k=2", CliqueChain(5, 4, 2, UnitWeights()), 2},
		{"clique chain k=3", CliqueChain(4, 5, 3, UnitWeights()), 3},
		{"geometric", RandomGeometric(30, 0.3, 2, rng), 2},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if !tc.g.IsKEdgeConnected(tc.k) {
				t.Errorf("graph is not %d-edge-connected (λ=%d)", tc.k, tc.g.EdgeConnectivity())
			}
		})
	}
}

func TestHararyEdgeCount(t *testing.T) {
	// Harary graphs are minimum-size: ceil(k*n/2) edges.
	for _, tc := range []struct{ k, n int }{{2, 10}, {3, 10}, {3, 11}, {4, 9}, {5, 12}} {
		g := Harary(tc.k, tc.n, UnitWeights())
		want := (tc.k*tc.n + 1) / 2
		if g.M() != want {
			t.Errorf("Harary(%d,%d): m=%d, want %d", tc.k, tc.n, g.M(), want)
		}
	}
}

func TestCliqueChainDiameter(t *testing.T) {
	g := CliqueChain(8, 4, 2, UnitWeights())
	d := g.Diameter()
	if d < 8 || d > 3*8 {
		t.Fatalf("CliqueChain diameter = %d, want Θ(length)=Θ(8)", d)
	}
}

func TestSubgraphOf(t *testing.T) {
	g := New(4)
	a := g.AddEdge(0, 1, 3)
	g.AddEdge(1, 2, 5)
	c := g.AddEdge(2, 3, 7)
	sub, orig := g.SubgraphOf([]int{a, c})
	if sub.M() != 2 || sub.N() != 4 {
		t.Fatalf("sub = %v", sub)
	}
	if orig[0] != a || orig[1] != c {
		t.Fatalf("orig mapping = %v", orig)
	}
	if sub.TotalWeight() != 10 {
		t.Fatalf("sub weight = %d, want 10", sub.TotalWeight())
	}
}

func TestCloneIsIndependent(t *testing.T) {
	g := Cycle(5, UnitWeights())
	c := g.Clone()
	c.AddEdge(0, 2, 9)
	if g.M() == c.M() {
		t.Fatal("mutating clone changed original")
	}
}

func TestSortedEdgeIDsByWeight(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 5)
	g.AddEdge(1, 2, 2)
	g.AddEdge(0, 2, 5)
	ids := g.SortedEdgeIDsByWeight()
	if ids[0] != 1 || ids[1] != 0 || ids[2] != 2 {
		t.Fatalf("sorted = %v, want [1 0 2]", ids)
	}
}

// Property: union-find Same is an equivalence relation consistent with the
// sequence of unions applied.
func TestUnionFindQuick(t *testing.T) {
	f := func(ops []uint16, n uint8) bool {
		size := int(n%32) + 2
		uf := NewUnionFind(size)
		// Mirror connectivity with a brute-force graph.
		g := New(size)
		for _, op := range ops {
			u := int(op) % size
			v := int(op>>8) % size
			if u == v {
				continue
			}
			uf.Union(u, v)
			g.AddEdge(u, v, 1)
		}
		comp, _ := g.Components()
		for u := 0; u < size; u++ {
			for v := 0; v < size; v++ {
				if uf.Same(u, v) != (comp[u] == comp[v]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: every generated RandomKConnected graph has λ >= k.
func TestRandomKConnectedQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	f := func(seed int64, kRaw, nRaw uint8) bool {
		k := int(kRaw%4) + 1
		n := int(nRaw%20) + 2*k + 3
		local := rand.New(rand.NewSource(seed))
		g := RandomKConnected(n, k, int(nRaw%10), local, RandomWeights(rng, 50))
		return g.IsKEdgeConnected(k)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestChungLu(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := ChungLu(200, 2.5, 6, 2, rng, UnitWeights())
	if g.N() != 200 {
		t.Fatalf("n = %d", g.N())
	}
	if !g.IsKEdgeConnected(2) {
		t.Fatal("minConn=2 backbone did not guarantee 2-edge-connectivity")
	}
	// Heavy tail: the maximum degree must far exceed the mean (a power law
	// at beta=2.5 and n=200 concentrates a large share of edges on the top
	// vertices; a uniform G(n,p) at the same density stays within ~2x).
	maxDeg, sumDeg := 0, 0
	for v := 0; v < g.N(); v++ {
		d := g.Degree(v)
		sumDeg += d
		if d > maxDeg {
			maxDeg = d
		}
	}
	mean := float64(sumDeg) / float64(g.N())
	if float64(maxDeg) < 3*mean {
		t.Errorf("max degree %d not heavy-tailed vs mean %.1f", maxDeg, mean)
	}
	// 3-edge-connected variant for the 3-ECSS sweeps.
	g3 := ChungLu(60, 2.5, 8, 3, rng, UnitWeights())
	if !g3.IsKEdgeConnected(3) {
		t.Fatal("minConn=3 backbone did not guarantee 3-edge-connectivity")
	}
}

func TestChungLuDeterministic(t *testing.T) {
	a := ChungLu(80, 2.5, 5, 2, rand.New(rand.NewSource(3)), UnitWeights())
	b := ChungLu(80, 2.5, 5, 2, rand.New(rand.NewSource(3)), UnitWeights())
	if a.M() != b.M() {
		t.Fatalf("same seed, different edge counts: %d vs %d", a.M(), b.M())
	}
	for i := 0; i < a.M(); i++ {
		if a.Edge(i) != b.Edge(i) {
			t.Fatalf("same seed, edge %d differs", i)
		}
	}
}

func TestFatTree(t *testing.T) {
	for _, k := range []int{4, 6} {
		g := FatTree(k, UnitWeights())
		h := k / 2
		if want := h*h + k*k; g.N() != want {
			t.Fatalf("FatTree(%d): n = %d, want %d", k, g.N(), want)
		}
		if want := k * k * k / 2; g.M() != want {
			t.Fatalf("FatTree(%d): m = %d, want %d", k, g.M(), want)
		}
		if d := g.Diameter(); d != 4 {
			t.Fatalf("FatTree(%d): diameter = %d, want 4", k, d)
		}
		if lam := g.EdgeConnectivity(); lam != h {
			t.Fatalf("FatTree(%d): edge connectivity = %d, want %d", k, lam, h)
		}
	}
}

// TestEdgeConnectivityPooledReload interleaves connectivity queries on
// graphs of very different sizes, which forces the pooled unit-flow scratch
// to reload across shapes — any stale arc state would surface as a wrong λ.
func TestEdgeConnectivityPooledReload(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	big := RandomKConnected(120, 4, 80, rng, UnitWeights())
	small := Cycle(5, UnitWeights())
	tiny := New(2)
	tiny.AddEdge(0, 1, 1)
	tiny.AddEdge(0, 1, 1)
	tiny.AddEdge(0, 1, 1)
	for round := 0; round < 3; round++ {
		if lam := big.EdgeConnectivityUpTo(5); lam < 4 {
			t.Fatalf("round %d: big λ=%d, want >= 4", round, lam)
		}
		if lam := small.EdgeConnectivity(); lam != 2 {
			t.Fatalf("round %d: cycle λ=%d, want 2", round, lam)
		}
		if lam := tiny.EdgeConnectivity(); lam != 3 {
			t.Fatalf("round %d: multigraph λ=%d, want 3", round, lam)
		}
		disc := New(4)
		disc.AddEdge(0, 1, 1)
		if lam := disc.EdgeConnectivityUpTo(3); lam != 0 {
			t.Fatalf("round %d: disconnected λ=%d, want 0", round, lam)
		}
	}
}

// cutPairsBruteForce is the original O(m·(n+m)) formulation — for each edge
// e, rescan G−e for bridges — retained as the oracle for the fingerprint
// CutPairs implementation.
func cutPairsBruteForce(g *Graph) []CutPair {
	seen := make(map[CutPair]bool)
	var want []CutPair
	for _, e := range g.Edges() {
		rem, orig := g.SubgraphWithout(map[int]bool{e.ID: true})
		for _, b := range rem.Bridges() {
			a, c := e.ID, orig[b]
			if a > c {
				a, c = c, a
			}
			p := CutPair{A: a, B: c}
			if !seen[p] {
				seen[p] = true
				want = append(want, p)
			}
		}
	}
	sort.Slice(want, func(i, j int) bool {
		if want[i].A != want[j].A {
			return want[i].A < want[j].A
		}
		return want[i].B < want[j].B
	})
	return want
}

// TestCutPairsMatchesSubgraphOracle pins the single-pass fingerprint
// enumeration against the remove-one-edge-and-rescan brute force across
// families exercising each branch: cnt==1 tree/non-tree pairs (cycles),
// cnt>=2 tree/tree cliques (theta graphs: parallel internally-disjoint
// paths), parallel edges (multigraphs), and sparse random 2-edge-connected
// graphs.
func TestCutPairsMatchesSubgraphOracle(t *testing.T) {
	theta := func(paths, hops int) *Graph {
		// Two hubs joined by `paths` internally-disjoint paths of `hops`
		// edges. Every path's edge set is one 2-cut clique when paths >= 3.
		g := New(2 + paths*(hops-1))
		next := 2
		for p := 0; p < paths; p++ {
			prev := 0
			for h := 0; h < hops-1; h++ {
				g.AddEdge(prev, next, 1)
				prev = next
				next++
			}
			g.AddEdge(prev, 1, 1)
		}
		return g
	}
	multi := func() *Graph {
		// A 6-cycle with doubled chords and a tripled edge: parallel copies
		// are mutual cut pairs only when doubling, never when tripled.
		g := Cycle(6, UnitWeights())
		g.AddEdge(0, 3, 1)
		g.AddEdge(0, 3, 1)
		g.AddEdge(1, 4, 1)
		g.AddEdge(2, 5, 1)
		g.AddEdge(2, 5, 1)
		g.AddEdge(2, 5, 1)
		return g
	}
	cases := []*Graph{
		Cycle(4, UnitWeights()),
		Cycle(9, UnitWeights()),
		theta(3, 4),
		theta(4, 3),
		multi(),
	}
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 8; trial++ {
		cases = append(cases, RandomKConnected(10+3*trial, 2, trial*2, rng, UnitWeights()))
	}
	for i, g := range cases {
		got := g.CutPairs()
		want := cutPairsBruteForce(g)
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d (n=%d m=%d): CutPairs %v, oracle %v", i, g.N(), g.M(), got, want)
		}
	}
}
