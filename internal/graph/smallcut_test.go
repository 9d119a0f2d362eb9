package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// randomMultigraph returns a multigraph on n vertices with m uniformly random
// edges; parallel edges occur, self-loops are redrawn.
func randomMultigraph(rng *rand.Rand, n, m int) *Graph {
	g := New(n)
	if n < 2 {
		return g
	}
	for i := 0; i < m; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		for u == v {
			v = rng.Intn(n)
		}
		g.AddEdge(u, v, 1)
	}
	return g
}

// disjointUnion returns a and b side by side, b's vertices shifted past a's.
func disjointUnion(a, b *Graph) *Graph {
	g := New(a.N() + b.N())
	for _, e := range a.Edges() {
		g.AddEdge(e.U, e.V, e.W)
	}
	for _, e := range b.Edges() {
		g.AddEdge(a.N()+e.U, a.N()+e.V, e.W)
	}
	return g
}

// withoutEdges returns g minus the given edge IDs, on the same vertices.
func withoutEdges(g *Graph, ids ...int) *Graph {
	drop := make(map[int]bool, len(ids))
	for _, id := range ids {
		drop[id] = true
	}
	sub, _ := g.SubgraphWithout(drop)
	return sub
}

// blobRing returns `blobs` copies of K4 joined in a ring, consecutive blobs
// by links[i % len(links)] parallel edges. Two single links isolate the blob
// between them, so λ = 2 even where no tree edge has a single covering edge.
func blobRing(blobs int, links []int) *Graph {
	g := New(4 * blobs)
	for b := 0; b < blobs; b++ {
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				g.AddEdge(4*b+i, 4*b+j, 1)
			}
		}
		next := (b + 1) % blobs
		for l := 0; l < links[b%len(links)]; l++ {
			g.AddEdge(4*b+l%4, 4*next+(l+1)%4, 1)
		}
	}
	return g
}

// checkCapsMatchDinic compares EdgeConnectivityUpTo with the Dinic oracle
// at every cap from 1 to maxCap, and the derived predicates with their
// definitions. Caps up to 3 run the cutScanner, larger ones the unit-flow
// engine; one Dinic pass at maxCap answers every cap.
func checkCapsMatchDinic(t *testing.T, name string, g *Graph, maxCap int) {
	t.Helper()
	lam := maxCap
	if g.N() > 1 {
		lam = g.dinicUpTo(maxCap)
	}
	for capLimit := 1; capLimit <= maxCap; capLimit++ {
		want := min(lam, capLimit)
		if got := g.EdgeConnectivityUpTo(capLimit); got != want {
			t.Fatalf("%s (n=%d m=%d): EdgeConnectivityUpTo(%d) = %d, Dinic %d", name, g.N(), g.M(), capLimit, got, want)
		}
		if got := g.IsKEdgeConnected(capLimit); got != (want >= capLimit) {
			t.Fatalf("%s: IsKEdgeConnected(%d) = %v, Dinic λ≥%d", name, capLimit, got, want)
		}
	}
	if got, want := g.TwoEdgeConnected(), lam >= 2; maxCap >= 2 && got != want {
		t.Fatalf("%s: TwoEdgeConnected = %v, want %v", name, got, want)
	}
}

// TestEdgeConnectivityUpToSmallCapMatchesDinic pins the cap ≤ 3 scanner to
// the max-flow path: exhaustively shaped random multigraphs with n ≤ 16
// (empty, single-vertex, disconnected, bridged, parallel-edged), and every
// generator family up to n = 512, intact and with edges removed so that
// bridges, cut pairs and second components appear.
func TestEdgeConnectivityUpToSmallCapMatchesDinic(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 3000; trial++ {
		n := rng.Intn(17)
		g := randomMultigraph(rng, n, rng.Intn(3*n+1))
		checkCapsMatchDinic(t, fmt.Sprintf("random trial %d", trial), g, 3)
	}
	for n := 0; n <= 2; n++ {
		for m := 0; m <= 3; m++ {
			checkCapsMatchDinic(t, fmt.Sprintf("n=%d m=%d", n, m), randomMultigraph(rng, n, m), 3)
		}
	}

	families := []struct {
		name string
		g    *Graph
	}{
		{"cycle/9", Cycle(9, UnitWeights())},
		{"circulant/64/2", Circulant(64, 2, UnitWeights())},
		{"harary/1/40", Harary(1, 40, UnitWeights())},
		{"harary/2/101", Harary(2, 101, UnitWeights())},
		{"harary/3/255", Harary(3, 255, UnitWeights())},
		{"harary/3/256", Harary(3, 256, UnitWeights())},
		{"harary/4/128", Harary(4, 128, UnitWeights())},
		{"random-k/2/512", RandomKConnected(512, 2, 40, rng, UnitWeights())},
		{"random-k/3/512", RandomKConnected(512, 3, 1024, rng, UnitWeights())},
		{"random-k/4/200", RandomKConnected(200, 4, 100, rng, UnitWeights())},
		{"grid/12x20", Grid(12, 20, UnitWeights())},
		{"clique-chain/30/6/2", CliqueChain(30, 6, 2, UnitWeights())},
		{"clique-chain/20/5/3", CliqueChain(20, 5, 3, UnitWeights())},
		{"clique-chain/10/4/1", CliqueChain(10, 4, 1, UnitWeights())},
		{"geometric/300/2", RandomGeometric(300, 0.08, 2, rng)},
		{"geometric/200/4", RandomGeometric(200, 0.1, 4, rng)},
		{"chung-lu/400/2", ChungLu(400, 2.5, 6, 2, rng, UnitWeights())},
		{"chung-lu/300/4", ChungLu(300, 2.5, 8, 4, rng, UnitWeights())},
		{"fat-tree/4", FatTree(4, UnitWeights())},
		{"fat-tree/8", FatTree(8, UnitWeights())},
		{"figure2", PaperFigure2Graph()},
		{"blob-ring/1,1,2", blobRing(12, []int{1, 1, 2})},
		{"blob-ring/2,1,3", blobRing(9, []int{2, 1, 3})},
		{"blob-ring/3", blobRing(10, []int{3})},
		{"disconnected/harary3", disjointUnion(Harary(3, 60, UnitWeights()), Harary(3, 40, UnitWeights()))},
	}
	for _, fam := range families {
		name, g := fam.name, fam.g
		checkCapsMatchDinic(t, name, g, 3)
		// Damage: drop one, two and three random edges.
		perm := rng.Perm(g.M())
		for drop := 1; drop <= 3 && drop <= len(perm); drop++ {
			checkCapsMatchDinic(t, fmt.Sprintf("%s minus %d", name, drop), withoutEdges(g, perm[:drop]...), 3)
		}
		// Damage that cuts a vertex down to degree 2, 1 and 0.
		v := rng.Intn(g.N())
		var inc []int
		for _, a := range g.Adj(v) {
			inc = append(inc, a.Edge)
		}
		for keep := 2; keep >= 0; keep-- {
			if keep < len(inc) {
				checkCapsMatchDinic(t, fmt.Sprintf("%s vertex %d degree %d", name, v, keep), withoutEdges(g, inc[keep:]...), 3)
			}
		}
	}
}

// fuzzMultigraph decodes data into a multigraph on 0..12 vertices: the
// first byte picks n, and each following byte pair is one edge, endpoints
// taken mod n (parallel edges occur; a pair naming one vertex twice is
// skipped, as graphs have no self-loops).
func fuzzMultigraph(data []byte) *Graph {
	if len(data) == 0 {
		return New(0)
	}
	n := int(data[0]) % 13
	g := New(n)
	if n < 2 {
		return g
	}
	for i := 1; i+1 < len(data) && g.M() < 60; i += 2 {
		if u, v := int(data[i])%n, int(data[i+1])%n; u != v {
			g.AddEdge(u, v, 1)
		}
	}
	return g
}

// FuzzEdgeConnectivityUpTo3 pins the cap ≤ 3 scanner to Dinic on small
// multigraphs, and CutPairs to the remove-one-edge brute force whenever the
// input is 2-edge-connected.
func FuzzEdgeConnectivityUpTo3(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		g := fuzzMultigraph(data)
		checkCapsMatchDinic(t, "fuzz", g, 3)
		if g.N() > 1 && g.dinicUpTo(2) >= 2 {
			got, want := g.CutPairs(), cutPairsBruteForce(g)
			if (len(got) != 0 || len(want) != 0) && !reflect.DeepEqual(got, want) {
				t.Fatalf("CutPairs %v, brute force %v", got, want)
			}
		}
	})
}

// TestEdgeConnectivityUpToConcurrent runs the pooled scanner and the pooled
// unit-flow engine from several goroutines at once, on graphs of different
// sizes, and compares every answer with a serial run: pooled scratch must
// never be shared between two live queries.
func TestEdgeConnectivityUpToConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	graphs := []*Graph{
		Harary(3, 300, UnitWeights()),
		blobRing(20, []int{1, 2, 3}),
		RandomKConnected(200, 4, 100, rng, UnitWeights()),
		withoutEdges(Harary(3, 150, UnitWeights()), 7),
	}
	type answer struct {
		lam   [4]int
		pairs []CutPair
	}
	query := func(g *Graph) answer {
		var a answer
		for c := range a.lam {
			a.lam[c] = g.EdgeConnectivityUpTo(c + 1)
		}
		if a.lam[1] >= 2 {
			a.pairs = g.CutPairs()
		}
		return a
	}
	want := make([]answer, len(graphs))
	for i, g := range graphs {
		want[i] = query(g)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < 8; r++ {
				i := (w + r) % len(graphs)
				if got := query(graphs[i]); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("worker %d round %d graph %d: %+v, serial %+v", w, r, i, got, want[i])
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestCutPairsCollidingFingerprints forces every tree edge with two or more
// covering edges into one fingerprint run per count, as if the hash
// collided everywhere, and checks that CutPairs' run check sends such runs
// to the bridge-scan fallback and still lists exactly the cut pairs.
func TestCutPairsCollidingFingerprints(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	graphs := []*Graph{
		Cycle(9, UnitWeights()),
		blobRing(6, []int{1, 2, 3}),
		blobRing(5, []int{2}),
		Harary(3, 20, UnitWeights()),
	}
	for i := 0; i < 40; i++ {
		if g := randomMultigraph(rng, 4+rng.Intn(8), 6+rng.Intn(14)); g.dinicUpTo(2) >= 2 {
			graphs = append(graphs, g)
		}
	}
	for i, g := range graphs {
		var s cutScanner
		s.load(g)
		s.forest(g)
		s.fingerprint(g)
		for x := range s.cnt {
			if s.cnt[x] >= 2 {
				s.xr[x], s.hs[x] = 0, 0
			}
		}
		got, want := s.cutPairs(g), cutPairsBruteForce(g)
		if (len(got) != 0 || len(want) != 0) && !reflect.DeepEqual(got, want) {
			t.Fatalf("graph %d (n=%d m=%d): %v, brute force %v", i, g.N(), g.M(), got, want)
		}
	}
}
