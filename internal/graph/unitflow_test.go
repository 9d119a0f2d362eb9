package graph

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// TestEdgeConnectivityUpToMatchesDinic pins the unit-flow caps to the Dinic
// oracle: dense random multigraphs, whose λ reaches past 6, and generator
// families up to n = 300, intact and with a vertex cut down to degree 3, 2
// and 1.
func TestEdgeConnectivityUpToMatchesDinic(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 400; trial++ {
		n := 2 + rng.Intn(15)
		g := randomMultigraph(rng, n, rng.Intn(5*n+1))
		checkCapsMatchDinic(t, fmt.Sprintf("random trial %d", trial), g, 8)
	}
	families := []struct {
		name string
		g    *Graph
	}{
		{"harary/4/128", Harary(4, 128, UnitWeights())},
		{"harary/5/97", Harary(5, 97, UnitWeights())},
		{"harary/6/64", Harary(6, 64, UnitWeights())},
		{"random-k/4/200", RandomKConnected(200, 4, 100, rng, UnitWeights())},
		{"random-k/5/150", RandomKConnected(150, 5, 300, rng, UnitWeights())},
		{"clique-chain/10/7/4", CliqueChain(10, 7, 4, UnitWeights())},
		{"geometric/200/4", RandomGeometric(200, 0.12, 4, rng)},
		{"chung-lu/300/4", ChungLu(300, 2.5, 8, 4, rng, UnitWeights())},
		{"fat-tree/8", FatTree(8, UnitWeights())},
		{"blob-ring/3", blobRing(10, []int{3})},
		{"disconnected/harary4", disjointUnion(Harary(4, 30, UnitWeights()), Harary(4, 20, UnitWeights()))},
	}
	for _, fam := range families {
		checkCapsMatchDinic(t, fam.name, fam.g, 7)
		v := rng.Intn(fam.g.N())
		var inc []int
		for _, a := range fam.g.Adj(v) {
			inc = append(inc, a.Edge)
		}
		for keep := 3; keep >= 1; keep-- {
			if keep < len(inc) {
				checkCapsMatchDinic(t, fmt.Sprintf("%s vertex %d degree %d", fam.name, v, keep), withoutEdges(fam.g, inc[keep:]...), 7)
			}
		}
	}
}

// TestEachMinCutConcurrent runs the pooled engine from several goroutines
// at once on graphs of different sizes: every enumeration must match a
// serial run, cut for cut.
func TestEachMinCutConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	graphs := []*Graph{
		Harary(4, 300, UnitWeights()),
		RandomKConnected(200, 4, 100, rng, UnitWeights()),
		Harary(5, 64, UnitWeights()),
	}
	query := func(g *Graph) (int, []string) {
		var sides []string
		lam := g.EachMinCut(g.EdgeConnectivity(), func(side []uint64) { sides = append(sides, fmt.Sprint(side)) })
		return lam, sides
	}
	type answer struct {
		lam   int
		sides []string
	}
	want := make([]answer, len(graphs))
	for i, g := range graphs {
		want[i].lam, want[i].sides = query(g)
		if len(want[i].sides) == 0 {
			t.Fatalf("graph %d: no minimum cuts", i)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < 6; r++ {
				i := (w + r) % len(graphs)
				lam, sides := query(graphs[i])
				if lam != want[i].lam || fmt.Sprint(sides) != fmt.Sprint(want[i].sides) {
					t.Errorf("worker %d round %d graph %d differs from the serial run", w, r, i)
				}
			}
		}(w)
	}
	wg.Wait()
}

// FuzzEdgeConnectivityUpTo pins EdgeConnectivityUpTo at caps 1–8 to the
// Dinic oracle on small multigraphs (the FuzzEdgeConnectivityUpTo3
// decoding). Its seeds are the corpus families small enough to decode.
func FuzzEdgeConnectivityUpTo(f *testing.F) {
	u := UnitWeights()
	for i, g := range []*Graph{
		Harary(4, 12, u),
		Harary(5, 12, u),
		Harary(6, 11, u),
		Circulant(12, 2, u),
		CliqueChain(2, 6, 5, u),
		blobRing(3, []int{3}),
		disjointUnion(Harary(4, 6, u), Harary(4, 6, u)),
	} {
		data := []byte{byte(g.N())}
		for _, e := range g.Edges() {
			data = append(data, byte(e.U), byte(e.V))
		}
		f.Add(data, uint8(i))
	}
	f.Fuzz(func(t *testing.T, data []byte, capByte uint8) {
		checkCapsMatchDinic(t, "fuzz", fuzzMultigraph(data), 1+int(capByte)%8)
	})
}
