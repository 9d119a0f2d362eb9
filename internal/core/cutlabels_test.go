package core

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
)

// fuzzMultigraph decodes data into a multigraph on 2..10 vertices: the
// first byte picks n, and each following byte pair is one edge, endpoints
// taken mod n (parallel edges occur; a pair naming one vertex twice is
// skipped, as graphs have no self-loops).
func fuzzMultigraph(data []byte) *graph.Graph {
	if len(data) == 0 {
		return graph.New(2)
	}
	n := 2 + int(data[0])%9
	g := graph.New(n)
	for i := 1; i+1 < len(data) && g.M() < 45; i += 2 {
		if u, v := int(data[i])%n, int(data[i+1])%n; u != v {
			g.AddEdge(u, v, 1)
		}
	}
	return g
}

// allMinCutsBruteForce returns λ(g) and every bipartition crossed by exactly
// λ edges, by visiting all 2^(n-1) bipartitions with vertex 0 on side 0.
func allMinCutsBruteForce(g *graph.Graph) (int, []Cut) {
	n := g.N()
	lambda := g.M() + 1
	var masks []int
	for mask := 1; mask < 1<<uint(n-1); mask++ {
		side := mask << 1 // vertex v > 0 is inside iff bit v is set
		crossing := 0
		for _, e := range g.Edges() {
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

// FuzzEnumerateMinCutsSize3 pins the size-3 path to brute force on small
// multigraphs: on λ=3 inputs it must return exactly the minimum cuts in
// canonical order, on λ>3 none, and on λ<3 or disconnected inputs an error.
func FuzzEnumerateMinCutsSize3(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		g := fuzzMultigraph(data)
		got, err := EnumerateMinCuts(g, 3, rand.New(rand.NewSource(seed)))
		lambda, want := allMinCutsBruteForce(g)
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
