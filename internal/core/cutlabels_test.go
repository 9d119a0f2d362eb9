package core

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
)

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

// FuzzEnumerateMinCutsSize3 pins the size-3 path to brute force on small
// multigraphs: on λ=3 inputs it must return exactly the minimum cuts in
// canonical order, on λ>3 none, and on λ<3 or disconnected inputs an error.
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
