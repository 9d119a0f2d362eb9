package kecss

// Micro-benchmarks for the §5 3-ECSS augmentation loop and the incremental
// cycle-space labeling engine that now drives it. These are the benches the
// CI 3-ECSS bench-smoke step watches: BENCH_3ecss.json is generated from
// their output and the job fails if allocs/op exceeds the pinned ceilings
// (see .github/workflows/ci.yml).
//
// RandomKConnected(n, 3, 2n) is the instance family: guaranteed
// 3-edge-connected with enough surplus edges that the augmentation loop has
// a real candidate pool at every iteration.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/congest"
	"repro/internal/cycles"
	"repro/internal/graph"
)

func bench3ECSSGraph(n int) *graph.Graph {
	rng := rand.New(rand.NewSource(int64(3000 + n)))
	return graph.RandomKConnected(n, 3, 2*n, rng, graph.UnitWeights())
}

func BenchmarkMicro_Solve3ECSSEndToEnd(b *testing.B) {
	for _, n := range []int{64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			g := bench3ECSSGraph(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := Solve3ECSSUnweighted(g, WithSeed(int64(i)))
				if err != nil {
					b.Fatal(err)
				}
				if res.Size == 0 {
					b.Fatal("empty result")
				}
			}
		})
	}
}

// BenchmarkMicro_Solve3ECSSEndToEndLarge is the opt-in n=10^4 scale bench:
// one cold end-to-end solve per op (~4 minutes; run with -benchtime 1x).
// The regular bench smoke's regex excludes it; the `large-bench` CI job
// (workflow_dispatch, or a commit message containing [large-bench]) runs it
// and appends the row to BENCH_cuts.json with allocs/op and ns/op ceilings
// enforced by benchjson.
func BenchmarkMicro_Solve3ECSSEndToEndLarge(b *testing.B) {
	for _, n := range []int{10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			rng := rand.New(rand.NewSource(int64(13000)))
			g := graph.RandomKConnected(n, 3, 2*n, rng, graph.UnitWeights())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := Solve3ECSSUnweighted(g, WithSeed(int64(i)))
				if err != nil {
					b.Fatal(err)
				}
				if res.Size == 0 {
					b.Fatal("empty result")
				}
			}
		})
	}
}

// BenchmarkMicro_IncrementalLabelUpdate times one warm engine update step —
// AddEdges of a single candidate (label sample + fundamental-cycle XOR +
// count maintenance), one CoverCount query, and the O(1) termination
// predicate — on a 512-vertex host. The engine is rebuilt (outside the
// timer, arenas recycled) whenever the candidate pool is exhausted; a warm
// step must stay allocation-free up to amortized count-map growth.
func BenchmarkMicro_IncrementalLabelUpdate(b *testing.B) {
	b.ReportAllocs()
	const n = 512
	rng := rand.New(rand.NewSource(9))
	g := graph.New(n)
	base := make([]int, 0, n)
	for v := 0; v < n; v++ {
		base = append(base, g.AddEdge(v, (v+1)%n, 1))
	}
	cands := make([]int, 0, 3*n)
	for len(cands) < 3*n {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			cands = append(cands, g.AddEdge(u, v, 1))
		}
	}
	labelArena := cycles.NewLabelArena()
	simArena := congest.NewArena()
	rebuilds := int64(0)
	newEngine := func() *cycles.Incremental {
		rebuilds++
		inc, err := cycles.NewIncremental(g, base, 48, rand.New(rand.NewSource(rebuilds)),
			labelArena, congest.WithArena(simArena))
		if err != nil {
			b.Fatal(err)
		}
		return inc
	}
	inc := newEngine()
	next := 0
	var sink int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if next == len(cands) {
			b.StopTimer()
			inc.Release()
			inc = newEngine()
			next = 0
			b.StartTimer()
		}
		id := cands[next]
		next++
		e := g.Edge(id)
		sink += inc.CoverCount(e.U, e.V)
		inc.AddEdges(cands[next-1 : next])
		if inc.ThreeEdgeConnected() {
			sink++
		}
	}
	b.StopTimer()
	if sink == 0 {
		b.Fatal("no coverage observed")
	}
}
