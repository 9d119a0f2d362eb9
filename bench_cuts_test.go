package kecss

// Micro-benchmarks for the exact min-cut enumerators and the capped
// connectivity check that the solvers' validations and audits run. These
// are the "warm enumeration path" benches the CI bench-smoke step watches:
// BENCH_cuts.json is generated from their output, and the job fails if
// allocs/op or ns/op exceeds a pinned ceiling (see .github/workflows/ci.yml).
//
// The size= rows use Harary(k, n), whose edge connectivity is exactly k by
// construction, the precondition of EnumerateMinCuts(g, k); sizes 3–5 and
// every cap ≥ 4 run the unit-flow engine. The level= rows enumerate the
// size-(level−1) cuts of the subgraph H that SolveKECSS's Aug level
// augments on a k=4 input: sizes 1 and 2 read their sides off one spanning
// tree (bridges and graph.CutPairs), size 3 runs the engine.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mst"
)

func BenchmarkMicro_EnumerateMinCuts(b *testing.B) {
	cases := []struct{ size, n int }{
		{3, 64},
		{3, 256},
		{4, 96},
		{5, 64},
		{3, 2000},
	}
	for _, tc := range cases {
		b.Run(fmt.Sprintf("size=%d/n=%d", tc.size, tc.n), func(b *testing.B) {
			b.ReportAllocs()
			g := graph.Harary(tc.size, tc.n, graph.UnitWeights())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cuts, err := core.EnumerateMinCuts(g, tc.size, rand.New(rand.NewSource(int64(i))))
				if err != nil {
					b.Fatal(err)
				}
				if len(cuts) == 0 {
					b.Fatalf("no size-%d cuts found on Harary(%d,%d)", tc.size, tc.size, tc.n)
				}
			}
		})
	}
	benchLevelCuts(b)
}

// benchLevelCuts runs the level= rows: the cuts Aug_level must cover on a
// kecss-cuts-shaped input at n=4000. H is the MST of RandomKConnected(n, 4,
// 2n) with weights up to 100 (rng seed 7) plus the edges Aug_2 ..
// Aug_(level−1) added, built outside the timer.
func benchLevelCuts(b *testing.B) {
	const n = 4000
	rng := rand.New(rand.NewSource(7))
	g := graph.RandomKConnected(n, 4, 2*n, rng, graph.RandomWeights(rng, 100))
	h, _ := mst.Kruskal(g)
	for level := 2; level <= 4; level++ {
		hs, _ := g.SubgraphOf(h)
		b.Run(fmt.Sprintf("level=%d/n=%d", level, n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cuts, err := core.EnumerateMinCuts(hs, level-1, rand.New(rand.NewSource(int64(i))))
				if err != nil {
					b.Fatal(err)
				}
				if len(cuts) == 0 {
					b.Fatalf("no size-%d cuts at level %d", level-1, level)
				}
			}
		})
		if level < 4 {
			ar, err := core.Aug(g, h, level, core.AugOptions{Rng: rng})
			if err != nil {
				b.Fatal(err)
			}
			h = append(h, ar.Added...)
		}
	}
}

// BenchmarkMicro_EdgeConnectivityUpTo runs the capped check on Harary(k, n),
// whose λ is exactly k. The unprefixed cases cap at k+1 ≥ 4, the unit-flow
// path that the k=4 validations and audits use. The cap=3 cases run the
// linear DFS pass that the 3-ECSS validations use. CI gates k=4/n=512,
// k=3/n=2000 and cap=3/k=3/n=10000 on wall-clock time.
func BenchmarkMicro_EdgeConnectivityUpTo(b *testing.B) {
	cases := []struct{ k, n, cap int }{
		{4, 128, 5},
		{4, 512, 5},
		{3, 2000, 4},
		{2, 2000, 3},
		{3, 2000, 3},
		{3, 10000, 3},
	}
	for _, tc := range cases {
		name := fmt.Sprintf("k=%d/n=%d", tc.k, tc.n)
		if tc.cap <= 3 {
			name = fmt.Sprintf("cap=%d/", tc.cap) + name
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			g := graph.Harary(tc.k, tc.n, graph.UnitWeights())
			want := min(tc.k, tc.cap)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if lam := g.EdgeConnectivityUpTo(tc.cap); lam != want {
					b.Fatalf("λ=%d, want %d", lam, want)
				}
			}
		})
	}
}

// BenchmarkMicro_SolveKECSSEndToEnd is the end-to-end solve bench for the
// cut-enumeration-dominated workloads: k=3 (3-ECSS through the Aug
// framework, size-2 cut enumeration from graph.CutPairs and one spanning
// tree), k=4 (the first k whose Aug level enumerates size-3 cuts) and k=5
// (the first k whose Aug level enumerates size-4 cuts; CI gates its n=512
// case on wall-clock time). Sizes 3 and up run the unit-flow engine.
func BenchmarkMicro_SolveKECSSEndToEnd(b *testing.B) {
	cases := []struct{ k, n int }{
		{3, 96},
		{4, 64},
		{5, 512},
	}
	for _, tc := range cases {
		b.Run(fmt.Sprintf("k=%d/n=%d", tc.k, tc.n), func(b *testing.B) {
			b.ReportAllocs()
			rng := rand.New(rand.NewSource(int64(tc.k*1000 + tc.n)))
			g := graph.RandomKConnected(tc.n, tc.k, 2*tc.n, rng, graph.RandomWeights(rng, 1000))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := SolveKECSS(g, tc.k, WithSeed(int64(i))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
