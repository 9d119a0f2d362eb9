package kecss

// Micro-benchmarks for the min-cut enumeration engine and the capped
// max-flow connectivity check that feeds it (and the pool's validation
// sweep). These are the "warm enumeration path" benches the CI bench-smoke
// step watches: BENCH_cuts.json is generated from their output and the job
// fails if allocs/op on the enumeration path exceeds the pinned ceiling
// (see .github/workflows/ci.yml).
//
// Harary(k, n) is used as the instance family because its edge connectivity
// is exactly k by construction, which is the precondition of
// EnumerateMinCuts(g, k). Size 3 runs the exact cycle-space label
// enumerator, sizes 4–5 Karger–Stein.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
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
}

func BenchmarkMicro_EdgeConnectivityUpTo(b *testing.B) {
	cases := []struct{ k, n int }{
		{4, 128},
		{4, 512},
		{3, 2000},
	}
	for _, tc := range cases {
		b.Run(fmt.Sprintf("k=%d/n=%d", tc.k, tc.n), func(b *testing.B) {
			b.ReportAllocs()
			g := graph.Harary(tc.k, tc.n, graph.UnitWeights())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if lam := g.EdgeConnectivityUpTo(tc.k + 1); lam != tc.k {
					b.Fatalf("λ=%d, want %d", lam, tc.k)
				}
			}
		})
	}
}

// BenchmarkMicro_SolveKECSSEndToEnd is the end-to-end solve bench for the
// cut-enumeration-dominated workloads: k=3 (3-ECSS through the Aug
// framework, size-2 cut enumeration) and k=4 (the first k whose Aug level
// enumerates size-3 cuts, from cycle-space labels).
func BenchmarkMicro_SolveKECSSEndToEnd(b *testing.B) {
	cases := []struct{ k, n int }{
		{3, 96},
		{4, 64},
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

// BenchmarkMicro_EnumerateMinCutsReference benches the retained flat-Karger
// oracle on the smaller instances (it is Θ(n²·log n) trials, so larger
// sizes are impractical) — the live "before" column for the table in
// CHANGES.md. CI's bench-smoke step anchors its -bench regex to the
// non-Reference benchmarks, so this never runs in CI.
func BenchmarkMicro_EnumerateMinCutsReference(b *testing.B) {
	cases := []struct{ size, n int }{
		{3, 64},
		{3, 256},
	}
	for _, tc := range cases {
		b.Run(fmt.Sprintf("size=%d/n=%d", tc.size, tc.n), func(b *testing.B) {
			b.ReportAllocs()
			g := graph.Harary(tc.size, tc.n, graph.UnitWeights())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cuts, err := core.EnumerateMinCutsReference(g, tc.size, rand.New(rand.NewSource(int64(i))))
				if err != nil {
					b.Fatal(err)
				}
				if len(cuts) == 0 {
					b.Fatal("no cuts found")
				}
			}
		})
	}
}
