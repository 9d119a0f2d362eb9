package kecss

// Micro-benchmarks for the exact min-cut enumerators and the capped
// connectivity check that the solvers' validations and audits run. These
// are the "warm enumeration path" benches the CI bench-smoke step watches:
// BENCH_cuts.json is generated from their output, and the job fails if
// allocs/op or ns/op exceeds a pinned ceiling (see .github/workflows/ci.yml).
//
// Harary(k, n) is used as the instance family because its edge connectivity
// is exactly k by construction, which is the precondition of
// EnumerateMinCuts(g, k). Size 3 runs the cycle-space label enumerator;
// sizes 4–5 and every cap ≥ 4 run the unit-flow engine.

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
// framework, size-2 cut enumeration), k=4 (the first k whose Aug level
// enumerates size-3 cuts, from cycle-space labels) and k=5 (the first k
// whose Aug level enumerates size-4 cuts, on the unit-flow engine; CI
// gates its n=512 case on wall-clock time).
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
