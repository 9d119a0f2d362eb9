package core

import (
	"math/rand"
	"reflect"
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
// edge connectivity (pinned by `lambda`) lies in {3,4,5}. A large case
// takes the flat-contraction reference seconds to tens of seconds, so its
// reference comparison is skipped under -short.
type equivCase struct {
	name   string
	lambda int
	large  bool
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
		{"harary/k=3", 3, false, func() *graph.Graph { return graph.Harary(3, 14, u) }},
		{"harary/k=4", 4, false, func() *graph.Graph { return graph.Harary(4, 14, u) }},
		{"harary/k=5", 5, false, func() *graph.Graph { return graph.Harary(5, 14, u) }},
		{"cycle-x2/k=4", 4, false, func() *graph.Graph { return multiplyEdges(graph.Cycle(12, u), 2) }},
		{"circulant/k=4", 4, false, func() *graph.Graph { return graph.Circulant(13, 2, u) }},
		{"randomk/k=4a", 4, false, func() *graph.Graph {
			return graph.RandomKConnected(14, 3, 6, rand.New(rand.NewSource(11)), u)
		}},
		{"randomk/k=4b", 4, false, func() *graph.Graph {
			return graph.RandomKConnected(16, 4, 2, rand.New(rand.NewSource(7)), u)
		}},
		{"grid-x2/k=4", 4, false, func() *graph.Graph { return multiplyEdges(graph.Grid(3, 5, u), 2) }},
		{"cliquechain/k=3", 3, false, func() *graph.Graph { return graph.CliqueChain(3, 5, 3, u) }},
		{"cliquechain/k=4", 4, false, func() *graph.Graph { return graph.CliqueChain(3, 6, 4, u) }},
		{"cliquechain/k=5", 5, false, func() *graph.Graph { return graph.CliqueChain(2, 6, 5, u) }},
		{"geometric/k=3", 3, false, func() *graph.Graph {
			return graph.RandomGeometric(16, 0.30, 2, rand.New(rand.NewSource(2)))
		}},
		{"geometric/k=5", 5, false, func() *graph.Graph {
			return graph.RandomGeometric(16, 0.35, 3, rand.New(rand.NewSource(1)))
		}},
		{"chunglu/k=5", 5, false, func() *graph.Graph {
			return graph.ChungLu(16, 2.5, 6, 3, rand.New(rand.NewSource(1)), u)
		}},
		{"fattree-x2/k=4", 4, false, func() *graph.Graph { return multiplyEdges(graph.FatTree(4, u), 2) }},
		{"paperfig2-x2/k=4", 4, false, func() *graph.Graph { return multiplyEdges(graph.PaperFigure2Graph(), 2) }},
		{"triple-edge/k=3", 3, false, tripleEdge},
		{"harary/k=3/n=255", 3, true, func() *graph.Graph { return graph.Harary(3, 255, u) }},
		{"kecss-cuts-H/seed=1", 3, true, func() *graph.Graph { return level4H(1) }},
		{"kecss-cuts-H/seed=2", 3, true, func() *graph.Graph { return level4H(2) }},
	}
}

func cutKeySet(cuts []Cut) map[string]bool {
	m := make(map[string]bool, len(cuts))
	for _, c := range cuts {
		m[c.Key()] = true
	}
	return m
}

// TestEnumerateMinCutsEquivalenceCorpus asserts that EnumerateMinCuts
// returns exactly the same cut sets (canonical bipartitions) as the
// retained flat-Karger reference across all ten generator families at
// sizes 3–5. On every λ=3 case it also pins the exact label path to
// Karger–Stein called directly: both sort canonically, so the slices must
// be identical.
func TestEnumerateMinCutsEquivalenceCorpus(t *testing.T) {
	for _, tc := range equivCorpus() {
		t.Run(tc.name, func(t *testing.T) {
			if tc.large {
				t.Parallel()
			}
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
				ks, err := cutsByContraction(g, 3, rand.New(rand.NewSource(202)), CutEnumOptions{})
				if err != nil {
					t.Fatalf("karger–stein: %v", err)
				}
				if !reflect.DeepEqual(got, ks) {
					t.Fatalf("label path and karger–stein differ: %d vs %d cuts", len(got), len(ks))
				}
			}
			if tc.large && testing.Short() {
				return
			}
			ref, err := EnumerateMinCutsReference(g, tc.lambda, rand.New(rand.NewSource(101)))
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			refSet, gotSet := cutKeySet(ref), cutKeySet(got)
			if len(ref) != len(refSet) || len(got) != len(gotSet) {
				t.Fatalf("duplicate cuts: ref %d/%d, got %d/%d", len(ref), len(refSet), len(got), len(gotSet))
			}
			if !reflect.DeepEqual(refSet, gotSet) {
				t.Fatalf("cut sets differ: reference %d cuts, enumerate %d cuts", len(refSet), len(gotSet))
			}
		})
	}
}

// TestEnumerateMinCutsConcurrentDeterministic pins the determinism contract
// on a larger instance under concurrent enumeration: the arenas come from a
// shared sync.Pool, so goroutines enumerating at once must not interfere
// (run with -race).
func TestEnumerateMinCutsConcurrentDeterministic(t *testing.T) {
	g := graph.RandomKConnected(48, 4, 10, rand.New(rand.NewSource(5)), graph.UnitWeights())
	size := g.EdgeConnectivity()
	if size < 3 {
		t.Fatalf("instance drift: λ=%d < 3", size)
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

// TestEnumerateMinCutsKnownConnectivity pins the λ pass-in contract: a
// correct promise reproduces the recomputed result, a too-high promise
// means "no cuts of this size", a contradicted promise errors.
func TestEnumerateMinCutsKnownConnectivity(t *testing.T) {
	g := graph.Harary(4, 14, graph.UnitWeights())
	want, err := EnumerateMinCuts(g, 4, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	got, err := EnumerateMinCutsOpts(g, 4, rand.New(rand.NewSource(3)), CutEnumOptions{KnownConnectivity: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("KnownConnectivity=λ changed the result")
	}
	none, err := EnumerateMinCutsOpts(g, 3, rand.New(rand.NewSource(3)), CutEnumOptions{KnownConnectivity: 4})
	if err != nil {
		t.Fatal(err)
	}
	if none != nil {
		t.Fatalf("KnownConnectivity > size must report no cuts, got %d", len(none))
	}
	if _, err := EnumerateMinCutsOpts(g, 5, rand.New(rand.NewSource(3)), CutEnumOptions{KnownConnectivity: 4}); err == nil {
		t.Fatal("KnownConnectivity < size must error")
	}
	// A promise contradicted by the min degree is caught by the assertion.
	if _, err := EnumerateMinCutsOpts(g, 5, rand.New(rand.NewSource(3)), CutEnumOptions{KnownConnectivity: 5}); err == nil {
		t.Fatal("contradicted KnownConnectivity must error")
	}
}

// TestCutInterner covers dedup, collision-safe equality, and block
// detachment on reset.
func TestCutInterner(t *testing.T) {
	var it cutInterner
	it.reset(130) // 3 words
	a := []uint64{1, 2, 3}
	b := []uint64{1, 2, 4}
	c1, new1 := it.add(a)
	if !new1 {
		t.Fatal("first add not new")
	}
	if _, new2 := it.add(a); new2 {
		t.Fatal("duplicate add reported new")
	}
	if _, new3 := it.add(b); !new3 {
		t.Fatal("distinct add not new")
	}
	// Mutating the input after add must not affect the interned copy.
	a[0] = 77
	if _, isNew := it.add([]uint64{1, 2, 3}); isNew {
		t.Fatal("interned copy was aliased to caller memory")
	}
	old := c1.side
	it.reset(130)
	if _, isNew := it.add([]uint64{1, 2, 3}); !isNew {
		t.Fatal("reset kept old entries")
	}
	if old[0] != 1 || old[1] != 2 || old[2] != 3 {
		t.Fatal("reset clobbered a cut handed out earlier")
	}
}

// TestComponentsSkipping pins the scan against the SubgraphWithout oracle.
func TestComponentsSkipping(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := graph.RandomKConnected(12, 2, 8, rng, graph.UnitWeights())
	comp := make([]int, g.N())
	queue := make([]int, 0, g.N())
	for a := 0; a < g.M(); a++ {
		for b := -1; b < a; b++ {
			skip := map[int]bool{a: true}
			if b >= 0 {
				skip[b] = true
			}
			sub, _ := g.SubgraphWithout(skip)
			wantComp, wantCount := sub.Components()
			gotCount := componentsSkipping(g, comp, queue, a, b, -1)
			if gotCount != wantCount {
				t.Fatalf("skip{%d,%d}: %d components, want %d", a, b, gotCount, wantCount)
			}
			for v := range wantComp {
				if comp[v] != wantComp[v] {
					t.Fatalf("skip{%d,%d}: vertex %d in comp %d, want %d", a, b, v, comp[v], wantComp[v])
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

func BenchmarkEquivalenceCorpusKargerStein(b *testing.B) {
	// Convenience: per-corpus-case timing of the new enumerator.
	for _, tc := range equivCorpus() {
		g := tc.build()
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := EnumerateMinCuts(g, tc.lambda, rand.New(rand.NewSource(int64(i)))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// cutSliceDigest folds every cut's bitset words, in slice order, into one
// order-sensitive 64-bit digest (FNV-1a). Byte-identical cut slices produce
// equal digests, and any divergence — content or order — flips it w.h.p.;
// used where the result sets are too large to hold two at once.
func cutSliceDigest(cuts []Cut) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, c := range cuts {
		for _, w := range c.side {
			for s := 0; s < 64; s += 8 {
				h ^= (w >> uint(s)) & 0xff
				h *= prime
			}
		}
	}
	return h
}

// TestGrayCodeMatchesRecountLarge pins the gray-code leaf sweep against the
// per-mask recount oracle on ring-like instances at n=4096 — large enough
// that the contraction tree is ~19 levels deep and the sweep's incremental
// crossing counts, sibling-shared leaf materialisation, and composed
// component maps all operate far outside the small-n regime the corpus
// above covers. MaxTrials caps the Karger–Stein schedule to a smoke (capped
// runs may miss cuts; irrelevant here — both evaluators walk the same
// capped trajectory), and with identical seeds the two must return
// byte-identical cut slices. The doubled cycle is
// cut-dense (a single capped trial materialises >10^6 bipartitions), so its
// runs are compared by order-sensitive digest and released one at a time
// instead of held side by side.
func TestGrayCodeMatchesRecountLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("n=4096 equivalence family; skipped in -short")
	}
	u := graph.UnitWeights()

	// Size 3 is enumerated by cycle-space labels, so this ring calls
	// Karger–Stein directly to reach its leaves.
	t.Run("harary-ring/k=3/n=4096", func(t *testing.T) {
		g := graph.Harary(3, 4096, u)
		opts := CutEnumOptions{KnownConnectivity: 3, MaxTrials: 2}
		sweep, err := cutsByContraction(g, 3, rand.New(rand.NewSource(77)), opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(sweep) == 0 {
			t.Fatal("capped run found no cuts; family or cap drifted")
		}
		ro := opts
		ro.LeafRecount = true
		recount, err := cutsByContraction(g, 3, rand.New(rand.NewSource(77)), ro)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sweep, recount) {
			t.Fatalf("gray-code sweep and recount diverge: %d vs %d cuts", len(sweep), len(recount))
		}
	})

	t.Run("cycle-x2/k=4/n=4096", func(t *testing.T) {
		g := multiplyEdges(graph.Cycle(4096, u), 2)
		opts := CutEnumOptions{KnownConnectivity: 4, MaxTrials: 1}
		run := func(o CutEnumOptions) (int, uint64) {
			cuts, err := EnumerateMinCutsOpts(g, 4, rand.New(rand.NewSource(77)), o)
			if err != nil {
				t.Fatal(err)
			}
			return len(cuts), cutSliceDigest(cuts)
		}
		n1, d1 := run(opts)
		if n1 == 0 {
			t.Fatal("capped run found no cuts; family or cap drifted")
		}
		ro := opts
		ro.LeafRecount = true
		n2, d2 := run(ro)
		if n1 != n2 || d1 != d2 {
			t.Fatalf("gray-code sweep and recount diverge: %d/%#x vs %d/%#x cuts", n1, d1, n2, d2)
		}
	})
}
