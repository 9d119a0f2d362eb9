package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"repro/internal/baselines"
	"repro/internal/congest"
	"repro/internal/cycles"
	"repro/internal/graph"
	"repro/internal/rounds"
)

// solve3 runs one 3-ECSS solve. All corpus instances are λ >= 3 (the same
// generator families the cut-enumeration corpus pins).
func solve3(t *testing.T, g *graph.Graph, weighted bool, seed int64, parallel bool) *ThreeECSSResult {
	t.Helper()
	opts := ThreeECSSOptions{Rng: rand.New(rand.NewSource(seed))}
	if parallel {
		opts.Executor = congest.ParallelExecutor{}
	}
	solve := Solve3ECSSUnweighted
	if weighted {
		solve = Solve3ECSSWeighted
	}
	res, err := solve(g, opts)
	if err != nil {
		t.Fatalf("solve3 (weighted=%v): %v", weighted, err)
	}
	return res
}

// solve3ECSSReference is the from-scratch oracle for the 3-ECSS solvers: the
// same base and the same sampler, but Lines 1–2 rescan every unselected
// edge's CoverCount each iteration, and after each activation the labels
// come from a full distributed scan over H ∪ A (RelabelScan) instead of the
// engine's incremental XOR updates. It skips the input check and charges
// no rounds; LabelRoundsMeasured sums the measured scans.
func solve3ECSSReference(g *graph.Graph, weighted bool, rng *rand.Rand) (*ThreeECSSResult, error) {
	var h []int
	if weighted {
		base, err := Solve2ECSS(g, TwoECSSOptions{Rng: rng})
		if err != nil {
			return nil, err
		}
		h = base.Edges
	} else {
		var err error
		if h, _, err = baselines.TwoECSSUnweighted2Approx(g, 0); err != nil {
			return nil, err
		}
	}
	eng, err := cycles.NewIncremental(g, h, 48, rng)
	if err != nil {
		return nil, err
	}
	defer eng.Release()
	res := &ThreeECSSResult{BaseSize: len(h), LabelRoundsMeasured: int64(eng.Metrics.Rounds)}
	selected := make([]bool, g.M())
	for _, id := range h {
		selected[id] = true
	}
	sel := append([]int(nil), h...)
	s := newSampler(g, 0, rng)
	var pool, added []int
	for !eng.ThreeEdgeConnected() {
		if err := s.next(); err != nil {
			return nil, err
		}
		best := -(1 << 30)
		pool = pool[:0]
		for _, e := range g.Edges() {
			if selected[e.ID] {
				continue
			}
			ce := eng.CoverCount(e.U, e.V)
			if ce == 0 {
				continue
			}
			w := int64(1)
			if weighted {
				w = e.W
			}
			exp := roundedExp(ce, w)
			if exp > best {
				best = exp
				pool = pool[:0]
			}
			if exp == best {
				pool = append(pool, e.ID)
			}
		}
		if len(pool) == 0 {
			break
		}
		res.Iterations++
		picked, _ := s.activate(best, len(pool))
		if len(picked) == 0 {
			continue
		}
		added = added[:0]
		for _, i := range picked {
			added = append(added, pool[i])
			selected[pool[i]] = true
		}
		sel = append(sel, added...)
		eng.AddEdges(added)
		scan, err := eng.RelabelScan()
		if err != nil {
			return nil, err
		}
		res.LabelRoundsMeasured += scan
	}
	if res.CorrectionEdges, err = correctTo3EC(g, selected, &sel); err != nil {
		return nil, err
	}
	sort.Ints(sel)
	res.Edges = sel
	res.Size = len(sel)
	res.Weight = g.WeightOf(sel)
	return res, nil
}

// TestSolve3ECSSLabelingEquivalenceCorpus asserts, across the generator
// families of the cut-enumeration corpus, that the incremental solve and
// the from-scratch reference (solve3ECSSReference) reach exactly the same
// result — same edges, size, weight, base, iterations and corrections
// (round totals legitimately differ: the reference measures every
// per-iteration scan, the incremental engine charges its updates) — and
// that the incremental solve is byte-identical under the parallel executor
// (run with -race in CI).
func TestSolve3ECSSLabelingEquivalenceCorpus(t *testing.T) {
	for _, tc := range equivCorpus() {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.build()
			for _, weighted := range []bool{false, true} {
				inc := solve3(t, g, weighted, 42, false)
				ref, err := solve3ECSSReference(g, weighted, rand.New(rand.NewSource(42)))
				if err != nil {
					t.Fatalf("weighted=%v: reference: %v", weighted, err)
				}
				if !reflect.DeepEqual(inc.Edges, ref.Edges) {
					t.Fatalf("weighted=%v: edges differ: incremental %d edges, reference %d",
						weighted, len(inc.Edges), len(ref.Edges))
				}
				if inc.Size != ref.Size || inc.Weight != ref.Weight ||
					inc.BaseSize != ref.BaseSize || inc.Iterations != ref.Iterations ||
					inc.CorrectionEdges != ref.CorrectionEdges {
					t.Fatalf("weighted=%v: decision stats differ:\nincremental %+v\nreference   %+v",
						weighted, inc, ref)
				}
				par := solve3(t, g, weighted, 42, true)
				if !reflect.DeepEqual(inc, par) {
					t.Fatalf("weighted=%v: sequential vs parallel executor not byte-identical:\n%+v\n%+v",
						weighted, inc, par)
				}
			}
		})
	}
}

// TestSolve3ECSSArenaEquivalence: recycled label and simulation arenas must
// not change any result. Every instance is solved cold, after two garbage
// collections have emptied the package pools, and then warm: twice more,
// first on the arenas another graph's solve returned, then on the ones its
// own solve returned.
func TestSolve3ECSSArenaEquivalence(t *testing.T) {
	corpus := equivCorpus()[:4]
	graphs := make([]*graph.Graph, len(corpus))
	cold := make([]*ThreeECSSResult, len(corpus))
	for i, tc := range corpus {
		graphs[i] = tc.build()
		runtime.GC()
		runtime.GC()
		cold[i] = solve3(t, graphs[i], false, 7, false)
	}
	for i, tc := range corpus {
		for rep := 0; rep < 2; rep++ {
			if warm := solve3(t, graphs[i], false, 7, false); !reflect.DeepEqual(cold[i], warm) {
				t.Fatalf("%s rep %d: recycled arenas changed the result", tc.name, rep)
			}
		}
	}
}

// TestSolve3ECSSAccountingBreakdown pins the round-accounting contract of
// the augmentation loop: the 2D cost-effectiveness aggregation is charged
// exactly once per counted iteration — in particular NOT on the empty-pool
// fall-through pass whose aggregation result is discarded — and the
// measured label rounds in the breakdown equal LabelRoundsMeasured.
func TestSolve3ECSSAccountingBreakdown(t *testing.T) {
	byLabel := func(acc *rounds.Accountant) map[string]int64 {
		out := map[string]int64{}
		for _, c := range acc.Breakdown() {
			out[c.Label] = c.Rounds
		}
		return out
	}

	t.Run("normal run charges 2D per counted iteration", func(t *testing.T) {
		g := graph.Harary(3, 16, graph.UnitWeights())
		h, _, err := baselines.TwoECSSUnweighted2Approx(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		var acc rounds.Accountant
		res, err := solve3ECSS(g, h, false, ThreeECSSOptions{Rng: rand.New(rand.NewSource(3))}, &acc)
		if err != nil {
			t.Fatal(err)
		}
		if res.Iterations == 0 {
			t.Fatal("instance drift: want at least one iteration")
		}
		d := int64(g.DiameterEstimate())
		b := byLabel(&acc)
		if got, want := b[chargeAggregation], 2*d*int64(res.Iterations); got != want {
			t.Fatalf("aggregation charged %d rounds, want 2D·Iterations = %d", got, want)
		}
		if b[chargeLabelScans] != res.LabelRoundsMeasured {
			t.Fatalf("measured label rounds %d in breakdown, %d in result",
				b[chargeLabelScans], res.LabelRoundsMeasured)
		}
		if b[chargeLabelUpdates] == 0 {
			t.Fatal("no incremental dissemination was charged")
		}
	})

	t.Run("empty-pool fall-through is not an iteration", func(t *testing.T) {
		// Base = all of g with 1-bit labels: the n-1 tree edges pigeonhole
		// onto 2 label values, so Claim 5.10 can never certify, there are no
		// candidates left to add, and the very first pass falls through to
		// the exact verification. The discarded pass must not be counted or
		// charged as a sampling iteration — but discovering the empty pool
		// still costs one 2D aggregation, charged under its own label.
		g := graph.Harary(3, 12, graph.UnitWeights())
		all := make([]int, g.M())
		for i := range all {
			all[i] = i
		}
		var acc rounds.Accountant
		res, err := solve3ECSS(g, all, false, ThreeECSSOptions{
			Rng:       rand.New(rand.NewSource(1)),
			LabelBits: 1,
		}, &acc)
		if err != nil {
			t.Fatal(err)
		}
		if res.Iterations != 0 {
			t.Fatalf("fall-through pass was counted: Iterations = %d", res.Iterations)
		}
		b := byLabel(&acc)
		if got, ok := b[chargeAggregation]; ok {
			t.Fatalf("discarded pass was charged as a per-iteration aggregation (%d rounds)", got)
		}
		if got, want := b[chargeFinalAgg], 2*int64(g.DiameterEstimate()); got != want {
			t.Fatalf("final aggregation charged %d rounds, want 2D = %d", got, want)
		}
		if b[chargeLabelScans] != res.LabelRoundsMeasured || res.LabelRoundsMeasured == 0 {
			t.Fatalf("label scan accounting broken: breakdown %d, measured %d",
				b[chargeLabelScans], res.LabelRoundsMeasured)
		}
		if res.Rounds != acc.Total() {
			t.Fatalf("Rounds %d != accountant total %d", res.Rounds, acc.Total())
		}
	})
}

// BenchmarkMicro_Solve3ECSSEndToEndReference is the labeling-strategy
// ablation: the graphs and seeds of the root package's
// BenchmarkMicro_Solve3ECSSEndToEnd, solved by the from-scratch reference
// (solve3ECSSReference; results are identical, see the equivalence corpus).
// CI's bench regex never selects it; it is the "how much does
// incrementality buy on its own" column.
func BenchmarkMicro_Solve3ECSSEndToEndReference(b *testing.B) {
	for _, n := range []int{64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			rng := rand.New(rand.NewSource(int64(3000 + n)))
			g := graph.RandomKConnected(n, 3, 2*n, rng, graph.UnitWeights())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := solve3ECSSReference(g, false, rand.New(rand.NewSource(int64(i)))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
