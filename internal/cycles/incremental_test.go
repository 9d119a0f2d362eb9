package cycles

import (
	"math/rand"
	"testing"

	"repro/internal/congest"
	"repro/internal/graph"
)

// snapshotPhi copies the labels of every active edge.
func snapshotPhi(inc *Incremental) map[int]uint64 {
	out := make(map[int]uint64, inc.ActiveCount())
	for _, id := range inc.activeIDs {
		out[id] = inc.Phi(id)
	}
	return out
}

// spanning2EC returns a 2-edge-connected random host graph and a base edge
// set: a spanning cycle through all vertices (2-edge-connected, spanning),
// leaving the remaining edges as AddEdges candidates.
func spanning2EC(n, extra int, seed int64) (*graph.Graph, []int, []int) {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(n)
	base := make([]int, 0, n)
	for v := 0; v < n; v++ {
		base = append(base, g.AddEdge(v, (v+1)%n, 1))
	}
	cands := make([]int, 0, extra)
	for len(cands) < extra {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		cands = append(cands, g.AddEdge(u, v, 1))
	}
	return g, base, cands
}

func TestIncrementalValidation(t *testing.T) {
	g, base, _ := spanning2EC(6, 2, 1)
	if _, err := NewIncremental(g, base, 0, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("expected error for bits=0")
	}
	if _, err := NewIncremental(g, base, 32, nil); err == nil {
		t.Fatal("expected error for nil rng")
	}
	// A non-spanning base (single edge) must be rejected — and must hand
	// its borrowed arena back instead of leaking it busy.
	ar := new(Arena)
	if _, err := newIncremental(g, base[:1], 32, rand.New(rand.NewSource(1)), ar, nil); err == nil {
		t.Fatal("expected error for non-spanning base")
	}
	if ar.busy {
		t.Fatal("arena leaked busy by the failed construction")
	}
}

func TestIncrementalInitMatchesComputeLabels(t *testing.T) {
	// With the same tree and the same seed, the engine's base labeling must
	// be bit-for-bit the one-shot ComputeLabels labeling: both draw the
	// non-tree labels in owner-vertex order.
	rng := rand.New(rand.NewSource(3))
	g := graph.RandomKConnected(18, 2, 12, rng, graph.UnitWeights())
	all := make([]int, g.M())
	for i := range all {
		all[i] = i
	}
	inc, err := NewIncremental(g, all, 48, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	l, err := ComputeLabels(g, inc.Tree, 48, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	for id, lab := range l.Phi {
		if inc.Phi(id) != lab {
			t.Fatalf("edge %d: engine %x, ComputeLabels %x", id, inc.Phi(id), lab)
		}
	}
	if got, want := inc.ThreeEdgeConnected(), l.ThreeEdgeConnectedWith(); got != want {
		t.Fatalf("predicate: engine %v, labeling %v", got, want)
	}
	if inc.Metrics.Rounds != l.Metrics.Rounds {
		t.Fatalf("measured rounds differ: %d vs %d", inc.Metrics.Rounds, l.Metrics.Rounds)
	}
}

func TestIncrementalAddEdgesMatchesRelabelScan(t *testing.T) {
	// The tentpole invariant: after any AddEdges sequence, the incremental
	// XOR state equals the retained from-scratch distributed scan —
	// bit-for-bit, and the rebuilt counts agree with the maintained ones.
	for _, seed := range []int64{1, 2, 3} {
		g, base, cands := spanning2EC(20, 30, seed)
		inc, err := NewIncremental(g, base, 48, rand.New(rand.NewSource(seed*100)))
		if err != nil {
			t.Fatal(err)
		}
		for len(cands) > 0 {
			k := 3
			if k > len(cands) {
				k = len(cands)
			}
			batch := cands[:k]
			cands = cands[k:]
			inc.AddEdges(batch)
			incPhi := snapshotPhi(inc)
			incBad := inc.nBad
			if _, err := inc.RelabelScan(); err != nil {
				t.Fatal(err)
			}
			for id, lab := range incPhi {
				if inc.Phi(id) != lab {
					t.Fatalf("seed %d: edge %d: incremental %x, scan %x", seed, id, lab, inc.Phi(id))
				}
			}
			if inc.nBad != incBad {
				t.Fatalf("seed %d: maintained nBad %d, rebuilt %d", seed, incBad, inc.nBad)
			}
		}
	}
}

func TestIncrementalCoverCountMatchesBruteForce(t *testing.T) {
	// Claim 5.8 on the active subgraph: CoverCount of a prospective edge
	// equals the number of cut pairs of H∪A it would cover.
	rng := rand.New(rand.NewSource(9))
	g, base, cands := spanning2EC(12, 10, 9)
	inc, err := NewIncremental(g, base, 48, rand.New(rand.NewSource(17)))
	if err != nil {
		t.Fatal(err)
	}
	inc.AddEdges(cands[:4])
	active := append(append([]int(nil), base...), cands[:4]...)
	sub, _ := g.SubgraphOf(active)
	pairs := sub.CutPairs()
	for probe := 0; probe < 15; probe++ {
		u, v := rng.Intn(g.N()), rng.Intn(g.N())
		if u == v {
			continue
		}
		var want int64
		for _, p := range pairs {
			h2 := sub.Clone()
			h2.AddEdge(u, v, 1)
			rem, _ := h2.SubgraphWithout(map[int]bool{p.A: true, p.B: true})
			if rem.Connected() {
				want++
			}
		}
		if got := inc.CoverCount(u, v); got != want {
			t.Fatalf("CoverCount(%d,%d) = %d, want %d", u, v, got, want)
		}
	}
}

func TestIncrementalPredicateAgainstOracle(t *testing.T) {
	// Grow H∪A edge by edge; at every step the Claim 5.10 predicate must
	// agree with the exact 3-edge-connectivity oracle (48-bit labels make
	// collisions negligible at these sizes).
	for _, seed := range []int64{4, 5} {
		g, base, cands := spanning2EC(10, 25, seed)
		inc, err := NewIncremental(g, base, 48, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		active := append([]int(nil), base...)
		check := func() {
			sub, _ := g.SubgraphOf(active)
			if got, want := inc.ThreeEdgeConnected(), sub.IsKEdgeConnected(3); got != want {
				t.Fatalf("seed %d, |A|=%d: predicate %v, oracle %v",
					seed, len(active)-len(base), got, want)
			}
		}
		check()
		for _, id := range cands {
			inc.AddEdges([]int{id})
			active = append(active, id)
			check()
		}
	}
}

func TestIncrementalExecutorsAgree(t *testing.T) {
	g, base, cands := spanning2EC(16, 20, 11)
	run := func(opts ...congest.Option) map[int]uint64 {
		inc, err := NewIncremental(g, base, 48, rand.New(rand.NewSource(5)), opts...)
		if err != nil {
			t.Fatal(err)
		}
		inc.AddEdges(cands)
		return snapshotPhi(inc)
	}
	seq := run()
	par := run(congest.WithExecutor(congest.ParallelExecutor{}))
	for id, lab := range seq {
		if par[id] != lab {
			t.Fatalf("edge %d: labels differ across executors", id)
		}
	}
}

func TestIncrementalArena(t *testing.T) {
	ar := new(Arena)
	g1, base1, cands1 := spanning2EC(14, 12, 21)
	newInc := func(ar *Arena) *Incremental {
		inc, err := newIncremental(g1, base1, 48, rand.New(rand.NewSource(6)), ar, nil)
		if err != nil {
			t.Fatal(err)
		}
		return inc
	}
	run := func(ar *Arena) map[int]uint64 {
		inc := newInc(ar)
		defer inc.Release()
		inc.AddEdges(cands1)
		return snapshotPhi(inc)
	}
	fresh := run(new(Arena))
	pooled1 := run(ar)
	pooled2 := run(ar) // recycled buffers must not leak state
	for id, lab := range fresh {
		if pooled1[id] != lab || pooled2[id] != lab {
			t.Fatalf("edge %d: arena runs diverge from a fresh arena", id)
		}
	}
	// A busy arena is not handed out twice: the nested engine takes a
	// pooled arena and still works.
	inc1 := newInc(ar)
	inc2 := newInc(ar)
	if inc2.arena == ar || !inc2.arena.pooled {
		t.Fatal("nested engine did not take a pooled arena")
	}
	inc2.AddEdges(cands1)
	inc1.AddEdges(cands1)
	for _, id := range cands1 {
		if inc1.Phi(id) != inc2.Phi(id) {
			t.Fatalf("edge %d: pooled and fallback engines diverge", id)
		}
	}
	inc1.Release()
	inc2.Release()
	// After release the arena is free again.
	if inc3 := newInc(ar); inc3.arena != ar {
		t.Fatal("released arena was not reused")
	}
}

func TestIncrementalAddEdgesPanicsOnDouble(t *testing.T) {
	g, base, cands := spanning2EC(8, 4, 2)
	inc, err := NewIncremental(g, base, 48, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	inc.AddEdges(cands[:1])
	defer func() {
		if recover() == nil {
			t.Fatal("double activation did not panic")
		}
	}()
	inc.AddEdges(cands[:1])
}
