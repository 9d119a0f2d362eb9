package mst

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/tree"
)

func TestKruskalKnown(t *testing.T) {
	// Triangle with weights 1, 2, 3: MST takes the two lightest edges.
	g := graph.New(3)
	a := g.AddEdge(0, 1, 1)
	b := g.AddEdge(1, 2, 2)
	g.AddEdge(0, 2, 3)
	ids, w := Kruskal(g)
	if w != 3 {
		t.Fatalf("weight = %d, want 3", w)
	}
	sort.Ints(ids)
	if len(ids) != 2 || ids[0] != a || ids[1] != b {
		t.Fatalf("edges = %v, want [%d %d]", ids, a, b)
	}
}

func TestKruskalIsSpanningTree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		g := graph.RandomKConnected(20+rng.Intn(30), 2, 20, rng, graph.RandomWeights(rng, 100))
		ids, _ := Kruskal(g)
		if len(ids) != g.N()-1 {
			t.Fatalf("trial %d: %d edges, want %d", trial, len(ids), g.N()-1)
		}
		if _, err := tree.FromEdges(g, ids, 0); err != nil {
			t.Fatalf("trial %d: not a spanning tree: %v", trial, err)
		}
	}
}

func TestKruskalCutProperty(t *testing.T) {
	// For every tree edge, it is the (weight, id)-minimal edge crossing the
	// cut induced by removing it from the tree.
	rng := rand.New(rand.NewSource(2))
	g := graph.RandomKConnected(25, 2, 30, rng, graph.RandomWeights(rng, 20))
	ids, _ := Kruskal(g)
	tr, err := tree.FromEdges(g, ids, 0)
	if err != nil {
		t.Fatal(err)
	}
	inTree := tr.IsTreeEdge()
	for _, id := range ids {
		// Side of the cut: the subtree below the deeper endpoint.
		e := g.Edge(id)
		child := e.U
		if tr.Depth[e.V] > tr.Depth[e.U] {
			child = e.V
		}
		inSub := make(map[int]bool)
		var mark func(v int)
		mark = func(v int) {
			inSub[v] = true
			for _, c := range tr.Children(v) {
				mark(c)
			}
		}
		mark(child)
		for _, f := range g.Edges() {
			if inTree[f.ID] || inSub[f.U] == inSub[f.V] {
				continue
			}
			if f.W < e.W || (f.W == e.W && f.ID < e.ID) {
				t.Fatalf("cut property violated: non-tree edge %d (w=%d) beats tree edge %d (w=%d)",
					f.ID, f.W, e.ID, e.W)
			}
		}
	}
}

func TestDistributedBoruvkaMatchesKruskal(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	graphs := []*graph.Graph{
		graph.Cycle(8, graph.RandomWeights(rng, 10)),
		graph.Grid(4, 5, graph.RandomWeights(rng, 50)),
		graph.Harary(3, 14, graph.RandomWeights(rng, 7)),
		graph.RandomKConnected(30, 2, 40, rng, graph.RandomWeights(rng, 100)),
		graph.RandomKConnected(25, 3, 25, rng, graph.UnitWeights()),
	}
	for i, g := range graphs {
		res, err := DistributedBoruvka(g)
		if err != nil {
			t.Fatalf("graph %d: %v", i, err)
		}
		wantIDs, wantW := Kruskal(g)
		if res.Weight != wantW {
			t.Fatalf("graph %d: weight %d, want %d", i, res.Weight, wantW)
		}
		got := append([]int(nil), res.EdgeIDs...)
		sort.Ints(got)
		want := append([]int(nil), wantIDs...)
		sort.Ints(want)
		if len(got) != len(want) {
			t.Fatalf("graph %d: %d edges, want %d", i, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("graph %d: edge sets differ: %v vs %v", i, got, want)
			}
		}
		if res.Phases > bitLen(g.N())+1 {
			t.Errorf("graph %d: %d phases for n=%d, want <= log n + 1", i, res.Phases, g.N())
		}
	}
}

func TestDistributedBoruvkaParallelExecutor(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := graph.RandomKConnected(20, 2, 15, rng, graph.RandomWeights(rng, 30))
	res, err := DistributedBoruvka(g, congest.WithExecutor(congest.ParallelExecutor{}))
	if err != nil {
		t.Fatal(err)
	}
	_, wantW := Kruskal(g)
	if res.Weight != wantW {
		t.Fatalf("weight %d, want %d", res.Weight, wantW)
	}
}

// TestDistributedBoruvkaRecyclesArenas pins that a warm call with no
// options borrows every network's buffers from the simulator's pool: 52
// allocations per call at n=32. A call that builds one fresh arena for its
// networks costs 73, so the ceiling of 65 trips on it.
func TestDistributedBoruvkaRecyclesArenas(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	rng := rand.New(rand.NewSource(1))
	g := graph.RandomKConnected(32, 2, 64, rng, graph.RandomWeights(rng, 1000))
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := DistributedBoruvka(g); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 65 {
		t.Errorf("%.0f allocs per warm call, want at most 65", allocs)
	}
}

func TestDistributedBoruvkaSingleVertex(t *testing.T) {
	g := graph.New(1)
	res, err := DistributedBoruvka(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.EdgeIDs) != 0 || res.Weight != 0 {
		t.Fatalf("unexpected result %+v", res)
	}
}

func TestDistributedBoruvkaDisconnectedFails(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(2, 3, 1)
	if _, err := DistributedBoruvka(g); err == nil {
		t.Fatal("expected error on disconnected graph")
	}
}

// Property: Borůvka equals Kruskal on random weighted instances.
func TestBoruvkaKruskalQuick(t *testing.T) {
	f := func(seed int64, nRaw, extraRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%25) + 5
		g := graph.RandomKConnected(n, 2, int(extraRaw%20), rng, graph.RandomWeights(rng, 40))
		res, err := DistributedBoruvka(g)
		if err != nil {
			return false
		}
		_, wantW := Kruskal(g)
		return res.Weight == wantW
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
