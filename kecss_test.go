package kecss

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

func TestPublicSolve2ECSS(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := graph.RandomKConnected(30, 2, 40, rng, graph.RandomWeights(rng, 50))
	res, err := Solve2ECSS(g, WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if !VerifyKEdgeConnected(g, res.Edges, 2) {
		t.Fatal("output not 2-edge-connected")
	}
	// Reproducibility: same seed, same result.
	res2, err := Solve2ECSS(g, WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if res.Weight != res2.Weight || len(res.Edges) != len(res2.Edges) {
		t.Fatal("same seed produced different results")
	}
	// Different seed may differ but must stay valid.
	res3, err := Solve2ECSS(g, WithSeed(99))
	if err != nil {
		t.Fatal(err)
	}
	if !VerifyKEdgeConnected(g, res3.Edges, 2) {
		t.Fatal("seed 99 output invalid")
	}
}

func TestPublicSolveKECSS(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := graph.RandomKConnected(18, 3, 20, rng, graph.RandomWeights(rng, 20))
	res, err := SolveKECSS(g, 3, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if !VerifyKEdgeConnected(g, res.Edges, 3) {
		t.Fatal("output not 3-edge-connected")
	}
	if res.Rounds <= 0 {
		t.Fatal("no rounds recorded")
	}
}

func TestPublicSolve3ECSSUnweighted(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := graph.RandomKConnected(16, 3, 16, rng, graph.UnitWeights())
	res, err := Solve3ECSSUnweighted(g, WithSeed(11), WithLabelBits(40))
	if err != nil {
		t.Fatal(err)
	}
	if !VerifyKEdgeConnected(g, res.Edges, 3) {
		t.Fatal("output not 3-edge-connected")
	}
}

func TestPublicSolve3ECSSWeighted(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := graph.RandomKConnected(16, 3, 16, rng, graph.RandomWeights(rng, 20))
	res, err := Solve3ECSSWeighted(g, WithSeed(13))
	if err != nil {
		t.Fatal(err)
	}
	if !VerifyKEdgeConnected(g, res.Edges, 3) {
		t.Fatal("weighted 3-ECSS output not 3-edge-connected")
	}
	if res.Weight != g.WeightOf(res.Edges) {
		t.Fatal("weight bookkeeping wrong")
	}
}

func TestPublicSolveTAP(t *testing.T) {
	g := NewGraph(5)
	var treeEdges []int
	for i := 0; i+1 < 5; i++ {
		treeEdges = append(treeEdges, g.AddEdge(i, i+1, 3))
	}
	g.AddEdge(4, 0, 2)
	g.AddEdge(0, 2, 1)
	res, err := SolveTAP(g, treeEdges, 0, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	all := append(append([]int(nil), treeEdges...), res.Augmentation...)
	if !VerifyKEdgeConnected(g, all, 2) {
		t.Fatal("TAP output invalid")
	}
}

func TestPublicOptions(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := graph.RandomKConnected(14, 2, 12, rng, graph.RandomWeights(rng, 9))
	res, err := Solve2ECSS(g,
		WithSeed(3),
		WithSimulatedMST(),
		WithParallelExecutor(),
		WithVoteDenominator(4),
	)
	if err != nil {
		t.Fatal(err)
	}
	if !VerifyKEdgeConnected(g, res.Edges, 2) {
		t.Fatal("output invalid with options")
	}
	kres, err := SolveKECSS(g, 2, WithSeed(3), WithPhaseLength(2))
	if err != nil {
		t.Fatal(err)
	}
	if !VerifyKEdgeConnected(g, kres.Edges, 2) {
		t.Fatal("k-ECSS output invalid with phase option")
	}
}

func TestVerifyKEdgeConnectedRejects(t *testing.T) {
	g := NewGraph(4)
	a := g.AddEdge(0, 1, 1)
	b := g.AddEdge(1, 2, 1)
	cEdge := g.AddEdge(2, 3, 1)
	g.AddEdge(3, 0, 1)
	if VerifyKEdgeConnected(g, []int{a, b, cEdge}, 2) {
		t.Fatal("a path should not verify as 2-edge-connected")
	}
	if VerifyKEdgeConnected(g, []int{a, b}, 1) {
		t.Fatal("a non-spanning subgraph should not verify")
	}
}
