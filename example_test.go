package kecss_test

import (
	"fmt"
	"log"

	kecss "repro"
)

// ring6 builds a weighted 6-cycle with two chords: the standard toy input.
func ring6() *kecss.Graph {
	g := kecss.NewGraph(6)
	weights := []int64{4, 3, 5, 2, 6, 4}
	for i := 0; i < 6; i++ {
		g.AddEdge(i, (i+1)%6, weights[i])
	}
	g.AddEdge(0, 3, 9)
	g.AddEdge(1, 4, 7)
	return g
}

func ExampleSolve2ECSS() {
	g := ring6()
	res, err := kecss.Solve2ECSS(g, kecss.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("2-edge-connected:", kecss.VerifyKEdgeConnected(g, res.Edges, 2))
	fmt.Println("weight:", res.Weight)
	// Output:
	// 2-edge-connected: true
	// weight: 24
}

func ExampleSolveKECSS() {
	// A 4-edge-connected circulant; ask for a 3-ECSS.
	g := kecss.NewGraph(8)
	for off := 1; off <= 2; off++ {
		for i := 0; i < 8; i++ {
			g.AddEdge(i, (i+off)%8, int64(1+off))
		}
	}
	res, err := kecss.SolveKECSS(g, 3, kecss.WithSeed(2))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("3-edge-connected:", kecss.VerifyKEdgeConnected(g, res.Edges, 3))
	added := 0
	for _, lv := range res.Levels {
		added += lv.Added // level totals; the edges themselves are in res.Edges
	}
	fmt.Println("levels:", len(res.Levels), "edges:", added, len(res.Edges))
	// Output:
	// 3-edge-connected: true
	// levels: 3 edges: 13 13
}

func ExampleSolveTAP() {
	// Augment an explicitly chosen spanning tree (the path 0-1-2-3).
	g := kecss.NewGraph(4)
	var tree []int
	for i := 0; i+1 < 4; i++ {
		tree = append(tree, g.AddEdge(i, i+1, 10))
	}
	g.AddEdge(3, 0, 1) // the cheap closing chord
	res, err := kecss.SolveTAP(g, tree, 0, kecss.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("augmentation edges:", len(res.Augmentation), "weight:", res.Weight)
	// Output:
	// augmentation edges: 1 weight: 1
}
