// Command kecss runs one of the paper's algorithms on a generated graph and
// prints the result with verification.
//
// Usage:
//
//	kecss -algo 2ecss  -gen random -n 200 -seed 1
//	kecss -algo kecss  -k 3 -gen random -n 80
//	kecss -algo 3ecss  -gen chain -n 60
//	kecss -algo tap    -gen grid -n 100
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	kecss "repro"
	"repro/internal/graph"
	"repro/internal/mst"
)

func main() {
	var (
		algo    = flag.String("algo", "2ecss", "algorithm: 2ecss | kecss | 3ecss | tap")
		gen     = flag.String("gen", "random", "graph family: random | grid | harary | chain | geometric")
		n       = flag.Int("n", 100, "approximate vertex count")
		k       = flag.Int("k", 3, "connectivity target (kecss/3ecss generators)")
		seed    = flag.Int64("seed", 1, "random seed (graph and algorithm)")
		maxW    = flag.Int64("maxw", 100, "maximum edge weight (1 = unweighted)")
		verbose = flag.Bool("v", false, "print per-level / breakdown details")
	)
	flag.Parse()
	if err := run(*algo, *gen, *n, *k, *seed, *maxW, *verbose); err != nil {
		fmt.Fprintln(os.Stderr, "kecss:", err)
		os.Exit(1)
	}
}

func buildGraph(gen string, n, k int, seed, maxW int64) (*graph.Graph, error) {
	rng := rand.New(rand.NewSource(seed))
	wf := graph.RandomWeights(rng, maxW)
	if maxW <= 1 {
		wf = graph.UnitWeights()
	}
	switch gen {
	case "random":
		return graph.RandomKConnected(n, k, 2*n, rng, wf), nil
	case "grid":
		cols := n / 4
		if cols < 2 {
			cols = 2
		}
		return graph.Grid(4, cols, wf), nil
	case "harary":
		return graph.Harary(k, n, wf), nil
	case "chain":
		length := n / 6
		if length < 2 {
			length = 2
		}
		return graph.CliqueChain(length, 6, k, wf), nil
	case "geometric":
		return graph.RandomGeometric(n, 0.25, k, rng), nil
	default:
		return nil, fmt.Errorf("unknown generator %q", gen)
	}
}

func run(algo, gen string, n, k int, seed, maxW int64, verbose bool) error {
	g, err := buildGraph(gen, n, k, seed, maxW)
	if err != nil {
		return err
	}
	fmt.Printf("graph: %s family=%s diameter≈%d\n", g, gen, g.DiameterEstimate())

	switch algo {
	case "2ecss":
		res, err := kecss.Solve2ECSS(g, kecss.WithSeed(seed))
		if err != nil {
			return err
		}
		fmt.Printf("2-ECSS: %d edges, weight %d (MST lower bound %d), %d TAP iterations, %d rounds\n",
			len(res.Edges), res.Weight, res.MSTWeight, res.TAP.Iterations, res.Rounds)
		if verbose {
			for _, c := range res.TAP.RoundBreakdown {
				fmt.Printf("  rounds[%s] = %d\n", c.Label, c.Rounds)
			}
		}
		fmt.Printf("verified 2-edge-connected: %v\n", kecss.VerifyKEdgeConnected(g, res.Edges, 2))

	case "kecss":
		res, err := kecss.SolveKECSS(g, k, kecss.WithSeed(seed))
		if err != nil {
			return err
		}
		fmt.Printf("%d-ECSS: %d edges, weight %d, %d Aug iterations, %d rounds\n",
			k, len(res.Edges), res.Weight, res.Iterations, res.Rounds)
		if verbose {
			for i, lv := range res.Levels {
				fmt.Printf("  level %d: +%d edges (w=%d) cuts=%d iters=%d rounds=%d\n",
					i+1, lv.Added, lv.Weight, lv.Cuts, lv.Iterations, lv.Rounds)
			}
		}
		fmt.Printf("verified %d-edge-connected: %v\n", k, kecss.VerifyKEdgeConnected(g, res.Edges, k))

	case "3ecss":
		res, err := kecss.Solve3ECSSUnweighted(g, kecss.WithSeed(seed))
		if err != nil {
			return err
		}
		fmt.Printf("3-ECSS (unweighted): %d edges (base H: %d), %d iterations, %d rounds (%d measured label rounds)\n",
			res.Size, res.BaseSize, res.Iterations, res.Rounds, res.LabelRoundsMeasured)
		fmt.Printf("size lower bound ⌈3n/2⌉ = %d\n", (3*g.N()+1)/2)
		fmt.Printf("verified 3-edge-connected: %v\n", kecss.VerifyKEdgeConnected(g, res.Edges, 3))

	case "tap":
		treeIDs, w := mst.Kruskal(g)
		res, err := kecss.SolveTAP(g, treeIDs, 0, kecss.WithSeed(seed))
		if err != nil {
			return err
		}
		fmt.Printf("TAP over MST (w=%d): augmentation %d edges, weight %d, %d iterations, %d rounds\n",
			w, len(res.Augmentation), res.Weight, res.Iterations, res.Rounds)
		all := append(treeIDs, res.Augmentation...)
		fmt.Printf("verified 2-edge-connected: %v\n", kecss.VerifyKEdgeConnected(g, all, 2))

	default:
		return fmt.Errorf("unknown algorithm %q", algo)
	}
	return nil
}
