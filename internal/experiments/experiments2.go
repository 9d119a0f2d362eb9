package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/baselines"
	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/cycles"
	"repro/internal/graph"
	"repro/internal/mst"
	"repro/internal/rounds"
	"repro/internal/segments"
	"repro/internal/tap"
	"repro/internal/tree"
)

// E7 reproduces Theorem 1.3: unweighted 3-ECSS in O(D·log³n) rounds —
// rounds track D on a diameter sweep at roughly constant log n, and beat
// the generic k-ECSS algorithm (whose rounds include an additive n).
func E7(s Scale) (*Table, error) {
	t := &Table{
		ID:     "E7",
		Title:  "unweighted 3-ECSS rounds (Theorem 1.3)",
		Claim:  "O(D·log³n) rounds — D-dominated, no additive n term",
		Header: []string{"family", "n", "D", "iters", "rounds", "D·log³n", "rounds/ref", "generic k-ECSS rounds"},
	}
	type inst struct {
		family string
		g      *graph.Graph
	}
	var cases []inst
	lengths := []int{4, 8, 16, 32}
	if s.Quick {
		lengths = []int{4, 8}
	}
	for _, l := range lengths {
		cases = append(cases, inst{fmt.Sprintf("chain(L=%d)", l), graph.CliqueChain(l, 6, 3, graph.UnitWeights())})
	}
	sizes := []int{64, 128}
	if s.Quick {
		sizes = []int{64}
	}
	for _, n := range sizes {
		rng := rand.New(rand.NewSource(int64(n)))
		cases = append(cases, inst{"random", graph.RandomKConnected(n, 3, 2*n, rng, graph.UnitWeights())})
	}
	err := runTrials(s, t, len(cases), func(i int) ([][]any, error) {
		tc := cases[i]
		g := tc.g
		res, err := core.Solve3ECSSUnweighted(g, core.ThreeECSSOptions{Rng: rand.New(rand.NewSource(7))})
		if err != nil {
			return nil, fmt.Errorf("E7 %s: %w", tc.family, err)
		}
		gen, err := core.SolveKECSS(g, 3, core.KECSSOptions{Rng: rand.New(rand.NewSource(8))})
		if err != nil {
			return nil, fmt.Errorf("E7 generic %s: %w", tc.family, err)
		}
		n, d := g.N(), g.DiameterEstimate()
		logn := log2(float64(n))
		ref := float64(d) * logn * logn * logn
		return one(tc.family, n, d, res.Iterations, res.Rounds, int64(ref),
			float64(res.Rounds)/ref, gen.Rounds), nil
	})
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"rounds/ref bounded across the D sweep reproduces the theorem",
		"the generic §4 algorithm pays its additive O(n) and loses on every row")
	return t, nil
}

// E8 reproduces Lemma 5.4/5.5 and Figure 2: label computation in O(D)
// rounds, exact cut-pair detection at Θ(log n) width, one-sided error, and
// the false-positive rate as the width shrinks.
func E8(s Scale) (*Table, error) {
	t := &Table{
		ID:     "E8",
		Title:  "cycle space sampling (Pritchard–Thurimella; §5.1, Figure 2)",
		Claim:  "O(D)-round labels; φ(e)=φ(f) iff cut pair, error one-sided and 2^-b",
		Header: []string{"graph", "n", "bits", "label rounds", "tree height", "true pairs", "detected", "false+", "missed"},
	}
	type inst struct {
		name string
		g    *graph.Graph
	}
	cases := []inst{
		{"figure2", graph.PaperFigure2Graph()},
		{"cycle24", graph.Cycle(24, graph.UnitWeights())},
		{"grid6x6", graph.Grid(6, 6, graph.UnitWeights())},
	}
	if !s.Quick {
		rng := rand.New(rand.NewSource(88))
		cases = append(cases, inst{"random64", graph.RandomKConnected(64, 2, 20, rng, graph.UnitWeights())})
	}
	widths := []int{1, 4, 16, 48}
	err := runTrials(s, t, len(cases), func(i int) ([][]any, error) {
		tc := cases[i]
		truth := pairSet(tc.g.CutPairs())
		tr, err := tree.FromBFS(tc.g.BFS(0))
		if err != nil {
			return nil, fmt.Errorf("E8 %s: %w", tc.name, err)
		}
		var rows [][]any
		for _, b := range widths {
			l, err := cycles.ComputeLabels(tc.g, tr, b, rand.New(rand.NewSource(5)))
			if err != nil {
				return nil, fmt.Errorf("E8 %s b=%d: %w", tc.name, b, err)
			}
			detected := pairSet(l.CutPairs())
			falsePos, missed := 0, 0
			for p := range detected {
				if !truth[p] {
					falsePos++
				}
			}
			for p := range truth {
				if !detected[p] {
					missed++
				}
			}
			rows = append(rows, []any{tc.name, tc.g.N(), b, l.Metrics.Rounds, tr.Height(),
				len(truth), len(detected), falsePos, missed})
		}
		return rows, nil
	})
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"missed always 0 (one-sided error); false+ vanishes by b=16",
		"label rounds tracking tree height (≤ 2D) reproduces Lemma 5.5")
	return t, nil
}

func pairSet(ps []graph.CutPair) map[graph.CutPair]bool {
	out := make(map[graph.CutPair]bool, len(ps))
	for _, p := range ps {
		out[p] = true
	}
	return out
}

// E9 reproduces Lemma 3.4 / Figure 1: the segment decomposition has O(√n)
// segments of diameter O(√n).
func E9(s Scale) (*Table, error) {
	t := &Table{
		ID:     "E9",
		Title:  "segment decomposition scaling (Lemma 3.4, Figure 1)",
		Claim:  "O(√n) edge-disjoint segments of diameter O(√n)",
		Header: []string{"n", "√n", "marked", "segments", "max seg diam", "segments/√n", "diam/√n"},
	}
	sizes := []int{100, 400, 1600, 6400}
	if s.Quick {
		sizes = []int{100, 400}
	}
	err := runTrials(s, t, len(sizes), func(i int) ([][]any, error) {
		n := sizes[i]
		g := randomWeighted(n, 2, n, int64(n+1))
		ids, _ := mst.Kruskal(g)
		tr := tree.MustFromEdges(g, ids, 0)
		dec, err := segments.Decompose(g, tr, segments.DefaultTarget(n))
		if err != nil {
			return nil, fmt.Errorf("E9 n=%d: %w", n, err)
		}
		sq := math.Sqrt(float64(n))
		return one(n, int(sq), dec.MarkedCount(), len(dec.Segments), dec.MaxSegmentDiameter(),
			float64(len(dec.Segments))/sq, float64(dec.MaxSegmentDiameter())/sq), nil
	})
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes, "both normalized columns flat across n reproduces the lemma")
	return t, nil
}

// E10 reproduces the unweighted k-ECSS baseline comparison: Thurimella's
// sparse certificate (2-approx, k(D+√n) rounds [36]) vs this paper's
// algorithms on identical unweighted instances.
func E10(s Scale) (*Table, error) {
	t := &Table{
		ID:     "E10",
		Title:  "unweighted k-ECSS: sparse certificates [36] vs this paper",
		Claim:  "[36] guarantees size 2·OPT in k(D+√n·log*n) rounds; this paper guarantees only O(log n)·OPT but measures *smaller* (certificates keep every forest edge, the covering algorithm does not)",
		Header: []string{"n", "D", "k", "LB=⌈kn/2⌉", "cert size", "alg size", "cert rounds[36]", "alg rounds"},
	}
	type inst struct {
		g *graph.Graph
		k int
	}
	var cases []inst
	sizes := []int{48, 96}
	if s.Quick {
		sizes = []int{48}
	}
	for _, n := range sizes {
		rng := rand.New(rand.NewSource(int64(n * 3)))
		cases = append(cases, inst{graph.RandomKConnected(n, 3, 2*n, rng, graph.UnitWeights()), 3})
	}
	cases = append(cases, inst{graph.CliqueChain(12, 6, 3, graph.UnitWeights()), 3})
	err := runTrials(s, t, len(cases), func(i int) ([][]any, error) {
		tc := cases[i]
		g := tc.g
		cert := baselines.ThurimellaCertificate(g, tc.k)
		res, err := core.Solve3ECSSUnweighted(g, core.ThreeECSSOptions{Rng: rand.New(rand.NewSource(6))})
		if err != nil {
			return nil, fmt.Errorf("E10: %w", err)
		}
		n, d := g.N(), g.DiameterEstimate()
		lb := (tc.k*n + 1) / 2
		return one(n, d, tc.k, lb, len(cert), res.Size,
			rounds.ThurimellaBaseline(tc.k, n, d), res.Rounds), nil
	})
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"both sizes sit between LB and their guarantees; measured sizes favour this paper",
		"rounds favour [36] at these scales — its advantage region is D·log³n >> √n")
	return t, nil
}

// AblationVoteThreshold measures the TAP vote-acceptance denominator's
// effect (DESIGN.md §5): larger thresholds accept fewer candidates per
// iteration (more iterations, tighter guarantee constant).
func AblationVoteThreshold(s Scale) (*Table, error) {
	t := &Table{
		ID:     "A1",
		Title:  "ablation: TAP vote threshold |Ce|/d",
		Claim:  "paper uses d=8 for the guarantee; d trades iterations vs weight",
		Header: []string{"d", "iterations", "aug weight", "aug edges"},
	}
	n := 256
	if s.Quick {
		n = 96
	}
	g := randomWeighted(n, 2, 3*n, 1234)
	tr := mstTreeOf(g)
	denoms := []int64{2, 4, 8, 16, 32}
	err := runTrials(s, t, len(denoms), func(i int) ([][]any, error) {
		d := denoms[i]
		res, err := tap.Augment(g, tr, tap.Options{Rng: rand.New(rand.NewSource(5)), VoteDenom: d})
		if err != nil {
			return nil, fmt.Errorf("ablation d=%d: %w", d, err)
		}
		return one(d, res.Iterations, res.Weight, len(res.Augmentation)), nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// AblationRounding compares rounded vs exact cost-effectiveness candidate
// selection.
func AblationRounding(s Scale) (*Table, error) {
	t := &Table{
		ID:     "A2",
		Title:  "ablation: rounded vs exact cost-effectiveness",
		Claim:  "rounding admits more simultaneous candidates (fewer iterations) at the same guarantee",
		Header: []string{"mode", "iterations", "aug weight"},
	}
	n := 256
	if s.Quick {
		n = 96
	}
	g := randomWeighted(n, 2, 3*n, 777)
	tr := mstTreeOf(g)
	modes := []bool{false, true}
	err := runTrials(s, t, len(modes), func(i int) ([][]any, error) {
		exact := modes[i]
		res, err := tap.Augment(g, tr, tap.Options{Rng: rand.New(rand.NewSource(5)), DisableRounding: exact})
		if err != nil {
			return nil, fmt.Errorf("ablation rounding: %w", err)
		}
		mode := "rounded (paper)"
		if exact {
			mode = "exact"
		}
		return one(mode, res.Iterations, res.Weight), nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// AblationPhaseLength varies the M in "double p every M·log n iterations".
func AblationPhaseLength(s Scale) (*Table, error) {
	t := &Table{
		ID:     "A3",
		Title:  "ablation: Aug_k activation phase length M",
		Claim:  "larger M means slower schedule: more iterations, fewer simultaneous additions",
		Header: []string{"M", "iterations", "aug weight", "aug edges"},
	}
	n := 96
	if s.Quick {
		n = 48
	}
	g := randomWeighted(n, 2, 2*n, 999)
	treeIDs, _ := mst.Kruskal(g)
	ms := []int{1, 2, 4}
	err := runTrials(s, t, len(ms), func(i int) ([][]any, error) {
		m := ms[i]
		res, err := core.Aug(g, treeIDs, 2, core.AugOptions{Rng: rand.New(rand.NewSource(5)), PhaseLen: m})
		if err != nil {
			return nil, fmt.Errorf("ablation M=%d: %w", m, err)
		}
		return one(m, res.Iterations, res.Weight, len(res.Added)), nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// AblationExecutor compares the sequential and pooled-parallel executors on
// the genuinely simulated pieces (identical results, different host
// parallelism) — wall-clock is measured by the corresponding benchmark.
func AblationExecutor(s Scale) (*Table, error) {
	t := &Table{
		ID:     "A4",
		Title:  "ablation: simulator executor",
		Claim:  "results identical; pooled executors exercise real parallelism",
		Header: []string{"executor", "MST weight", "MST phases", "measured rounds"},
	}
	n := 128
	if s.Quick {
		n = 48
	}
	g := randomWeighted(n, 2, 2*n, 321)
	execs := []struct {
		name string
		exec congest.Executor
	}{
		{"sequential", congest.SequentialExecutor{}},
		{"parallel", congest.ParallelExecutor{}},
	}
	err := runTrials(s, t, len(execs), func(i int) ([][]any, error) {
		tc := execs[i]
		res, err := mst.DistributedBoruvka(g, congest.WithExecutor(tc.exec))
		if err != nil {
			return nil, fmt.Errorf("ablation executor: %w", err)
		}
		return one(tc.name, res.Weight, res.Phases, res.Metrics.Rounds), nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// All runs every experiment and ablation in order.
func All(s Scale) ([]*Table, error) {
	runs := []func(Scale) (*Table, error){
		E1, E2, E3, E4, E5, E6, E7, E8, E9, E10, E11, E12, E13, E14,
		AblationVoteThreshold, AblationRounding, AblationPhaseLength, AblationExecutor,
	}
	out := make([]*Table, 0, len(runs))
	for _, f := range runs {
		tbl, err := f(s)
		if err != nil {
			return out, err
		}
		out = append(out, tbl)
	}
	return out, nil
}
