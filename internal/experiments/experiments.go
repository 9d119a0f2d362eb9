package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mst"
	"repro/internal/rounds"
	"repro/internal/service"
	"repro/internal/tap"
	"repro/internal/tree"
)

// Scale shrinks or grows every experiment's instance sizes (1 = the default
// table sizes; benchmarks may pass a smaller value for quick runs).
type Scale struct {
	// Quick trims the sweeps to their smallest sizes for smoke runs.
	Quick bool
	// Workers sets how many pool workers run each experiment's independent
	// trials (0 = GOMAXPROCS). Tables are identical at any worker count;
	// only wall-clock changes.
	Workers int
}

// threeOpts is the 3-ECSS option set every experiment trial uses: per-trial
// seed and the worker's simulation and labeling arenas.
func threeOpts(seed int64, w *service.Worker) core.ThreeECSSOptions {
	return core.ThreeECSSOptions{
		Rng:        rand.New(rand.NewSource(seed)),
		Arena:      w.Arena,
		LabelArena: w.Labels,
	}
}

func log2(x float64) float64 { return math.Log2(x) }

func randomWeighted(n, k, extra int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	return graph.RandomKConnected(n, k, extra, rng, graph.RandomWeights(rng, 1000))
}

func mstTreeOf(g *graph.Graph) *tree.Rooted {
	ids, _ := mst.Kruskal(g)
	return tree.MustFromEdges(g, ids, 0)
}

// E1 reproduces the round-complexity shape of Theorem 1.1: measured 2-ECSS
// rounds vs the (D+√n)·log²n reference and the hMST+√n baseline model of
// [1], on a low-diameter random family and a Θ(√n)-diameter grid family.
func E1(s Scale) (*Table, error) {
	t := &Table{
		ID:     "E1",
		Title:  "weighted 2-ECSS rounds (Theorem 1.1)",
		Claim:  "O((D+√n)·log²n) rounds w.h.p.; beats the O(hMST+√n) baseline [1] when hMST >> √n",
		Header: []string{"family", "n", "D", "hMST", "iters", "rounds", "(D+√n)log²n", "baseline[1]", "rounds/ref"},
	}
	type inst struct {
		family string
		g      *graph.Graph
	}
	var cases []inst
	sizes := []int{64, 128, 256, 512}
	if s.Quick {
		sizes = []int{64, 128}
	}
	for _, n := range sizes {
		cases = append(cases, inst{"random", randomWeighted(n, 2, 3*n, int64(n))})
	}
	gridCols := []int{16, 32, 64}
	if s.Quick {
		gridCols = []int{16}
	}
	for _, c := range gridCols {
		rng := rand.New(rand.NewSource(int64(c)))
		cases = append(cases, inst{"grid4xC", graph.Grid(4, c, graph.RandomWeights(rng, 1000))})
	}
	// Adversarial family for the baseline [1]: a light ring (whose MST is a
	// Hamiltonian path, hMST = n-1) plus heavy random chords (which keep the
	// hop diameter small). Here hMST >> D+√n and the baseline's O(hMST+√n)
	// bound collapses while Theorem 1.1's bound does not.
	ringSizes := []int{256, 1024}
	if s.Quick {
		ringSizes = []int{256}
	}
	for _, n := range ringSizes {
		rng := rand.New(rand.NewSource(int64(n + 5)))
		g := graph.Cycle(n, graph.UnitWeights())
		for i := 0; i < n/2; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				g.AddEdge(u, v, 1000)
			}
		}
		cases = append(cases, inst{"ring+chords", g})
	}
	err := runTrials(s, t, len(cases), func(i int, _ *service.Worker) ([][]any, error) {
		tc := cases[i]
		g := tc.g
		res, err := core.Solve2ECSS(g, core.TwoECSSOptions{Rng: rand.New(rand.NewSource(42))})
		if err != nil {
			return nil, fmt.Errorf("E1 %s n=%d: %w", tc.family, g.N(), err)
		}
		n := g.N()
		d := g.DiameterEstimate()
		h := res.TreeHeight
		logn := log2(float64(n))
		ref := (float64(d) + math.Sqrt(float64(n))) * logn * logn
		base := rounds.TAPBaselineCH(n, h)
		return one(tc.family, n, d, h, res.TAP.Iterations, res.Rounds, int64(ref), base,
			float64(res.Rounds)/ref), nil
	})
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"rounds/ref staying O(1) across n reproduces the theorem's shape",
		"baseline[1] = hMST+√n·log*n wins when the MST happens to be shallow;",
		"the ring+chords rows (hMST=n-1, small D) show the worst case the paper fixes")
	return t, nil
}

// E2 reproduces the approximation guarantee of Theorem 1.1: ratio to the
// exact optimum on small instances and to the MST lower bound on large ones,
// against the O(log n) claim.
func E2(s Scale) (*Table, error) {
	t := &Table{
		ID:     "E2",
		Title:  "weighted 2-ECSS approximation (Theorem 1.1)",
		Claim:  "guaranteed O(log n)-approximation",
		Header: []string{"n", "oracle", "alg weight", "bound", "ratio", "ln n"},
	}
	trials := 6
	if s.Quick {
		trials = 3
	}
	large := []int{128, 512}
	if s.Quick {
		large = []int{128}
	}
	err := runTrials(s, t, trials+len(large), func(i int, _ *service.Worker) ([][]any, error) {
		if i < trials {
			trial := i
			n := 8 + trial
			g := randomWeighted(n, 2, 6, int64(100+trial))
			tr := mstTreeOf(g)
			_, optAug, err := baselines.ExactTAP(g, tr)
			if err != nil {
				return nil, fmt.Errorf("E2 exact: %w", err)
			}
			_, mstW := mst.Kruskal(g)
			res, err := core.Solve2ECSS(g, core.TwoECSSOptions{Rng: rand.New(rand.NewSource(int64(trial)))})
			if err != nil {
				return nil, fmt.Errorf("E2 alg: %w", err)
			}
			// Exact 2-ECSS optimum is lower-bounded by MST + exact TAP optimum
			// of the MST... not exactly, so report ratio vs (mstW + optAug),
			// the optimum of the algorithm's own decomposition, and vs MST.
			oracle := mstW + optAug
			return one(n, "MST+TAP*", res.Weight, oracle, float64(res.Weight)/float64(oracle), math.Log(float64(n))), nil
		}
		n := large[i-trials]
		g := randomWeighted(n, 2, 3*n, int64(n+7))
		res, err := core.Solve2ECSS(g, core.TwoECSSOptions{Rng: rand.New(rand.NewSource(5))})
		if err != nil {
			return nil, fmt.Errorf("E2 large: %w", err)
		}
		return one(n, "MST bound", res.Weight, res.MSTWeight,
			float64(res.Weight)/float64(res.MSTWeight), math.Log(float64(n))), nil
	})
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes, "ratio growing no faster than ln n reproduces the guarantee")
	return t, nil
}

// E3 reproduces Lemma 3.11: the number of TAP voting iterations is
// O(log² n) w.h.p.
func E3(s Scale) (*Table, error) {
	t := &Table{
		ID:     "E3",
		Title:  "TAP iteration count (Lemma 3.11)",
		Claim:  "O(log² n) iterations w.h.p.",
		Header: []string{"n", "iters(med)", "iters(max)", "log²n", "med/log²n"},
	}
	sizes := []int{64, 128, 256, 512, 1024}
	reps := 5
	if s.Quick {
		sizes = []int{64, 128, 256}
		reps = 3
	}
	err := runTrials(s, t, len(sizes), func(i int, _ *service.Worker) ([][]any, error) {
		n := sizes[i]
		g := randomWeighted(n, 2, 3*n, int64(n+13))
		tr := mstTreeOf(g)
		var iters []int
		for r := 0; r < reps; r++ {
			res, err := tap.Augment(g, tr, tap.Options{Rng: rand.New(rand.NewSource(int64(r + 1)))})
			if err != nil {
				return nil, fmt.Errorf("E3 n=%d: %w", n, err)
			}
			iters = append(iters, res.Iterations)
		}
		med, max := medianMax(iters)
		l2 := log2(float64(n)) * log2(float64(n))
		return one(n, med, max, int(l2), float64(med)/l2), nil
	})
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes, "med/log²n staying bounded (in fact shrinking) reproduces the lemma")
	return t, nil
}

// E4 reproduces the round complexity of Theorem 1.2: weighted k-ECSS rounds
// vs the k(D·log³n+n) reference and the O(knD) primal-dual baseline [35].
func E4(s Scale) (*Table, error) {
	t := &Table{
		ID:     "E4",
		Title:  "weighted k-ECSS rounds (Theorem 1.2)",
		Claim:  "O(k(D·log³n+n)) rounds; the O(knD) baseline [35] loses once D >> log³n",
		Header: []string{"k", "n", "D", "iters", "rounds", "k(Dlog³n+n)", "knD [35]", "rounds/ref"},
	}
	ks := []int{2, 3, 4}
	sizes := []int{32, 64, 96}
	if s.Quick {
		ks = []int{2, 3}
		sizes = []int{32, 64}
	}
	type combo struct{ k, n int }
	var combos []combo
	for _, k := range ks {
		for _, n := range sizes {
			combos = append(combos, combo{k, n})
		}
	}
	// High-diameter instance where the primal-dual baseline collapses: a
	// sparse ring (D = Θ(n)) with a few chords. knD = Θ(n²) here, while this
	// algorithm stays near-linear. It runs as the final trial.
	ringN := 600
	if s.Quick {
		ringN = 200
	}
	err := runTrials(s, t, len(combos)+1, func(i int, _ *service.Worker) ([][]any, error) {
		if i < len(combos) {
			k, n := combos[i].k, combos[i].n
			g := randomWeighted(n, k, 2*n, int64(k*1000+n))
			res, err := core.SolveKECSS(g, k, core.KECSSOptions{Rng: rand.New(rand.NewSource(3))})
			if err != nil {
				return nil, fmt.Errorf("E4 k=%d n=%d: %w", k, n, err)
			}
			d := g.DiameterEstimate()
			logn := log2(float64(n))
			ref := float64(k) * (float64(d)*logn*logn*logn + float64(n))
			pd := rounds.PrimalDualBaseline(k, n, d)
			return one(k, n, d, res.Iterations, res.Rounds, int64(ref), pd, float64(res.Rounds)/ref), nil
		}
		rng := rand.New(rand.NewSource(77))
		g := graph.Cycle(ringN, graph.RandomWeights(rng, 1000))
		for j := 0; j < 6; j++ {
			u, v := rng.Intn(ringN), rng.Intn(ringN)
			if u != v {
				g.AddEdge(u, v, 1+rng.Int63n(1000))
			}
		}
		res, err := core.SolveKECSS(g, 2, core.KECSSOptions{Rng: rand.New(rand.NewSource(4))})
		if err != nil {
			return nil, fmt.Errorf("E4 ring: %w", err)
		}
		n, d := g.N(), g.DiameterEstimate()
		logn := log2(float64(n))
		ref := 2 * (float64(d)*logn*logn*logn + float64(n))
		return one(2, n, d, res.Iterations, res.Rounds, int64(ref), rounds.PrimalDualBaseline(2, n, d),
			float64(res.Rounds)/ref), nil
	})
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"small-D rows: the knD baseline [35] is fine when D is tiny (knD < k(Dlog³n+n))",
		"last row: Θ(D)=Θ(n) ring — knD = Θ(n²) explodes, this algorithm stays near-linear")
	return t, nil
}

// E5 reproduces the approximation claim of Theorem 1.2: expected
// O(k·log n) ratio, vs the exact optimum (small) and the degree lower
// bound (larger).
func E5(s Scale) (*Table, error) {
	t := &Table{
		ID:     "E5",
		Title:  "weighted k-ECSS approximation (Theorem 1.2)",
		Claim:  "O(k·log n) expected approximation",
		Header: []string{"k", "n", "oracle", "alg weight", "bound", "ratio", "k·ln n"},
	}
	// Small exact instances.
	small := 4
	if s.Quick {
		small = 2
	}
	ks := []int{2, 3, 4}
	if s.Quick {
		ks = []int{2, 3}
	}
	err := runTrials(s, t, small+len(ks), func(i int, _ *service.Worker) ([][]any, error) {
		if i < small {
			trial := i
			g := randomWeighted(7, 2, 3, int64(trial+900))
			if g.M() > baselines.MaxExactKECSSEdges {
				return nil, nil
			}
			_, opt, err := baselines.ExactKECSS(g, 2)
			if err != nil {
				return nil, fmt.Errorf("E5 exact: %w", err)
			}
			res, err := core.SolveKECSS(g, 2, core.KECSSOptions{Rng: rand.New(rand.NewSource(int64(trial)))})
			if err != nil {
				return nil, fmt.Errorf("E5 alg: %w", err)
			}
			return one(2, 7, "exact OPT", res.Weight, opt, float64(res.Weight)/float64(opt),
				2*math.Log(7.0)), nil
		}
		k := ks[i-small]
		n := 60
		g := randomWeighted(n, k, 2*n, int64(k*31))
		res, err := core.SolveKECSS(g, k, core.KECSSOptions{Rng: rand.New(rand.NewSource(9))})
		if err != nil {
			return nil, fmt.Errorf("E5 k=%d: %w", k, err)
		}
		lb := baselines.DegreeLowerBound(g, k)
		return one(k, n, "degree LB", res.Weight, lb, float64(res.Weight)/float64(lb),
			float64(k)*math.Log(float64(n))), nil
	})
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes, "ratios below k·ln n reproduce the expected guarantee")
	return t, nil
}

// E6 reproduces the §4 phase analysis: Aug iteration counts O(log³n) and
// the Lemma 4.5 decay of the maximum cut degree along the p_i schedule.
func E6(s Scale) (*Table, error) {
	t := &Table{
		ID:     "E6",
		Title:  "Aug_k iterations and cut-degree decay (§4, Lemma 4.5)",
		Claim:  "O(log³n) iterations; max cut degree <= 2^l in the p=2^-l phase w.h.p.",
		Header: []string{"n", "iters", "log³n", "iters/log³n", "deg(start)", "deg(mid)", "deg(end)", "violations"},
	}
	sizes := []int{48, 96, 192}
	if s.Quick {
		sizes = []int{48, 96}
	}
	err := runTrials(s, t, len(sizes), func(i int, _ *service.Worker) ([][]any, error) {
		n := sizes[i]
		g := randomWeighted(n, 2, 2*n, int64(n+3))
		treeIDs, _ := mst.Kruskal(g)
		res, err := core.Aug(g, treeIDs, 2, core.AugOptions{Rng: rand.New(rand.NewSource(21))})
		if err != nil {
			return nil, fmt.Errorf("E6 n=%d: %w", n, err)
		}
		l3 := math.Pow(log2(float64(n)), 3)
		trace := res.MaxCutDegreeTrace
		var start, mid, end int
		if len(trace) > 0 {
			start = trace[0]
			mid = trace[len(trace)/2]
			end = trace[len(trace)-1]
		}
		// Lemma 4.5 check: in the phase with exponent l, max degree <= 2^l
		// — count violations (expected ~0 with slack factor 4).
		violations := 0
		for j, deg := range trace {
			l := res.PTrace[j]
			if int64(deg) > 4<<uint(l) {
				violations++
			}
		}
		return one(n, res.Iterations, int(l3), float64(res.Iterations)/l3, start, mid, end, violations), nil
	})
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes, "degree trace shrinking along the schedule reproduces Lemma 4.5")
	return t, nil
}

func medianMax(xs []int) (int, int) {
	if len(xs) == 0 {
		return 0, 0
	}
	sorted := append([]int(nil), xs...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	max := sorted[len(sorted)-1]
	return sorted[len(sorted)/2], max
}
