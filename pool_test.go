package kecss

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mst"
)

// poolTestTasks builds a mixed sweep: every solver, with two graphs shared
// across multiple trial tasks (exercising the validate-once path and the
// per-index seed derivation).
func poolTestTasks() []Task {
	rng := rand.New(rand.NewSource(11))
	g2 := graph.RandomKConnected(24, 2, 30, rng, graph.RandomWeights(rng, 40))
	g3 := graph.RandomKConnected(16, 3, 18, rng, graph.UnitWeights())
	g3w := graph.RandomKConnected(14, 3, 16, rng, graph.RandomWeights(rng, 20))
	var tasks []Task
	for trial := 0; trial < 3; trial++ {
		tasks = append(tasks,
			Task{Graph: g2, Solver: Solver2ECSS, Opts: []Option{WithSeed(7)}},
			Task{Graph: g3, Solver: SolverKECSS, K: 3, Opts: []Option{WithSeed(5)}},
			Task{Graph: g3, Solver: Solver3ECSSUnweighted, Opts: []Option{WithSeed(3), WithLabelBits(40)}},
			Task{Graph: g3w, Solver: Solver3ECSSWeighted, Opts: []Option{WithSeed(9)}},
		)
	}
	return tasks
}

// digest flattens a sweep's results into a byte-comparable form covering
// the full visible outcome: edge sets, weights, rounds and solver-specific
// iteration counts.
func digest(results []Result) string {
	var b strings.Builder
	for _, r := range results {
		fmt.Fprintf(&b, "task=%d err=%v edges=%v w=%d rounds=%d", r.Task, r.Err, r.Edges, r.Weight, r.Rounds)
		if r.KECSS != nil {
			fmt.Fprintf(&b, " iters=%d", r.KECSS.Iterations)
		}
		if r.Three != nil {
			fmt.Fprintf(&b, " iters=%d size=%d", r.Three.Iterations, r.Three.Size)
		}
		if r.Two != nil {
			fmt.Fprintf(&b, " tapiters=%d", r.Two.TAP.Iterations)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// The headline determinism contract: Pool.Sweep produces byte-identical
// Edges/Weight/Rounds for all solvers at workers=1 and workers=GOMAXPROCS.
func TestPoolSweepDeterministic(t *testing.T) {
	tasks := poolTestTasks()
	ref := func() string {
		p := NewPool(1)
		defer p.Close()
		return digest(p.Sweep(tasks))
	}()
	for _, line := range strings.Split(strings.TrimSpace(ref), "\n") {
		if !strings.Contains(line, "err=<nil>") {
			t.Fatalf("reference sweep has failures:\n%s", ref)
		}
	}
	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, workers := range workerCounts {
		p := NewPool(workers)
		got := digest(p.Sweep(tasks))
		p.Close()
		if got != ref {
			t.Fatalf("workers=%d diverged from workers=1:\n--- got\n%s--- want\n%s", workers, got, ref)
		}
	}
}

// Race regression (run under -race in CI): two goroutines sweeping the same
// batch on one shared pool must not race and must produce byte-identical
// results. Before the pool existed, sharing one *rand.Rand across
// concurrent solver calls was a silent data race; the pool's per-task
// derived RNGs are the fix under test.
func TestPoolConcurrentSweepsIdentical(t *testing.T) {
	tasks := poolTestTasks()
	p := NewPool(4)
	defer p.Close()
	const repeats = 4
	digests := make([]string, repeats)
	var wg sync.WaitGroup
	for i := 0; i < repeats; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			digests[i] = digest(p.Sweep(tasks))
		}(i)
	}
	wg.Wait()
	for i := 1; i < repeats; i++ {
		if digests[i] != digests[0] {
			t.Fatalf("concurrent sweep %d diverged:\n--- got\n%s--- want\n%s", i, digests[i], digests[0])
		}
	}
}

// TestPool3ECSSLabelingDeterministic pins the incremental labeling engine
// under the pool: a 3-ECSS sweep (both variants, pooled label arenas)
// is byte-identical at workers=1 vs 4 in edges, weights and iteration
// counts. (internal/core checks the same solves against a from-scratch
// reference.) Run with -race in CI.
func TestPool3ECSSLabelingDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := graph.RandomKConnected(20, 3, 24, rng, graph.RandomWeights(rng, 30))
	var tasks []Task
	for trial := 0; trial < 4; trial++ {
		tasks = append(tasks,
			Task{Graph: g, Solver: Solver3ECSSUnweighted, Opts: []Option{WithSeed(3)}},
			Task{Graph: g, Solver: Solver3ECSSWeighted, Opts: []Option{WithSeed(5)}},
		)
	}
	decisions := func(results []Result) string {
		var b strings.Builder
		for _, r := range results {
			fmt.Fprintf(&b, "task=%d err=%v edges=%v w=%d", r.Task, r.Err, r.Edges, r.Weight)
			if r.Three != nil {
				fmt.Fprintf(&b, " iters=%d base=%d corr=%d", r.Three.Iterations, r.Three.BaseSize, r.Three.CorrectionEdges)
			}
			b.WriteByte('\n')
		}
		return b.String()
	}
	sweep := func(workers int) string {
		p := NewPool(workers)
		defer p.Close()
		return decisions(p.Sweep(tasks))
	}
	if sweep(1) != sweep(4) {
		t.Fatal("incremental labeling sweep differs at workers=1 vs 4")
	}
}

// Index 0 with a given seed reproduces the serial API exactly, so existing
// callers can move single solves into a pool without changing results.

func TestPoolMatchesSerialAtIndexZero(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := graph.RandomKConnected(20, 2, 24, rng, graph.RandomWeights(rng, 30))
	serial, err := Solve2ECSS(g, WithSeed(77))
	if err != nil {
		t.Fatal(err)
	}
	p := NewPool(2)
	defer p.Close()
	batch, err := p.Solve2ECSS([]*Graph{g}, WithSeed(77))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Edges, batch[0].Edges) || serial.Weight != batch[0].Weight ||
		serial.Rounds != batch[0].Rounds {
		t.Fatalf("pool task 0 diverged from serial API: %v/%d/%d vs %v/%d/%d",
			batch[0].Edges, batch[0].Weight, batch[0].Rounds, serial.Edges, serial.Weight, serial.Rounds)
	}
}

// Trials on a shared graph get independent seeds (baseSeed XOR index), so a
// multi-trial sweep actually explores different random runs.
func TestPoolTrialsAreIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := graph.RandomKConnected(30, 2, 60, rng, graph.RandomWeights(rng, 100))
	graphs := make([]*Graph, 6)
	for i := range graphs {
		graphs[i] = g
	}
	p := NewPool(2)
	defer p.Close()
	res, err := p.Solve2ECSS(graphs, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[string]bool{}
	for _, r := range res {
		if !VerifyKEdgeConnected(g, r.Edges, 2) {
			t.Fatal("trial output not 2-edge-connected")
		}
		distinct[fmt.Sprintf("%v", r.Edges)] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("6 trials produced %d distinct augmentations; seeds not derived per task", len(distinct))
	}
}

func TestPoolBatchHelpers(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g3a := graph.RandomKConnected(14, 3, 14, rng, graph.UnitWeights())
	g3b := graph.Harary(3, 16, graph.UnitWeights())
	p := NewPool(0) // GOMAXPROCS
	defer p.Close()

	kres, err := p.SolveKECSS([]*Graph{g3a, g3b}, 3, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range []*Graph{g3a, g3b} {
		if !VerifyKEdgeConnected(g, kres[i].Edges, 3) {
			t.Fatalf("k-ECSS batch result %d invalid", i)
		}
	}
	tres, err := p.Solve3ECSS([]*Graph{g3a, g3b}, WithSeed(8), WithLabelBits(40))
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range []*Graph{g3a, g3b} {
		if !VerifyKEdgeConnected(g, tres[i].Edges, 3) {
			t.Fatalf("3-ECSS batch result %d invalid", i)
		}
	}
}

// Validation failures surface per task in Sweep and abort batch helpers;
// the shared under-connected graph is detected once and rejected for every
// task that needs more connectivity than it has.
func TestPoolValidationRejectsPerTask(t *testing.T) {
	ring := graph.Cycle(12, graph.UnitWeights()) // 2- but not 3-edge-connected
	p := NewPool(2)
	defer p.Close()
	results := p.Sweep([]Task{
		{Graph: ring, Solver: Solver2ECSS, Opts: []Option{WithSeed(1)}},
		{Graph: ring, Solver: SolverKECSS, K: 3},
		{Graph: ring, Solver: Solver3ECSSUnweighted},
		{Graph: nil, Solver: Solver2ECSS},
		{Graph: ring, Solver: SolverKECSS, K: 0},
	})
	if results[0].Err != nil {
		t.Fatalf("2-ECSS on a ring must pass: %v", results[0].Err)
	}
	for _, i := range []int{1, 2, 3, 4} {
		if results[i].Err == nil {
			t.Fatalf("task %d should have failed validation", i)
		}
	}
	if _, err := p.Solve3ECSS([]*Graph{ring}); err == nil {
		t.Fatal("batch helper must surface validation failure")
	}
}

func TestSolverString(t *testing.T) {
	for s, want := range map[Solver]string{
		Solver2ECSS:           "2ecss",
		SolverKECSS:           "kecss",
		Solver3ECSSUnweighted: "3ecss",
		Solver3ECSSWeighted:   "3ecss-weighted",
		Solver(42):            "Solver(42)",
	} {
		if got := s.String(); got != want {
			t.Errorf("Solver(%d).String() = %q, want %q", int(s), got, want)
		}
	}
}

func TestPoolCloseIdempotentAndTyped(t *testing.T) {
	p := NewPool(2)
	g := graph.Harary(2, 10, graph.UnitWeights())
	if _, err := p.Solve2ECSS([]*Graph{g}, WithSeed(3)); err != nil {
		t.Fatalf("solve before close: %v", err)
	}
	p.Close()
	p.Close() // idempotent

	results := p.Sweep([]Task{{Graph: g, Solver: Solver2ECSS}, {Graph: g, Solver: SolverKECSS, K: 2}})
	if len(results) != 2 {
		t.Fatalf("Sweep on a closed pool returned %d results, want 2", len(results))
	}
	for i, r := range results {
		if !errors.Is(r.Err, ErrPoolClosed) {
			t.Fatalf("task %d after Close: err = %v, want ErrPoolClosed", i, r.Err)
		}
	}
	if _, err := p.Solve2ECSS([]*Graph{g}); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("batch helper after Close: err = %v, want ErrPoolClosed", err)
	}
	if _, err := p.SolveKECSS([]*Graph{g}, 2); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("SolveKECSS after Close: err = %v, want ErrPoolClosed", err)
	}
}

// Sweeps racing Close must each either complete fully or fail every task
// with ErrPoolClosed — never panic, never mix. Exercised under -race in CI.
func TestPoolCloseConcurrentWithSweep(t *testing.T) {
	g := graph.Harary(2, 12, graph.UnitWeights())
	for trial := 0; trial < 8; trial++ {
		p := NewPool(2)
		var wg sync.WaitGroup
		for r := 0; r < 3; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				results := p.Sweep([]Task{{Graph: g, Solver: Solver2ECSS}, {Graph: g, Solver: Solver2ECSS}})
				closed, solved := 0, 0
				for _, res := range results {
					switch {
					case errors.Is(res.Err, ErrPoolClosed):
						closed++
					case res.Err == nil:
						solved++
					default:
						t.Errorf("unexpected sweep error: %v", res.Err)
					}
				}
				if closed != 0 && solved != 0 {
					t.Errorf("sweep mixed %d solved with %d pool-closed tasks", solved, closed)
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Close()
		}()
		wg.Wait()
		p.Close()
	}
}

func TestParseSolverRoundTrips(t *testing.T) {
	for _, s := range []Solver{Solver2ECSS, SolverKECSS, Solver3ECSSUnweighted, Solver3ECSSWeighted} {
		got, err := ParseSolver(s.String())
		if err != nil || got != s {
			t.Errorf("ParseSolver(%q) = %v, %v; want %v", s.String(), got, err, s)
		}
	}
	if got, err := ParseSolver(""); err != nil || got != Solver2ECSS {
		t.Errorf("ParseSolver(\"\") = %v, %v; want Solver2ECSS", got, err)
	}
	if _, err := ParseSolver("nope"); err == nil {
		t.Error("ParseSolver accepted an unknown name")
	}
}

// TestThreeECSSResultCompact pins that a 3-ECSS result's edge list, which
// outlives its solve like a k-ECSS one, carries no spare capacity.
func TestThreeECSSResultCompact(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := graph.RandomKConnected(64, 3, 128, rng, graph.UnitWeights())
	p := NewPool(2)
	defer p.Close()
	for _, solver := range []Solver{Solver3ECSSUnweighted, Solver3ECSSWeighted} {
		r := p.Sweep([]Task{{Graph: g, Solver: solver, Opts: []Option{WithSeed(3)}}})[0]
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if cap(r.Edges) != len(r.Edges) || cap(r.Three.Edges) != len(r.Three.Edges) {
			t.Fatalf("%v Edges: len %d cap %d", solver, len(r.Three.Edges), cap(r.Three.Edges))
		}
	}
}

// TestKECSSResultCompact pins what a k-ECSS result keeps: results outlive
// their solve (callers and the server keep them), so the edge list carries
// no spare capacity and the levels keep totals, whose edge counts add up to
// the edge list. A direct core.Aug call still returns its edges and the
// per-iteration E6 traces.
func TestKECSSResultCompact(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := graph.RandomKConnected(48, 4, 96, rng, graph.RandomWeights(rng, 100))
	p := NewPool(2)
	defer p.Close()
	r := p.Sweep([]Task{{Graph: g, Solver: SolverKECSS, K: 4, Opts: []Option{WithSeed(3)}}})[0]
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if cap(r.Edges) != len(r.Edges) || cap(r.KECSS.Edges) != len(r.KECSS.Edges) {
		t.Fatalf("Edges: len %d cap %d", len(r.KECSS.Edges), cap(r.KECSS.Edges))
	}
	if len(r.KECSS.Levels) != 4 {
		t.Fatalf("%d levels, want 4", len(r.KECSS.Levels))
	}
	added := 0
	for _, lv := range r.KECSS.Levels {
		added += lv.Added
	}
	if added != len(r.KECSS.Edges) {
		t.Fatalf("levels add %d edges, result has %d", added, len(r.KECSS.Edges))
	}

	tree, _ := mst.Kruskal(g)
	ar, err := core.Aug(g, tree, 2, core.AugOptions{Rng: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatal(err)
	}
	if ar.Iterations == 0 || len(ar.Added) == 0 || len(ar.PTrace) != ar.Iterations || len(ar.MaxCutDegreeTrace) != ar.Iterations {
		t.Fatalf("direct Aug: %d iterations, %d added, %d PTrace, %d MaxCutDegreeTrace",
			ar.Iterations, len(ar.Added), len(ar.PTrace), len(ar.MaxCutDegreeTrace))
	}
}
