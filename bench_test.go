package kecss

// One benchmark per reproduction experiment (E1–E10, see DESIGN.md §4 and
// EXPERIMENTS.md) plus the ablations (A1–A4) and micro-benchmarks of the
// substrates. The experiment benches run the Quick-scale sweeps so that
// `go test -bench=.` terminates in minutes; `cmd/kecss-bench` (without
// -quick) prints the full tables.

import (
	"math/rand"
	"testing"

	"repro/internal/congest"
	"repro/internal/cycles"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/mst"
	"repro/internal/primitives"
	"repro/internal/segments"
	"repro/internal/tap"
	"repro/internal/tree"
)

func benchExperiment(b *testing.B, f func(experiments.Scale) (*experiments.Table, error)) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := f(experiments.Scale{Quick: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Reproduction experiments (one per paper claim) -------------------------

func BenchmarkE1_2ECSSRounds(b *testing.B)    { benchExperiment(b, experiments.E1) }
func BenchmarkE2_2ECSSRatio(b *testing.B)     { benchExperiment(b, experiments.E2) }
func BenchmarkE3_TAPIterations(b *testing.B)  { benchExperiment(b, experiments.E3) }
func BenchmarkE4_KECSSRounds(b *testing.B)    { benchExperiment(b, experiments.E4) }
func BenchmarkE5_KECSSRatio(b *testing.B)     { benchExperiment(b, experiments.E5) }
func BenchmarkE6_AugIterations(b *testing.B)  { benchExperiment(b, experiments.E6) }
func BenchmarkE7_3ECSSRounds(b *testing.B)    { benchExperiment(b, experiments.E7) }
func BenchmarkE8_CycleSpace(b *testing.B)     { benchExperiment(b, experiments.E8) }
func BenchmarkE9_Segments(b *testing.B)       { benchExperiment(b, experiments.E9) }
func BenchmarkE10_Thurimella(b *testing.B)    { benchExperiment(b, experiments.E10) }
func BenchmarkE11_TAPDistRounds(b *testing.B) { benchExperiment(b, experiments.E11) }
func BenchmarkE12_Verification(b *testing.B)  { benchExperiment(b, experiments.E12) }
func BenchmarkE13_FTMST(b *testing.B)         { benchExperiment(b, experiments.E13) }
func BenchmarkE14_Weighted3ECSS(b *testing.B) { benchExperiment(b, experiments.E14) }

// --- Ablations (DESIGN.md §5) ------------------------------------------------

func BenchmarkAblation_VoteThreshold(b *testing.B) {
	benchExperiment(b, experiments.AblationVoteThreshold)
}
func BenchmarkAblation_Rounding(b *testing.B) { benchExperiment(b, experiments.AblationRounding) }
func BenchmarkAblation_PhaseLen(b *testing.B) { benchExperiment(b, experiments.AblationPhaseLength) }

func benchBoruvka(b *testing.B, exec congest.Executor) {
	b.Helper()
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(1))
	g := graph.RandomKConnected(128, 2, 256, rng, graph.RandomWeights(rng, 1000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mst.DistributedBoruvka(g, congest.WithExecutor(exec)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_ExecutorSequential(b *testing.B) {
	benchBoruvka(b, congest.SequentialExecutor{})
}
func BenchmarkAblation_ExecutorParallel(b *testing.B) { benchBoruvka(b, congest.ParallelExecutor{}) }

// --- Micro-benchmarks of the substrates --------------------------------------

func BenchmarkMicro_KruskalMST(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(2))
	g := graph.RandomKConnected(1000, 2, 3000, rng, graph.RandomWeights(rng, 1000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mst.Kruskal(g)
	}
}

func BenchmarkMicro_DistributedBFS(b *testing.B) {
	b.ReportAllocs()
	g := graph.Grid(16, 64, graph.UnitWeights())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := primitives.BuildBFSTree(g, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Simulator-round micro-benchmarks ----------------------------------------
//
// These isolate the per-round cost of the CONGEST simulator itself, which
// every experiment funnels through. Two workloads at n=1k and n=4k:
//
//   - broadcast: every node broadcasts on every incident edge every round —
//     the saturated regime (2m messages per round), measuring slot delivery
//     and send bookkeeping with zero algorithmic work;
//   - flood: a full BFS-style min-ID flood from scratch each iteration —
//     the sparse-wavefront regime, measuring network construction plus rounds
//     where most nodes send nothing.

// saturatingProgram broadcasts every round and never finishes.
type saturatingProgram struct{}

func (saturatingProgram) Init(ctx *congest.Context) { ctx.Broadcast(congest.Payload{Kind: 1}) }
func (saturatingProgram) Round(ctx *congest.Context, _ []congest.Message) bool {
	ctx.Broadcast(congest.Payload{Kind: 1})
	return false
}

func simBenchGraph(n int) *graph.Graph {
	rng := rand.New(rand.NewSource(int64(n)))
	return graph.RandomKConnected(n, 2, 2*n, rng, graph.UnitWeights())
}

func benchSimulatorBroadcast(b *testing.B, n int, exec congest.Executor) {
	b.Helper()
	b.ReportAllocs()
	g := simBenchGraph(n)
	net := congest.NewNetwork(g, func(int) congest.Program { return saturatingProgram{} },
		congest.WithExecutor(exec))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Step()
	}
}

func benchSimulatorFlood(b *testing.B, n int, opts ...congest.Option) {
	b.Helper()
	b.ReportAllocs()
	g := simBenchGraph(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := primitives.ElectLeader(g, opts...); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMicro_SimulatorRound(b *testing.B) {
	seq := congest.WithExecutor(congest.SequentialExecutor{})
	par := congest.WithExecutor(congest.ParallelExecutor{})
	b.Run("broadcast/n=1k", func(b *testing.B) { benchSimulatorBroadcast(b, 1000, congest.SequentialExecutor{}) })
	b.Run("broadcast/n=4k", func(b *testing.B) { benchSimulatorBroadcast(b, 4000, congest.SequentialExecutor{}) })
	b.Run("broadcast-parallel/n=4k", func(b *testing.B) { benchSimulatorBroadcast(b, 4000, congest.ParallelExecutor{}) })
	b.Run("flood/n=1k", func(b *testing.B) { benchSimulatorFlood(b, 1000, seq) })
	b.Run("flood/n=4k", func(b *testing.B) { benchSimulatorFlood(b, 4000, seq) })
	b.Run("flood-parallel/n=4k", func(b *testing.B) { benchSimulatorFlood(b, 4000, par) })
}

func BenchmarkMicro_CycleLabels(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(3))
	g := graph.RandomKConnected(512, 2, 512, rng, graph.UnitWeights())
	tr, err := tree.FromBFS(g.BFS(0))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cycles.ComputeLabels(g, tr, 48, rand.New(rand.NewSource(int64(i)))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMicro_SegmentDecomposition(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(4))
	g := graph.RandomKConnected(2048, 2, 2048, rng, graph.RandomWeights(rng, 100))
	ids, _ := mst.Kruskal(g)
	tr := tree.MustFromEdges(g, ids, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := segments.Decompose(g, tr, segments.DefaultTarget(g.N())); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMicro_TAPAugment(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(5))
	g := graph.RandomKConnected(256, 2, 768, rng, graph.RandomWeights(rng, 1000))
	ids, _ := mst.Kruskal(g)
	tr := tree.MustFromEdges(g, ids, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tap.Augment(g, tr, tap.Options{Rng: rand.New(rand.NewSource(int64(i)))}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMicro_Solve2ECSSSimulated is one task of the simulated-MST 2-ECSS
// workload: n=1600 with 3200 extra edges, Borůvka on the CONGEST simulator,
// solved through a one-worker pool, so the simulator's pooled arenas stay
// warm.
func BenchmarkMicro_Solve2ECSSSimulated(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(1))
	g := graph.RandomKConnected(1600, 2, 3200, rng, graph.RandomWeights(rng, 1000))
	p := NewPool(1)
	defer p.Close()
	tasks := []Task{{Graph: g, Solver: Solver2ECSS, K: 2, Opts: []Option{WithSeed(1), WithSimulatedMST()}}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := p.Sweep(tasks)[0]; r.Err != nil {
			b.Fatal(r.Err)
		}
	}
}

func BenchmarkMicro_Solve2ECSSEndToEnd(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(6))
	g := graph.RandomKConnected(256, 2, 512, rng, graph.RandomWeights(rng, 1000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve2ECSS(g, WithSeed(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}
