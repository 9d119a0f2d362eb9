package kecss

// Executor-equivalence regression tests: the simulator contract is that the
// executor only chooses a host-parallel schedule — programs touch per-node
// state only and delivery order is fixed by the network — so every executor
// must produce byte-identical outputs AND byte-identical Metrics
// (Rounds/Messages/Bits). A divergence here means the simulator rewrite
// broke the model, not just performance.

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mst"
	"repro/internal/primitives"
)

// executorsUnderTest enumerates every executor the simulator ships.
func executorsUnderTest() []struct {
	name string
	exec congest.Executor
} {
	return []struct {
		name string
		exec congest.Executor
	}{
		{"sequential", congest.SequentialExecutor{}},
		{"parallel", congest.ParallelExecutor{}},
	}
}

// equivalenceGraphs returns the seeded instances the equivalence suite runs
// on: large enough to engage the worker pool (n >= its inline cutoff), with
// parallel-edge multigraph structure mixed in via RandomKConnected.
func equivalenceGraphs(tb testing.TB) []*graph.Graph {
	tb.Helper()
	rng := rand.New(rand.NewSource(99))
	return []*graph.Graph{
		graph.RandomKConnected(128, 2, 256, rng, graph.RandomWeights(rng, 1000)),
		graph.Grid(8, 24, graph.RandomWeights(rng, 50)),
		graph.Cycle(200, graph.UnitWeights()),
	}
}

func TestExecutorEquivalenceBoruvkaMST(t *testing.T) {
	for gi, g := range equivalenceGraphs(t) {
		var want *mst.Result
		for _, tc := range executorsUnderTest() {
			got, err := mst.DistributedBoruvka(g, congest.WithExecutor(tc.exec))
			if err != nil {
				t.Fatalf("graph %d %s: %v", gi, tc.name, err)
			}
			if want == nil {
				want = got
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("graph %d: %s Borůvka result diverges from sequential:\n got %+v\nwant %+v",
					gi, tc.name, got, want)
			}
		}
	}
}

func TestExecutorEquivalenceBFSTree(t *testing.T) {
	for gi, g := range equivalenceGraphs(t) {
		type out struct {
			parent     []int
			parentEdge []int
			metrics    congest.Metrics
		}
		var want *out
		for _, tc := range executorsUnderTest() {
			tr, m, err := primitives.BuildBFSTree(g, 0, congest.WithExecutor(tc.exec))
			if err != nil {
				t.Fatalf("graph %d %s: %v", gi, tc.name, err)
			}
			got := &out{parent: tr.Parent, parentEdge: tr.ParentEdge, metrics: m}
			if want == nil {
				want = got
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("graph %d: %s BFS tree diverges from sequential", gi, tc.name)
			}
		}
	}
}

func TestExecutorEquivalenceSolve2ECSS(t *testing.T) {
	for gi, g := range equivalenceGraphs(t) {
		var want *core.TwoECSSResult
		for _, tc := range executorsUnderTest() {
			got, err := core.Solve2ECSS(g, core.TwoECSSOptions{
				Rng:         rand.New(rand.NewSource(7)),
				SimulateMST: true,
				Executor:    tc.exec,
			})
			if err != nil {
				t.Fatalf("graph %d %s: %v", gi, tc.name, err)
			}
			if want == nil {
				want = got
				continue
			}
			if !reflect.DeepEqual(got.Edges, want.Edges) || got.Weight != want.Weight ||
				got.Rounds != want.Rounds || got.MSTWeight != want.MSTWeight {
				t.Errorf("graph %d: %s 2-ECSS diverges from sequential:\n got edges=%v w=%d rounds=%d\nwant edges=%v w=%d rounds=%d",
					gi, tc.name, got.Edges, got.Weight, got.Rounds, want.Edges, want.Weight, want.Rounds)
			}
		}
	}
}

// TestExecutorEquivalenceRecycledArenas re-runs the Borůvka comparison on
// the simulator's recycled arenas, proving buffer recycling does not leak
// state between runs or executors. The first run of each graph is cold: two
// garbage collections empty the package pools before it. Every later run is
// warm, on the arenas the runs before it returned.
func TestExecutorEquivalenceRecycledArenas(t *testing.T) {
	for gi, g := range equivalenceGraphs(t) {
		runtime.GC()
		runtime.GC()
		var want *mst.Result
		for _, tc := range executorsUnderTest() {
			// Two runs per executor: the second must see no trace of the
			// first.
			for rep := 0; rep < 2; rep++ {
				got, err := mst.DistributedBoruvka(g, congest.WithExecutor(tc.exec))
				if err != nil {
					t.Fatalf("graph %d %s rep %d: %v", gi, tc.name, rep, err)
				}
				if want == nil {
					want = got
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("graph %d: %s rep %d on recycled arenas diverges", gi, tc.name, rep)
				}
			}
		}
	}
}
