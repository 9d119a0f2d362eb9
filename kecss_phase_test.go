package kecss

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// collectPhases runs solve twice — once bare, once with a phase observer —
// and asserts the observer changed nothing about the result.
func collectPhases(t *testing.T, solve func(opts ...Option) (edges []int, weight int64, rounds int64, err error)) []PhaseEvent {
	t.Helper()
	bareEdges, bareWeight, bareRounds, err := solve()
	if err != nil {
		t.Fatal(err)
	}
	var events []PhaseEvent
	obs := func(ev PhaseEvent) { events = append(events, ev) }
	edges, weight, rounds, err := solve(WithPhaseObserver(obs))
	if err != nil {
		t.Fatal(err)
	}
	if weight != bareWeight || rounds != bareRounds || len(edges) != len(bareEdges) {
		t.Fatalf("phase observer changed the result: weight %d!=%d rounds %d!=%d edges %d!=%d",
			weight, bareWeight, rounds, bareRounds, len(edges), len(bareEdges))
	}
	return events
}

func phaseSet(events []PhaseEvent) map[string]int {
	m := map[string]int{}
	for _, ev := range events {
		m[ev.Phase]++
	}
	return m
}

func TestPhaseObserver2ECSS(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := graph.RandomKConnected(30, 2, 40, rng, graph.RandomWeights(rng, 50))
	events := collectPhases(t, func(opts ...Option) ([]int, int64, int64, error) {
		res, err := Solve2ECSS(g, append([]Option{WithSeed(7)}, opts...)...)
		if err != nil {
			return nil, 0, 0, err
		}
		return res.Edges, res.Weight, res.Rounds, nil
	})
	got := phaseSet(events)
	if got["mst"] != 1 || got["tap"] != 1 {
		t.Fatalf("want one mst and one tap phase, got %v", got)
	}
	for _, ev := range events {
		if ev.Rounds <= 0 {
			t.Fatalf("phase %q carries no rounds: %+v", ev.Phase, ev)
		}
		if ev.Duration < 0 || ev.Start.IsZero() {
			t.Fatalf("phase %q has bad timing: %+v", ev.Phase, ev)
		}
	}
}

func TestPhaseObserverKECSS(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := graph.RandomKConnected(18, 3, 20, rng, graph.RandomWeights(rng, 20))
	events := collectPhases(t, func(opts ...Option) ([]int, int64, int64, error) {
		res, err := SolveKECSS(g, 3, append([]Option{WithSeed(5)}, opts...)...)
		if err != nil {
			return nil, 0, 0, err
		}
		return res.Edges, res.Weight, res.Rounds, nil
	})
	got := phaseSet(events)
	if got["validate"] != 1 || got["mst"] != 1 {
		t.Fatalf("want validate and mst phases, got %v", got)
	}
	// Levels 2 and 3 each enumerate cuts and augment.
	if got["cut-enum"] != 2 || got["augment"] != 2 {
		t.Fatalf("want 2 cut-enum and 2 augment phases for k=3, got %v", got)
	}
	for _, ev := range events {
		if ev.Phase == "augment" && ev.Level < 2 {
			t.Fatalf("augment phase missing its level: %+v", ev)
		}
	}
}

func TestPhaseObserver3ECSS(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := graph.RandomKConnected(16, 3, 16, rng, graph.UnitWeights())
	events := collectPhases(t, func(opts ...Option) ([]int, int64, int64, error) {
		res, err := Solve3ECSSUnweighted(g, append([]Option{WithSeed(11), WithLabelBits(40)}, opts...)...)
		if err != nil {
			return nil, 0, 0, err
		}
		return res.Edges, res.Weight, res.Rounds, nil
	})
	got := phaseSet(events)
	for _, want := range []string{"validate", "base", "base-label", "augment", "correction"} {
		if got[want] != 1 {
			t.Fatalf("want one %q phase, got %v", want, got)
		}
	}
	for _, ev := range events {
		if ev.Phase == "base-label" && (ev.Rounds <= 0 || ev.Messages <= 0) {
			t.Fatalf("base-label should carry measured rounds and messages: %+v", ev)
		}
	}
}

// TestPhaseObserverThroughPool pins that a per-task observer option reaches
// the solver on pool sweeps (the serving agents rely on this), and that
// every pooled 3-ECSS and k-ECSS solve runs its connectivity check exactly
// once: one validate event per solve, never zero and never two.
func TestPhaseObserverThroughPool(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := graph.RandomKConnected(16, 3, 16, rng, graph.UnitWeights())
	p := NewPool(2)
	defer p.Close()
	tasks := []Task{
		{Graph: g, Solver: Solver3ECSSUnweighted, Opts: []Option{WithSeed(11), WithLabelBits(40)}},
		{Graph: g, Solver: Solver3ECSSWeighted, Opts: []Option{WithSeed(11), WithLabelBits(40)}},
		{Graph: g, Solver: SolverKECSS, K: 3, Opts: []Option{WithSeed(11)}},
	}
	events := make([][]PhaseEvent, len(tasks))
	for i := range tasks {
		obs := func(ev PhaseEvent) { events[i] = append(events[i], ev) }
		tasks[i].Opts = append(tasks[i].Opts, WithPhaseObserver(obs))
	}
	res := p.Sweep(tasks)
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("task %d: %v", i, r.Err)
		}
		got := phaseSet(events[i])
		if got["validate"] != 1 {
			t.Fatalf("task %d (%v): want exactly one validate phase, got %v", i, tasks[i].Solver, got)
		}
		if got["augment"] == 0 {
			t.Fatalf("task %d (%v): phase observer did not reach the pooled solver: %v", i, tasks[i].Solver, got)
		}
	}
	if got := phaseSet(events[0]); got["base-label"] != 1 {
		t.Fatalf("pooled 3-ECSS: want one base-label phase, got %v", got)
	}
}
