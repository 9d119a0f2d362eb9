package mst

import (
	"math/rand"
	"testing"

	"repro/internal/congest"
	"repro/internal/graph"
)

// countingExecutor runs rounds sequentially and counts the Round calls.
type countingExecutor struct{ calls int }

func (c *countingExecutor) RunRound(n int, fn func(i int)) {
	c.calls += n
	congest.SequentialExecutor{}.RunRound(n, fn)
}

// TestBoruvkaStepsOnlyBusyNodes pins the event-driven stepping on the
// graph shape of the simulated-MST workload: rounds and messages are those
// of a simulator that steps every node in every round, while Round runs on
// at most 15% of the rounds × n node slots (stepping every node makes it
// 98.8%).
func TestBoruvkaStepsOnlyBusyNodes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := graph.RandomKConnected(1600, 2, 3200, rng, graph.RandomWeights(rng, 1000))
	exec := &countingExecutor{}
	res, err := DistributedBoruvka(g, congest.WithExecutor(exec))
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Rounds != 429 || res.Metrics.Messages != 102526 {
		t.Errorf("rounds %d, messages %d; want 429, 102526", res.Metrics.Rounds, res.Metrics.Messages)
	}
	slots := res.Metrics.Rounds * g.N()
	t.Logf("Round calls %d of %d node slots (%.1f%%)", exec.calls, slots, 100*float64(exec.calls)/float64(slots))
	if exec.calls*100 > slots*15 {
		t.Errorf("Round calls %d exceed 15%% of %d rounds × n", exec.calls, slots)
	}
}
