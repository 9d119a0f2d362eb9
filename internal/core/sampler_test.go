package core

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
)

// countingSource counts the draws the sampler takes from its RNG.
type countingSource struct {
	rand.Source
	draws int
}

func (c *countingSource) Int63() int64 {
	c.draws++
	return c.Source.Int63()
}

// TestSamplerSchedule pins the p_i schedule both covering loops share: p
// starts at 2^-⌈log m⌉, doubles after exactly PhaseLen·(⌈log n⌉+1)
// iterations, restarts when the maximum rounded exponent drops, activates
// every candidate without a draw at p = 1, and the loop fails once the
// iteration bound is reached.
func TestSamplerSchedule(t *testing.T) {
	// n = m = 8: p starts at 2^-3 and ⌈log n⌉+1 = 4, so with PhaseLen 2
	// p doubles every 8 iterations. The bound is 20·4³+200 = 1480.
	g := graph.Cycle(8, graph.UnitWeights())
	src := &countingSource{Source: rand.NewSource(1)}
	s := newSampler(g, 2, rand.New(src))

	var trace []int
	for i := 0; i < 30; i++ {
		if err := s.next(); err != nil {
			t.Fatal(err)
		}
		_, pExp := s.activate(5, 4)
		trace = append(trace, pExp)
	}
	var want []int
	for _, run := range []struct{ exp, iters int }{{3, 8}, {2, 8}, {1, 8}, {0, 6}} {
		for i := 0; i < run.iters; i++ {
			want = append(want, run.exp)
		}
	}
	if !reflect.DeepEqual(trace, want) {
		t.Fatalf("schedule at a steady maximum:\ngot  %v\nwant %v", trace, want)
	}

	// At p = 1 every candidate activates and the RNG is left alone.
	before := src.draws
	picked, pExp := s.activate(5, 6)
	if pExp != 0 || !reflect.DeepEqual(picked, []int{0, 1, 2, 3, 4, 5}) || src.draws != before {
		t.Fatalf("p = 1: picked %v at exponent %d with %d draws, want all 6 at 0 with none",
			picked, pExp, src.draws-before)
	}

	// A rise in the maximum keeps p; a drop restarts it at 2^-3 and counts
	// a fresh phase of 8 iterations.
	if _, pExp := s.activate(6, 4); pExp != 0 {
		t.Fatalf("a rise in the maximum moved p to 2^-%d", pExp)
	}
	before = src.draws
	if _, pExp := s.activate(4, 4); pExp != 3 || src.draws != before+4 {
		t.Fatalf("a drop in the maximum: p = 2^-%d with %d draws, want 2^-3 with 4",
			pExp, src.draws-before)
	}
	for i := 0; i < 7; i++ {
		if _, pExp := s.activate(4, 1); pExp != 3 {
			t.Fatalf("iteration %d after the restart drew at 2^-%d, want 2^-3", i+2, pExp)
		}
	}
	if _, pExp := s.activate(4, 1); pExp != 2 {
		t.Fatalf("iteration 9 after the restart drew at 2^-%d, want 2^-2", pExp)
	}

	// next counts iterations up to the bound, then fails.
	for s.iters < 1480 {
		if err := s.next(); err != nil {
			t.Fatalf("iteration %d: %v", s.iters+1, err)
		}
	}
	if err := s.next(); err == nil || !strings.Contains(err.Error(), "exceeded 1480 iterations") {
		t.Fatalf("iteration 1481: err = %v, want the 1480-iteration bound", err)
	}
}
