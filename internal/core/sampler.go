package core

import (
	"fmt"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/rounds"
	"repro/internal/tap"
)

// infExp is the rounded cost-effectiveness exponent of a weight-0 edge
// (treated as +infinity per §2.1).
const infExp = 1 << 20

// roundedExp is the rounded cost-effectiveness exponent of a candidate
// covering ce uncovered cuts at weight w; w = 0 gives infExp.
func roundedExp(ce, w int64) int {
	if w == 0 {
		return infExp
	}
	return tap.RoundedExp(ce, w)
}

// sampler is the activation schedule that Aug_k (§4) and the 3-ECSS loop
// (§5) share. p_i starts at 1/2^⌈log m⌉ and doubles every
// PhaseLen·(⌈log n⌉+1) iterations. It restarts whenever the maximum rounded
// cost-effectiveness drops, and each candidate at that maximum activates
// with probability p_i. A loop that runs 20·logn³+200 iterations without
// finishing fails.
type sampler struct {
	rng      *rand.Rand
	mExp     int // p restarts at 2^-mExp, the first power of two ≥ 1/m
	pExp     int // p = 2^-pExp
	prevBest int // the maximum rounded exponent of the last iteration
	atP      int // iterations run at the current p
	phaseLen int // iterations per value of p
	iters    int
	maxIters int
	picked   []int // activate's result, reused across iterations
}

func newSampler(g *graph.Graph, phaseLen int, rng *rand.Rand) *sampler {
	logn := int(rounds.Log2Ceil(g.N())) + 1
	if phaseLen == 0 {
		phaseLen = 1
	}
	mExp := 0
	for v := 1; v < g.M(); v <<= 1 {
		mExp++
	}
	return &sampler{
		rng:      rng,
		mExp:     mExp,
		pExp:     mExp,
		prevBest: infExp + 1, // above every exponent: the first iteration restarts
		phaseLen: phaseLen * logn,
		maxIters: 20*logn*logn*logn + 200,
	}
}

// next opens an iteration, or fails once the iteration bound is reached.
func (s *sampler) next() error {
	if s.iters >= s.maxIters {
		return fmt.Errorf("exceeded %d iterations", s.maxIters)
	}
	s.iters++
	return nil
}

// activate runs Line 3 for a pool of n candidates whose maximum rounded
// exponent is best. It restarts the schedule if best dropped, draws one
// activation per candidate in pool order (none at p = 1), and then moves
// the schedule on by one iteration. It returns the pool positions that
// activated, valid until the next call, and the exponent p was drawn at.
func (s *sampler) activate(best, n int) ([]int, int) {
	if best < s.prevBest {
		s.pExp = s.mExp
		s.atP = 0
	}
	s.prevBest = best
	pExp := s.pExp
	s.picked = s.picked[:0]
	for i := 0; i < n; i++ {
		if pExp == 0 || s.rng.Int63n(1<<uint(pExp)) == 0 {
			s.picked = append(s.picked, i)
		}
	}
	s.atP++
	if s.atP >= s.phaseLen && s.pExp > 0 {
		s.pExp--
		s.atP = 0
	}
	return s.picked, pExp
}
