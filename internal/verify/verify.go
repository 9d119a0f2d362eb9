// Package verify implements the distributed verification algorithms the
// paper builds on (§1.2, §5): O(D)-round CONGEST verification of
// connectivity, 2-edge-connectivity and 3-edge-connectivity of the
// communication graph itself, via BFS + cycle space sampling
// (Pritchard–Thurimella). Each verifier returns the verdict together with
// the measured simulator cost.
//
// Error model: the 2/3-edge-connectivity verifiers use random b-bit labels.
// A bridge always labels 0 and a cut pair always shares labels, so an
// "is k-edge-connected" verdict is exact, while a "not k-edge-connected"
// verdict is correct w.h.p. in b (a healthy edge labels 0, or two unrelated
// edges collide, with probability 2^-b each — Lemma 5.4's one-sidedness).
//
//kecss:deterministic
package verify

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/congest"
	"repro/internal/cycles"
	"repro/internal/graph"
	"repro/internal/primitives"
	"repro/internal/tree"
)

// Report is the outcome of a distributed verification.
type Report struct {
	OK      bool
	Rounds  int   // total simulator rounds across the verification's phases
	Bits    int   // label width used (0 for pure-BFS checks)
	Witness []int // for failed 2EC checks: the bridge edge IDs (w.h.p. all)
}

// Connectivity checks that the graph is connected: a BFS from the minimum-ID
// leader reaches everyone (each vertex checks locally that it joined; a
// convergecast of the joined-count to the root completes the verification).
// O(D) rounds.
func Connectivity(g *graph.Graph, opts ...congest.Option) (*Report, error) {
	if g.N() == 0 {
		return &Report{OK: true}, nil
	}
	leader, m1, err := primitives.ElectLeader(g, opts...)
	if err != nil {
		if !errors.Is(err, primitives.ErrNoGlobalLeader) {
			return nil, fmt.Errorf("verify: leader election: %w", err)
		}
		// Disagreeing minima already prove disconnection, but the protocol's
		// BFS phase still runs — from the true global minimum, vertex 0 —
		// so the verdict below comes from the explicit non-spanning
		// detection and the report charges the full cost actually incurred.
		leader = 0
	}
	tr, m2, err := primitives.BuildBFSTree(g, leader, opts...)
	if err != nil {
		// A non-spanning BFS is itself the "disconnected" verdict — and an
		// explicit one (ErrBFSNotSpanning), not an inference from tree
		// validation. The rounds the failed BFS consumed are real simulator
		// work and count toward the verification's cost. Any other BFS
		// error is a genuine failure and propagates.
		if errors.Is(err, primitives.ErrBFSNotSpanning) {
			return &Report{OK: false, Rounds: m1.Rounds + m2.Rounds}, nil
		}
		return nil, fmt.Errorf("verify: BFS: %w", err)
	}
	ones := make([]int64, g.N())
	for i := range ones {
		ones[i] = 1
	}
	count, m3, err := primitives.Aggregate(g, tr, ones, primitives.Sum, opts...)
	if err != nil {
		return nil, fmt.Errorf("verify: count convergecast: %w", err)
	}
	return &Report{
		OK:     count == int64(g.N()),
		Rounds: m1.Rounds + m2.Rounds + m3.Rounds,
	}, nil
}

// TwoEdgeConnectivity checks that the graph has no bridges using cycle
// space sampling: a tree edge is a bridge iff no non-tree edge covers it,
// i.e. iff its label is the all-zero string; a non-tree edge is never a
// bridge. A "true" verdict is exact (bridges always label 0); a "false"
// verdict is correct w.h.p. in bits. O(D) rounds.
func TwoEdgeConnectivity(g *graph.Graph, bits int, rng *rand.Rand, opts ...congest.Option) (*Report, error) {
	if g.N() < 2 {
		return &Report{OK: true, Bits: bits}, nil
	}
	l, tr, total, err := labelGraph(g, bits, rng, opts...)
	if err != nil {
		return nil, err
	}
	rep := &Report{OK: true, Rounds: total, Bits: bits}
	for v := 0; v < g.N(); v++ {
		if v == tr.Root {
			continue
		}
		te := tr.ParentEdge[v]
		if l.Phi[te] == 0 {
			rep.OK = false
			rep.Witness = append(rep.Witness, te)
		}
	}
	return rep, nil
}

// ThreeEdgeConnectivity checks the graph is 3-edge-connected via Claim
// 5.10: no tree edge may share its label with any other edge. The
// per-label counts n_φ(t) are gathered by a pipelined upcast of the label
// multiset to the root (O(D + #labels) rounds), mirroring §5.3's
// implementation. Requires 2-edge-connectivity (checked first).
func ThreeEdgeConnectivity(g *graph.Graph, bits int, rng *rand.Rand, opts ...congest.Option) (*Report, error) {
	two, err := TwoEdgeConnectivity(g, bits, rng, opts...)
	if err != nil {
		return nil, err
	}
	if !two.OK {
		return two, nil
	}
	l, tr, total, err := labelGraph(g, bits, rng, opts...)
	if err != nil {
		return nil, err
	}
	// Every vertex contributes the labels of edges it owns (the smaller
	// endpoint), then the duplicate-label verdict is computed at the root.
	// A real implementation upcasts (label,count) pairs; here the upcast of
	// the distinct labels measures the dominant pipelined cost and the
	// verdict uses the exact counts.
	items := make([][]int64, g.N())
	for id := 0; id < g.M(); id++ {
		lab, ok := l.Phi[id]
		if !ok {
			continue
		}
		e := g.Edge(id)
		o := e.U
		if e.V < o {
			o = e.V
		}
		items[o] = append(items[o], int64(lab))
	}
	_, m, err := primitives.Upcast(g, tr, items, opts...)
	if err != nil {
		return nil, fmt.Errorf("verify: label upcast: %w", err)
	}
	total += m.Rounds
	return &Report{OK: l.ThreeEdgeConnectedWith(), Rounds: two.Rounds + total, Bits: bits}, nil
}

// labelGraph builds the leader-rooted BFS tree and cycle-space labels,
// returning the combined measured rounds.
func labelGraph(g *graph.Graph, bits int, rng *rand.Rand, opts ...congest.Option) (*cycles.Labeling, *tree.Rooted, int, error) {
	leader, m1, err := primitives.ElectLeader(g, opts...)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("verify: leader election: %w", err)
	}
	tr, m2, err := primitives.BuildBFSTree(g, leader, opts...)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("verify: BFS (graph disconnected?): %w", err)
	}
	l, err := cycles.ComputeLabels(g, tr, bits, rng, opts...)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("verify: labels: %w", err)
	}
	return l, tr, m1.Rounds + m2.Rounds + l.Metrics.Rounds, nil
}
