package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"repro/internal/graph"
)

// Cut is a minimum edge cut of the subgraph H, represented by the vertex
// bipartition it induces. A minimum cut of a connected graph separates it
// into exactly two connected sides, so a new edge covers the cut iff it
// crosses the bipartition (Definition 2.1 specialises to this for minimum
// cuts).
type Cut struct {
	side []uint64 // bitset over vertices; canonical: vertex 0's side is 0
}

func newCut(n int, inSide func(v int) bool) Cut {
	c := Cut{side: make([]uint64, cutWords(n))}
	for v := 0; v < n; v++ {
		if inSide(v) {
			c.side[v/64] |= 1 << uint(v%64)
		}
	}
	// Canonical orientation: complement if vertex 0 is inside.
	if c.side[0]&1 != 0 {
		for i := range c.side {
			c.side[i] = ^c.side[i]
		}
		// Clear padding bits beyond n.
		if rem := uint(n % 64); rem != 0 {
			c.side[len(c.side)-1] &= (1 << rem) - 1
		}
	}
	return c
}

// cutWords returns the number of 64-bit words a side bitset over n vertices
// occupies.
func cutWords(n int) int { return (n + 63) / 64 }

// Key returns a string identifying the bipartition, the oracle-friendly
// identity used by tests; the hot paths compare bitsets and never
// materialise strings.
func (c Cut) Key() string {
	b := make([]byte, 0, len(c.side)*8)
	for _, w := range c.side {
		for s := 0; s < 64; s += 8 {
			b = append(b, byte(w>>uint(s)))
		}
	}
	return string(b)
}

// Crosses reports whether the edge {u, v} crosses the bipartition.
func (c Cut) Crosses(u, v int) bool {
	return c.contains(u) != c.contains(v)
}

func (c Cut) contains(v int) bool {
	return c.side[v/64]&(1<<uint(v%64)) != 0
}

// cutLess orders canonical bipartitions by their bitset words (word 0
// first). Any fixed total order works; this one needs no string
// materialisation.
func cutLess(a, b Cut) bool {
	for i := range a.side {
		if a.side[i] != b.side[i] {
			return a.side[i] < b.side[i]
		}
	}
	return false
}

func sortCuts(cuts []Cut) {
	sort.Slice(cuts, func(i, j int) bool { return cutLess(cuts[i], cuts[j]) })
}

// cutStore carves materialised cut bitsets out of large blocks (few
// allocations, good locality). Ownership rule: reset detaches the blocks,
// so cuts handed out before a reset keep sole ownership of their memory
// even after the store's owner is recycled.
type cutStore struct {
	words int
	block []uint64
	next  int // words in the next block
}

// cutBlockWords caps the backing blocks interned bitsets are carved from.
const cutBlockWords = 4096

func (cs *cutStore) reset(n int) {
	cs.words = cutWords(n)
	cs.block = nil
	cs.next = min(16*cs.words, max(cutBlockWords, cs.words))
}

// alloc returns a Cut owning a copy of side, carved from the current block.
// Blocks start at 16 cuts and double up to cutBlockWords, so an enumeration
// that finds few cuts does not pay for a full block.
func (cs *cutStore) alloc(side []uint64) Cut {
	if len(cs.block) < cs.words {
		cs.block = make([]uint64, cs.next)
		cs.next = min(2*cs.next, max(cutBlockWords, cs.words))
	}
	stored := cs.block[:cs.words:cs.words]
	cs.block = cs.block[cs.words:]
	copy(stored, side)
	return Cut{side: stored}
}

// EnumerateMinCuts returns every cut of size exactly `size` of the connected
// graph h, where size must equal h's edge connectivity (the cuts the Aug_k
// step must cover). Every size is enumerated exactly; sizes 1–2 cost one
// near-linear pass plus about O(n/64 + the smaller side) per cut:
//   - size 1: the bridges, in edge-ID order;
//   - size 2: the cut pairs of graph.CutPairs, in (A, B) order;
//   - size 3 and up: the unit-flow engine (see cutsByFlow), in sortCuts
//     order.
//
// Sizes 1–2 read each side off one spanning tree (see treeSides). rng is
// required from size 3 on, and the draws match the enumerators the engine
// replaced, so the caller's stream advances the same way it always has:
// size 3 draws one Int63 whenever λ(h) ≥ 3, larger sizes only when λ(h) =
// size, and sizes 1–2 draw nothing (rng may be nil). An empty result means
// λ(h) > size; λ(h) < size is an error.
func EnumerateMinCuts(h *graph.Graph, size int, rng *rand.Rand) ([]Cut, error) {
	if !h.Connected() {
		return nil, fmt.Errorf("core: cut enumeration needs a connected graph")
	}
	switch {
	case size <= 0:
		return nil, fmt.Errorf("core: cut size %d out of range", size)
	case size == 1:
		return cutsFromBridges(h), nil
	case size == 2:
		return cutsFromCutPairs(h)
	case rng == nil:
		return nil, fmt.Errorf("core: size-%d enumeration requires rng", size)
	}
	return cutsByFlow(h, size, rng)
}

// cutsByFlow enumerates the size-edge minimum cuts of h with the unit-flow
// engine (graph.EachMinCut), in sortCuts order. It reports none when
// λ(h) > size and an error when λ(h) < size. It draws one Int63 from rng
// and discards it where the enumerator it replaced drew its seed: the
// size-3 cycle-space labels whenever λ(h) ≥ 3, the Monte Carlo trials
// from size 4 on only when λ(h) == size. So every solve's random stream,
// and with it every result, stays what it was.
func cutsByFlow(h *graph.Graph, size int, rng *rand.Rand) ([]Cut, error) {
	var store cutStore
	store.reset(h.N())
	var out []Cut
	lambda := h.EachMinCut(size, func(side []uint64) { out = append(out, store.alloc(side)) })
	if lambda < size {
		return nil, fmt.Errorf("core: graph has connectivity %d < requested cut size %d", lambda, size)
	}
	if lambda == size || size == 3 {
		rng.Int63()
	}
	if lambda > size {
		return nil, nil // no cuts of this size: already (size+1)-connected
	}
	sortCuts(out)
	return out, nil
}

// treeSides reads the sides of small cuts off a DFS spanning tree of a
// connected graph, rooted at vertex 0. A vertex lies on the far side of a
// cut iff its tree path from the root crosses the cut an odd number of
// times, so the side without vertex 0 is the XOR of the subtrees below the
// cut's tree edges. Every subtree is an interval of the preorder, so the
// XOR of two subtrees is at most two intervals, and a side costs
// O(n/64 + the smaller of the side and its complement) to write out.
type treeSides struct {
	n     int
	order []int // preorder: subtree(v) is order[pos[v] : pos[v]+size[v]]
	pos   []int
	size  []int
	child []int // per edge: the child endpoint of a tree edge, -1 otherwise
	side  []uint64
}

func newTreeSides(h *graph.Graph) *treeSides {
	n := h.N()
	ts := &treeSides{
		n:     n,
		order: make([]int, 0, n),
		pos:   make([]int, n),
		size:  make([]int, n),
		child: make([]int, h.M()),
		side:  make([]uint64, cutWords(n)),
	}
	for i := range ts.child {
		ts.child[i] = -1
	}
	for v := range ts.pos {
		ts.pos[v] = -1
	}
	type frame struct{ v, arc int }
	stack := []frame{{v: 0}}
	ts.pos[0] = 0
	ts.order = append(ts.order, 0)
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		adj := h.Adj(top.v)
		if top.arc == len(adj) {
			ts.size[top.v] = len(ts.order) - ts.pos[top.v]
			stack = stack[:len(stack)-1]
			continue
		}
		a := adj[top.arc]
		top.arc++
		if ts.pos[a.To] != -1 {
			continue
		}
		ts.pos[a.To] = len(ts.order)
		ts.order = append(ts.order, a.To)
		ts.child[a.Edge] = a.To
		stack = append(stack, frame{v: a.To})
	}
	return ts
}

// sideOf returns, in scratch valid until the next call, the canonical side
// of the cut whose tree edges are among edges.
func (ts *treeSides) sideOf(edges ...int) []uint64 {
	// Interval endpoints in the preorder; the XOR of laminar intervals is
	// [p0, p1) ∪ [p2, p3) ∪ ... over the sorted endpoints.
	var ends [4]int
	k := 0
	for _, e := range edges {
		if x := ts.child[e]; x != -1 {
			ends[k], ends[k+1] = ts.pos[x], ts.pos[x]+ts.size[x]
			k += 2
		}
	}
	pts := ends[:k]
	slices.Sort(pts)
	in := 0
	for i := 0; i < k; i += 2 {
		in += pts[i+1] - pts[i]
	}
	side := ts.side
	if 2*in <= ts.n {
		clear(side)
		for i := 0; i < k; i += 2 {
			for _, v := range ts.order[pts[i]:pts[i+1]] {
				side[v/64] |= 1 << uint(v%64)
			}
		}
		return side
	}
	// Most vertices are in: start full and clear the gaps between the
	// intervals, the first of which holds vertex 0 (the root comes first).
	for i := range side {
		side[i] = ^uint64(0)
	}
	if rem := uint(ts.n % 64); rem != 0 {
		side[len(side)-1] = (1 << rem) - 1
	}
	var gaps [6]int
	copy(gaps[1:], pts)
	gaps[k+1] = ts.n
	for i := 0; i < k+2; i += 2 {
		for _, v := range ts.order[gaps[i]:gaps[i+1]] {
			side[v/64] &^= 1 << uint(v%64)
		}
	}
	return side
}

// cutsFromBridges turns each bridge into the subtree below it.
func cutsFromBridges(h *graph.Graph) []Cut {
	bridges := h.Bridges()
	if len(bridges) == 0 {
		return nil
	}
	ts := newTreeSides(h)
	var store cutStore
	store.reset(h.N())
	out := make([]Cut, 0, len(bridges))
	for _, b := range bridges {
		out = append(out, store.alloc(ts.sideOf(b)))
	}
	return out
}

// cutsFromCutPairs turns each cut pair of the 2-edge-connected h into its
// side. A size-2 cut has exactly two edges, so each pair is a distinct cut.
func cutsFromCutPairs(h *graph.Graph) ([]Cut, error) {
	if lambda := h.EdgeConnectivityUpTo(2); lambda < 2 {
		return nil, fmt.Errorf("core: graph has connectivity %d < requested cut size 2", lambda)
	}
	pairs := h.CutPairs()
	if len(pairs) == 0 {
		return nil, nil
	}
	ts := newTreeSides(h)
	var store cutStore
	store.reset(h.N())
	out := make([]Cut, 0, len(pairs))
	for _, p := range pairs {
		out = append(out, store.alloc(ts.sideOf(p.A, p.B)))
	}
	return out, nil
}
