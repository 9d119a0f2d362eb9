package core

import (
	"fmt"
	"math/rand"
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

// Key returns a string identifying the bipartition. It survives as the
// oracle-friendly identity used by tests; the hot paths intern cuts through
// cutInterner's 64-bit hash table instead and never materialise strings.
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

// hashWords is word-at-a-time FNV-1a over a side bitset.
func hashWords(ws []uint64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, w := range ws {
		h = (h ^ w) * prime64
	}
	return h
}

func wordsEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
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
// even after the store's owner (an arena or interner) is recycled.
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

// cutInterner assigns dense indices to canonical bipartitions: a 64-bit
// FNV-1a hash keys the table and the full bitset is compared on collision,
// so no string keys are ever built. Interned bitsets live in a cutStore,
// whose detach-on-reset rule keeps handed-out cuts safe across reuse.
type cutInterner struct {
	table map[uint64][]int32
	cuts  []Cut
	store cutStore
}

func (it *cutInterner) reset(n int) {
	if it.table == nil {
		it.table = make(map[uint64][]int32)
	} else {
		clear(it.table)
	}
	it.cuts = it.cuts[:0]
	it.store.reset(n)
}

// lookup returns the index of the interned cut equal to side, or -1.
func (it *cutInterner) lookup(h uint64, side []uint64) int32 {
	for _, idx := range it.table[h] {
		if wordsEqual(it.cuts[idx].side, side) {
			return idx
		}
	}
	return -1
}

// add interns the canonical side bitset, copying it into interner-owned
// block storage when unseen. It returns the interned Cut and whether it was
// new.
func (it *cutInterner) add(side []uint64) (Cut, bool) {
	h := hashWords(side)
	if idx := it.lookup(h, side); idx >= 0 {
		return it.cuts[idx], false
	}
	c := it.store.alloc(side)
	it.table[h] = append(it.table[h], int32(len(it.cuts)))
	it.cuts = append(it.cuts, c)
	return c, true
}

// EnumerateMinCuts returns every cut of size exactly `size` of the connected
// graph h, where size must equal h's edge connectivity (the cuts the Aug_k
// step must cover), in sortCuts order for sizes 3 and up. Every size is
// enumerated exactly: bridges (1), cut pairs (2), cycle-space labels (3,
// see cutlabels.go) and the unit-flow engine (4 and up, see cutsByFlow).
// rng is required from size 3 on, where one Int63 is drawn once λ(h) is
// known to be at least size (exactly size, from 4 on): it seeds the size-3
// labels and is discarded from 4 on, so the caller's stream advances the
// same way at every size. An empty result for size >= 3 means λ(h) > size.
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
	case size == 3:
		// The linear cap-3 check cannot tell 3 from more; an empty label
		// enumeration does.
		if lambda := h.EdgeConnectivityUpTo(3); lambda < 3 {
			return nil, fmt.Errorf("core: graph has connectivity %d < requested cut size %d", lambda, size)
		}
		return cutsByLabels(h, rng.Int63()), nil
	default:
		return cutsByFlow(h, size, rng)
	}
}

// cutsByFlow enumerates the size-edge minimum cuts of h with the unit-flow
// engine (graph.EachMinCut), in sortCuts order. It reports none when
// λ(h) > size and an error when λ(h) < size. When λ(h) == size it draws one
// Int63 from rng and discards it: the Monte Carlo enumerator this engine
// replaced drew its trial seed there, so every solve's random stream, and
// with it every result, stays what it was whenever that enumerator found
// every cut.
func cutsByFlow(h *graph.Graph, size int, rng *rand.Rand) ([]Cut, error) {
	var store cutStore
	store.reset(h.N())
	var out []Cut
	lambda := h.EachMinCut(size, func(side []uint64) { out = append(out, store.alloc(side)) })
	if lambda > size {
		return nil, nil // no cuts of this size: already (size+1)-connected
	}
	if lambda < size {
		return nil, fmt.Errorf("core: graph has connectivity %d < requested cut size %d", lambda, size)
	}
	rng.Int63()
	sortCuts(out)
	return out, nil
}

// componentsSkipping labels the connected components of h with up to three
// edges (skip1, skip2, skip3; pass -1 for none) ignored, writing component
// indices into comp (length h.N()) and using queue (capacity >= h.N()) as
// BFS scratch. It returns the component count. Replaces the per-exclusion
// SubgraphWithout + Components pattern: no subgraph or exclusion map is
// built, and the caller's scratch is reused across scans.
func componentsSkipping(h *graph.Graph, comp, queue []int, skip1, skip2, skip3 int) int {
	for v := range comp {
		comp[v] = -1
	}
	count := 0
	for s := 0; s < h.N(); s++ {
		if comp[s] != -1 {
			continue
		}
		comp[s] = count
		queue = append(queue[:0], s)
		for qi := 0; qi < len(queue); qi++ {
			v := queue[qi]
			for _, a := range h.Adj(v) {
				if a.Edge == skip1 || a.Edge == skip2 || a.Edge == skip3 || comp[a.To] != -1 {
					continue
				}
				comp[a.To] = count
				queue = append(queue, a.To)
			}
		}
		count++
	}
	return count
}

// sideOf writes into side, and returns it, the bitset of component 1 of a
// two-component componentsSkipping labelling. Vertex 0 seeds the first BFS,
// so comp[0] == 0 and the side is already canonically oriented.
func sideOf(comp []int, side []uint64) []uint64 {
	for i := range side {
		side[i] = 0
	}
	for v, cv := range comp {
		if cv == 1 {
			side[v/64] |= 1 << uint(v%64)
		}
	}
	return side
}

// cutsFromBridges converts each bridge into its bipartition with one
// component scan per bridge over shared scratch.
func cutsFromBridges(h *graph.Graph) []Cut {
	bridges := h.Bridges()
	if len(bridges) == 0 {
		return nil
	}
	n := h.N()
	comp := make([]int, n)
	queue := make([]int, 0, n)
	out := make([]Cut, 0, len(bridges))
	for _, b := range bridges {
		componentsSkipping(h, comp, queue, b, -1, -1)
		e := h.Edge(b)
		side := comp[e.U]
		out = append(out, newCut(n, func(v int) bool { return comp[v] == side }))
	}
	return out
}

// cutsFromCutPairs converts each cut pair into its bipartition, deduping
// pairs that induce the same bipartition through the intern table.
func cutsFromCutPairs(h *graph.Graph) ([]Cut, error) {
	pairs := h.CutPairs()
	if len(pairs) == 0 {
		return nil, nil
	}
	n := h.N()
	comp := make([]int, n)
	queue := make([]int, 0, n)
	side := make([]uint64, cutWords(n))
	var itn cutInterner
	itn.reset(n)
	out := make([]Cut, 0, len(pairs))
	for _, p := range pairs {
		if count := componentsSkipping(h, comp, queue, p.A, p.B, -1); count != 2 {
			// A minimum cut always splits into exactly two components.
			return nil, fmt.Errorf("core: cut pair %v split graph into %d components", p, count)
		}
		if c, isNew := itn.add(sideOf(comp, side)); isNew {
			out = append(out, c)
		}
	}
	return out, nil
}
