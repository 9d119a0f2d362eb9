package core

// Exact enumeration of the 3-edge minimum cuts of a 3-edge-connected graph
// from cycle-space labels: the Pritchard–Thurimella sampling that Dory's §5
// builds on (graph.CutPairs applies the same labelling to cut pairs).
//
// Fix a BFS spanning tree. Every non-tree edge gets a random 64-bit label,
// and every tree edge the XOR of the labels of the non-tree edges covering
// it (those whose fundamental cycle contains it). A cut meets every cycle
// an even number of times, so the labels of its edges XOR to 0; an edge set
// that is not a cut XORs to 0 with probability 2^-64. Every 3-edge cut
// contains a tree edge (otherwise the tree survives), so looking up
// label(t)^label(f) for every tree edge t and every edge f in a label → edge
// table reaches every 3-edge cut. Each candidate is then confirmed by a
// component scan with its three edges skipped, so a label collision costs
// one scan and never reaches the output: the enumeration is exact for every
// seed, and only its running time is probabilistic.

import (
	"math/bits"

	"repro/internal/graph"
)

// labelEntry is one edge in the label table, carrying its label so that a
// bucket scan touches only the bucket.
type labelEntry struct {
	lab uint64
	id  int32
}

// cutsByLabels returns every 3-edge cut of h as canonical bipartitions in
// sortCuts order. h must be connected with edge connectivity 3 (a caller
// promise or check): then a confirmed triple is exactly δ(S) of its two
// connected sides. seed drives the labels, which decide the running time
// but never the output.
func cutsByLabels(h *graph.Graph, seed int64) []Cut {
	n, m := h.N(), h.M()
	if n < 2 {
		return nil
	}

	// BFS spanning tree from vertex 0; order lists parents before children.
	parentEdge := make([]int, n)
	isTree := make([]bool, m)
	seen := make([]bool, n)
	order := make([]int, 1, n)
	seen[0] = true
	for qi := 0; qi < len(order); qi++ {
		v := order[qi]
		for _, a := range h.Adj(v) {
			if !seen[a.To] {
				seen[a.To] = true
				parentEdge[a.To] = a.Edge
				isTree[a.Edge] = true
				order = append(order, a.To)
			}
		}
	}

	// Non-tree labels accumulate at both endpoints, so the subtree XOR below
	// a tree edge's child holds exactly the non-tree edges with one endpoint
	// inside: those covering the tree edge.
	lab := make([]uint64, m)
	acc := make([]uint64, n)
	var r splitmix
	r.seed(seed)
	for _, e := range h.Edges() {
		if !isTree[e.ID] {
			l := r.next()
			lab[e.ID] = l
			acc[e.U] ^= l
			acc[e.V] ^= l
		}
	}
	for i := len(order) - 1; i > 0; i-- {
		v := order[i]
		pe := parentEdge[v]
		lab[pe] = acc[v]
		e := h.Edge(pe)
		acc[e.U^e.V^v] ^= acc[v]
	}

	// Label table: edges bucketed by their label's top bits, with more
	// buckets than edges. Labels are uniform, so a bucket holds O(1)
	// entries, and a lookup scans its whole bucket: every edge with the
	// label is found.
	lb := bits.Len(uint(m))
	shift := uint(64 - lb)
	head := make([]int32, 1<<lb+1)
	for _, l := range lab {
		head[l>>shift]++
	}
	for b := 1; b < len(head); b++ {
		head[b] += head[b-1]
	}
	table := make([]labelEntry, m)
	for id := m - 1; id >= 0; id-- {
		b := lab[id] >> shift
		head[b]--
		table[head[b]] = labelEntry{lab: lab[id], id: int32(id)}
	}

	comp := make([]int, n)
	queue := make([]int, 0, n)
	side := make([]uint64, cutWords(n))
	var store cutStore
	store.reset(n)
	var out []Cut
	// Each triple is produced once: t is its smallest tree edge, f < g.
	for t := 0; t < m; t++ {
		if !isTree[t] {
			continue
		}
		lt := lab[t]
		for f := 0; f < m; f++ {
			if f == t || (isTree[f] && f < t) {
				continue
			}
			x := lt ^ lab[f]
			b := x >> shift
			for _, en := range table[head[b]:head[b+1]] {
				g := int(en.id)
				if en.lab != x || g <= f || g == t || (isTree[g] && g < t) {
					continue
				}
				if componentsSkipping(h, comp, queue, t, f, g) != 2 {
					continue // a label collision, not a cut
				}
				out = append(out, store.alloc(sideOf(comp, side)))
			}
		}
	}
	sortCuts(out)
	return out
}

// splitmix is the label PRNG: splitmix64, whose O(1) seeding suits one
// short stream per enumeration (math/rand's source regenerates a 607-entry
// table per Seed).
type splitmix struct{ s uint64 }

func (r *splitmix) seed(v int64) { r.s = uint64(v) }

func (r *splitmix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
