package graph

import (
	"cmp"
	"slices"
	"sort"
	"sync"
)

// bridgeFrame is one stack entry of the iterative Tarjan low-link scan.
type bridgeFrame struct {
	v          int
	parentEdge int
	arcIdx     int
}

// bridgeScanner holds the reusable scratch of the low-link bridge scan, so
// sweeps that scan many times (CutPairs scans once per nontrivial 2-cut
// clique) allocate the disc/low/stack buffers once instead of per scan.
type bridgeScanner struct {
	disc  []int
	low   []int
	stack []bridgeFrame
}

// scan appends to dst the IDs of all bridges of g, ignoring the edge with ID
// skip (pass skip = -1 to scan the whole graph), and returns dst. Output
// order follows the traversal; callers that need sorted output sort it.
func (bs *bridgeScanner) scan(g *Graph, skip int, dst []int) []int {
	bs.disc = grow(bs.disc, g.n)
	bs.low = grow(bs.low, g.n)
	disc, low := bs.disc, bs.low
	for v := 0; v < g.n; v++ {
		disc[v] = -1
	}
	stack := bs.stack[:0]
	timer := 0

	for start := 0; start < g.n; start++ {
		if disc[start] != -1 {
			continue
		}
		disc[start] = timer
		low[start] = timer
		timer++
		stack = append(stack, bridgeFrame{v: start, parentEdge: -1})
		for len(stack) > 0 {
			top := &stack[len(stack)-1]
			if top.arcIdx < len(g.adj[top.v]) {
				a := g.adj[top.v][top.arcIdx]
				top.arcIdx++
				if a.Edge == top.parentEdge || a.Edge == skip {
					continue
				}
				if disc[a.To] == -1 {
					disc[a.To] = timer
					low[a.To] = timer
					timer++
					stack = append(stack, bridgeFrame{v: a.To, parentEdge: a.Edge})
				} else if disc[a.To] < low[top.v] {
					low[top.v] = disc[a.To]
				}
			} else {
				stack = stack[:len(stack)-1]
				if len(stack) > 0 {
					parent := &stack[len(stack)-1]
					if low[top.v] < low[parent.v] {
						low[parent.v] = low[top.v]
					}
					if low[top.v] > disc[parent.v] {
						dst = append(dst, top.parentEdge)
					}
				}
			}
		}
	}
	bs.stack = stack[:0]
	return dst
}

// Bridges returns the IDs of all bridge edges (cuts of size 1) using an
// iterative Tarjan low-link computation. For a multigraph, a parallel pair is
// never a bridge: the low-link traversal tracks the specific parent edge ID
// rather than the parent vertex, which handles parallel edges correctly.
func (g *Graph) Bridges() []int {
	var bs bridgeScanner
	bridges := bs.scan(g, -1, nil)
	sort.Ints(bridges)
	return bridges
}

// TwoEdgeConnected reports whether g is connected and has no bridges, i.e.
// whether g remains connected after the removal of any single edge. Graphs
// with at most one vertex count as 2-edge-connected.
func (g *Graph) TwoEdgeConnected() bool {
	return g.EdgeConnectivityUpTo(2) >= 2
}

// CutPair is an unordered pair of edge IDs whose joint removal disconnects a
// 2-edge-connected graph. By convention A < B.
type CutPair struct {
	A, B int
}

// mix64 is the splitmix64 finalizer, used to fingerprint covering-edge sets
// so that distinct sets collide with probability ~2^-64 per component.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// treeFP fingerprints the set of non-tree edges covering one DFS tree edge:
// their number, the xor of their IDs and the sum of their mixed IDs.
type treeFP struct {
	cnt  int
	xr   uint64
	hs   uint64
	edge int // the tree edge
}

// sameSet reports whether a and b carry the same fingerprint. Equal covering
// sets always do; different sets do with probability ~2^-64.
func (a treeFP) sameSet(b treeFP) bool {
	return a.cnt == b.cnt && a.xr == b.xr && a.hs == b.hs
}

// runEnd returns the end of the run of equal fingerprints that starts at i
// in fps, sorted by compareFP.
func runEnd(fps []treeFP, i int) int {
	j := i + 1
	for j < len(fps) && fps[j].sameSet(fps[i]) {
		j++
	}
	return j
}

// compareFP orders fingerprints so that equal ones are adjacent, breaking
// ties by edge ID so the order is total.
func compareFP(a, b treeFP) int {
	switch {
	case a.cnt != b.cnt:
		return cmp.Compare(a.cnt, b.cnt)
	case a.xr != b.xr:
		return cmp.Compare(a.xr, b.xr)
	case a.hs != b.hs:
		return cmp.Compare(a.hs, b.hs)
	}
	return cmp.Compare(a.edge, b.edge)
}

// cutScanner is the reusable scratch of the linear small-cut pass shared by
// EdgeConnectivityUpTo (cap ≤ 3) and CutPairs: one iterative DFS gives the
// components, a spanning forest and its preorder, and one subtree
// aggregation then fingerprints every tree edge's covering set.
//
// The structure it exploits: a pair of two non-tree edges never disconnects
// (the forest survives), so every cut pair contains a tree edge t, and the
// cut it realises is t's fundamental cut — hence the partner is either (a)
// the unique non-tree edge covering t, when exactly one does, or (b) another
// tree edge covered by exactly the same set of non-tree edges. A tree edge
// no non-tree edge covers is a bridge. The covering set of every tree edge
// is fingerprinted in O(n+m) total: a back edge (d, a) with d the deeper
// endpoint contributes (+1 at d, −1 at a) to the count (ancestor a is never
// in a subtree without d, so the subtree sum at a tree edge's child vertex
// counts exactly the covering edges), its ID to an xor at both endpoints
// (fully-contained edges cancel), and a mixed hash with opposite signs (same
// cancellation). A count-1 edge reads its partner straight out of the xor.
// Case (b) sorts the fingerprints, so equal covering sets sit in one run,
// and confirms each run exactly — never trusting the hash — with a bridge
// scan of G−t: those bridges are, by definition, the exact partner set of t.
// A hash collision merely costs one extra scan.
//
// Instances are recycled through cutScannerPool and resized per graph, so a
// warm pass allocates nothing.
type cutScanner struct {
	disc       []int // preorder index; -1 = unvisited
	parentEdge []int // tree edge to the DFS parent; -1 at roots
	order      []int // preorder: parents precede children
	isTree     []bool
	// Per child vertex x, after fingerprint: the covering set of tree edge
	// parentEdge[x] as (count, xor of IDs, sum of mixed IDs).
	cnt      []int
	xr       []uint64
	hs       []uint64
	stack    []bridgeFrame
	fps      []treeFP
	partners []int
	resolved []bool
	bridges  bridgeScanner
}

var cutScannerPool = sync.Pool{New: func() any { return new(cutScanner) }}

// load sizes the per-vertex and per-edge scratch for g, growing it only when
// g outsizes every graph this instance has seen before.
func (s *cutScanner) load(g *Graph) {
	n, m := g.n, len(g.edges)
	s.disc = grow(s.disc, n)
	s.parentEdge = grow(s.parentEdge, n)
	s.cnt = grow(s.cnt, n)
	s.xr = grow(s.xr, n)
	s.hs = grow(s.hs, n)
	s.isTree = grow(s.isTree, m)
}

// forest runs the iterative DFS over every component of g, recording the
// tree edges and the preorder, and returns the number of components.
//
//kecss:alloc-free
func (s *cutScanner) forest(g *Graph) int {
	disc, parentEdge := s.disc, s.parentEdge
	for v := range disc {
		disc[v] = -1
		parentEdge[v] = -1
	}
	clear(s.isTree)
	order, stack := s.order[:0], s.stack[:0]
	roots := 0
	for start := 0; start < g.n; start++ {
		if disc[start] != -1 {
			continue
		}
		roots++
		disc[start] = len(order)
		order = append(order, start)
		stack = append(stack, bridgeFrame{v: start})
		for len(stack) > 0 {
			top := &stack[len(stack)-1]
			if top.arcIdx == len(g.adj[top.v]) {
				stack = stack[:len(stack)-1]
				continue
			}
			a := g.adj[top.v][top.arcIdx]
			top.arcIdx++
			if disc[a.To] != -1 {
				continue
			}
			disc[a.To] = len(order)
			parentEdge[a.To] = a.Edge
			s.isTree[a.Edge] = true
			order = append(order, a.To)
			stack = append(stack, bridgeFrame{v: a.To})
		}
	}
	s.order, s.stack = order, stack
	return roots
}

// fingerprint aggregates, bottom-up over the forest, the covering set of
// every tree edge into cnt/xr/hs at the edge's child vertex.
//
//kecss:alloc-free
func (s *cutScanner) fingerprint(g *Graph) {
	cnt, xr, hs, disc := s.cnt, s.xr, s.hs, s.disc
	clear(cnt)
	clear(xr)
	clear(hs)
	for _, e := range g.edges {
		if s.isTree[e.ID] {
			continue
		}
		d, a := e.U, e.V
		if disc[d] < disc[a] {
			d, a = a, d
		}
		h := mix64(uint64(e.ID))
		cnt[d]++
		cnt[a]--
		xr[d] ^= uint64(e.ID)
		xr[a] ^= uint64(e.ID)
		hs[d] += h
		hs[a] -= h
	}
	for i := len(s.order) - 1; i >= 0; i-- {
		x := s.order[i]
		pe := s.parentEdge[x]
		if pe == -1 {
			continue
		}
		p := g.edges[pe].U
		if p == x {
			p = g.edges[pe].V
		}
		cnt[p] += cnt[x]
		xr[p] ^= xr[x]
		hs[p] += hs[x]
	}
}

// upTo3 returns min(λ(g), capLimit) for 1 ≤ capLimit ≤ 3 and g.n ≥ 2,
// returning on the first witness: a second component, a bridge, a count-1
// tree edge, or a fingerprint run that a bridge scan confirms.
func (s *cutScanner) upTo3(g *Graph, capLimit int) int {
	if s.forest(g) > 1 {
		return 0
	}
	if capLimit == 1 {
		return 1
	}
	s.fingerprint(g)
	pair := false
	fps := s.fps[:0]
	for _, x := range s.order[1:] { // order[0] is the root
		switch c := s.cnt[x]; c {
		case 0:
			return 1 // a bridge
		case 1:
			pair = true // with its one covering edge
		default:
			fps = append(fps, treeFP{cnt: c, xr: s.xr[x], hs: s.hs[x], edge: s.parentEdge[x]})
		}
	}
	s.fps = fps
	if pair || capLimit == 2 {
		return 2
	}
	slices.SortFunc(fps, compareFP)
	for i, j := 0, 0; i < len(fps); i = j {
		j = runEnd(fps, i)
		// Scanning every member but the last finds any genuine pair in the
		// run, even one that shares it with a colliding stranger.
		for _, f := range fps[i : j-1] {
			if s.partners = s.bridges.scan(g, f.edge, s.partners[:0]); len(s.partners) > 0 {
				return 2
			}
		}
	}
	return 3
}

// CutPairs enumerates every cut pair of g with the cutScanner pass (see its
// doc for the argument) plus one bridge scan per equivalence class of tree
// edges sharing a covering set of two or more non-tree edges: O(n + m +
// classes·(n+m)) in total. Count-1 classes need no scan, because a
// one-element covering set is determined exactly by (count, xor).
//
// The graph must be 2-edge-connected (so that every size-2 cut is a pair of
// edges, each individually removable without disconnecting).
func (g *Graph) CutPairs() []CutPair {
	n, m := g.n, len(g.edges)
	if n == 0 || m == 0 {
		return nil
	}
	s := cutScannerPool.Get().(*cutScanner)
	defer cutScannerPool.Put(s)
	s.load(g)
	s.forest(g)
	s.fingerprint(g)

	var pairs []CutPair
	addPair := func(a, b int) {
		if a > b {
			a, b = b, a
		}
		pairs = append(pairs, CutPair{A: a, B: b})
	}
	fps := s.fps[:0]
	for _, x := range s.order {
		pe := s.parentEdge[x]
		if pe == -1 || s.cnt[x] < 1 {
			continue
		}
		if s.cnt[x] == 1 {
			// Exactly one covering non-tree edge: the xor IS its ID.
			addPair(pe, int(s.xr[x]))
		}
		fps = append(fps, treeFP{cnt: s.cnt[x], xr: s.xr[x], hs: s.hs[x], edge: pe})
	}
	s.fps = fps
	slices.SortFunc(fps, compareFP)
	s.resolved = grow(s.resolved, m)
	resolved := s.resolved
	clear(resolved)
	for i, j := 0, 0; i < len(fps); i = j {
		j = runEnd(fps, i)
		run := fps[i:j]
		if len(run) < 2 {
			continue
		}
		if run[0].cnt == 1 {
			// The whole run genuinely shares its one covering edge.
			for a := range run {
				for b := a + 1; b < len(run); b++ {
					addPair(run[a].edge, run[b].edge)
				}
			}
			continue
		}
		// Bridges of G−t are the exact partners of t, so one scan settles
		// t's entire class; hash-merged strangers stay unresolved and get
		// their own scan.
		for _, f := range run {
			t := f.edge
			if resolved[t] {
				continue
			}
			resolved[t] = true
			s.partners = s.bridges.scan(g, t, s.partners[:0])
			class := s.partners
			for a, p := range class {
				resolved[p] = true
				addPair(t, p)
				for _, q := range class[a+1:] {
					addPair(p, q)
				}
			}
		}
	}
	slices.SortFunc(pairs, func(a, b CutPair) int {
		if a.A != b.A {
			return cmp.Compare(a.A, b.A)
		}
		return cmp.Compare(a.B, b.B)
	})
	return pairs
}

// EdgeConnectivity returns the global edge connectivity λ(g): the minimum
// number of edges whose removal disconnects g. It is 0 for a disconnected
// graph. A graph with at most one vertex cannot be disconnected; it reports
// M()+1.
func (g *Graph) EdgeConnectivity() int {
	return g.EdgeConnectivityUpTo(g.M() + 1)
}

// EdgeConnectivityUpTo returns min(λ(g), cap); a graph with at most one
// vertex reports cap.
//
// For cap ≤ 3 the answer comes from one cutScanner pass in O(n + m): λ ≥ 1
// iff the DFS reaches every vertex, λ ≥ 2 iff no tree edge goes uncovered,
// and λ ≥ 3 iff no tree edge has exactly one covering edge and no two share
// a covering set — the last confirmed by a bridge scan, so a fingerprint
// collision can cost time but never change the answer. Larger caps run the
// exact merged-source unit-flow pass (see unitFlow): for t = 1..n−1, unit
// paths from {0..t−1} to t, each flow stopped at the smallest seen so far,
// which starts at min(cap, minimum degree).
//
// Both the scanner and the flow scratch come from package-level pools and
// are reloaded in place, so repeated calls — the solvers' λ checks and the
// post-solve audits — allocate nothing once the pools are warm.
func (g *Graph) EdgeConnectivityUpTo(capLimit int) int {
	if g.n <= 1 || capLimit <= 0 {
		return capLimit
	}
	if capLimit > 3 {
		f := unitFlowPool.Get().(*unitFlow)
		f.load(g)
		lam := f.upTo(1, min(capLimit, g.MinDegree()))
		unitFlowPool.Put(f)
		return lam
	}
	s := cutScannerPool.Get().(*cutScanner)
	s.load(g)
	lam := s.upTo3(g, capLimit)
	cutScannerPool.Put(s)
	return lam
}

// IsKEdgeConnected reports whether g remains connected after removal of any
// k-1 edges.
func (g *Graph) IsKEdgeConnected(k int) bool {
	return k <= 0 || g.EdgeConnectivityUpTo(k) >= k
}

// grow returns s resized to n, reusing its backing array when possible.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
