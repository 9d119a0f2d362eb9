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
	cnt   int
	xr    uint64
	hs    uint64
	edge  int // the tree edge
	child int // its child vertex
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
// Case (b) sorts the fingerprints, so equal covering sets sit in one run.
// EdgeConnectivityUpTo confirms a run with a bridge scan of G−t: those
// bridges are, by definition, the exact partner set of t. CutPairs confirms
// every run at once instead, by counting shared covering edges (see
// countShared), and falls back to bridge scans only for a run that holds a
// hash collision. Neither ever trusts the hash.
//
// Instances are recycled through cutScannerPool and resized per graph, so a
// warm pass allocates nothing.
type cutScanner struct {
	disc       []int // preorder index; -1 = unvisited
	end        []int // preorder index just past the vertex's subtree
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
	// countShared scratch: back edges bucketed by their upper endpoint's
	// preorder index, a Fenwick tree over preorder, and the run checks.
	head   []int
	lower  []int
	fen    []int32
	checks []runCheck
	bad    []bool
}

var cutScannerPool = sync.Pool{New: func() any { return new(cutScanner) }}

// load sizes the per-vertex and per-edge scratch for g, growing it only when
// g outsizes every graph this instance has seen before.
func (s *cutScanner) load(g *Graph) {
	n, m := g.n, len(g.edges)
	s.disc = grow(s.disc, n)
	s.end = grow(s.end, n)
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
				s.end[top.v] = len(order)
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
// doc for the argument). Tree edges sharing a covering set of two or more
// non-tree edges are confirmed by countShared, with a bridge scan per tree
// edge only in a run that holds a fingerprint collision: O((n + m) log n)
// plus the output. Count-1 classes need no check, because a one-element
// covering set is determined exactly by (count, xor).
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
	return s.cutPairs(g)
}

// cutPairs lists the cut pairs of g, loaded and fingerprinted, in (A, B)
// order.
func (s *cutScanner) cutPairs(g *Graph) []CutPair {
	var pairs []CutPair
	addPair := func(a, b int) {
		if a > b {
			a, b = b, a
		}
		pairs = append(pairs, CutPair{A: a, B: b})
	}
	addRun := func(run []treeFP) {
		for a := range run {
			for b := a + 1; b < len(run); b++ {
				addPair(run[a].edge, run[b].edge)
			}
		}
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
		fps = append(fps, treeFP{cnt: s.cnt[x], xr: s.xr[x], hs: s.hs[x], edge: pe, child: x})
	}
	s.fps = fps
	slices.SortFunc(fps, compareFP)
	// A class of tree edges sharing a covering set lies on one root path
	// (a back edge covers a vertical path), so in preorder each member is
	// an ancestor edge of the next. Check each such consecutive pair.
	checks := s.checks[:0]
	for i, j := 0, 0; i < len(fps); i = j {
		j = runEnd(fps, i)
		run := fps[i:j]
		if len(run) < 2 {
			continue
		}
		if run[0].cnt == 1 {
			addRun(run) // the whole run genuinely shares its one covering edge
			continue
		}
		slices.SortFunc(run, func(a, b treeFP) int { return cmp.Compare(s.disc[a.child], s.disc[b.child]) })
		for k := 1; k < len(run); k++ {
			checks = append(checks, runCheck{upper: run[k-1].child, lower: run[k].child, run: i})
		}
	}
	s.checks = checks
	s.bad = grow(s.bad, len(fps))
	clear(s.bad)
	s.countShared(g, checks)
	for i, j := 0, 0; i < len(fps); i = j {
		j = runEnd(fps, i)
		run := fps[i:j]
		if len(run) < 2 || run[0].cnt == 1 {
			continue
		}
		if !s.bad[i] {
			addRun(run)
			continue
		}
		s.resolveByScans(g, run, addPair)
	}
	slices.SortFunc(pairs, func(a, b CutPair) int {
		if a.A != b.A {
			return cmp.Compare(a.A, b.A)
		}
		return cmp.Compare(a.B, b.B)
	})
	return pairs
}

// resolveByScans settles a run whose fingerprints collide: the bridges of
// G−t are the exact partners of t, so one scan settles t's entire class,
// and hash-merged strangers stay unresolved and get their own scan.
func (s *cutScanner) resolveByScans(g *Graph, run []treeFP, addPair func(a, b int)) {
	s.resolved = grow(s.resolved, len(g.edges))
	resolved := s.resolved
	for _, f := range run {
		resolved[f.edge] = false
	}
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

// runCheck asks whether the tree edges above upper and above lower, two
// consecutive members of the fingerprint run starting at fps[run], have the
// same covering set.
type runCheck struct {
	upper, lower int // child vertices, upper first in preorder
	run          int
}

// countShared marks s.bad[c.run] for every check whose two tree edges do
// not share their covering set. With lower below upper, a back edge covers
// both iff it leaves lower's subtree for a vertex above upper, so the sets
// are equal iff both counts equal the number of such edges. That number is
// a dominance count — deeper endpoint inside lower's preorder interval,
// upper endpoint before upper's preorder index — which one sweep over the
// upper endpoints answers for every check with a Fenwick tree over the
// deeper endpoints.
func (s *cutScanner) countShared(g *Graph, checks []runCheck) {
	if len(checks) == 0 {
		return
	}
	n, disc := g.n, s.disc
	s.head = grow(s.head, n+1)
	head := s.head
	clear(head)
	backs := 0
	for _, e := range g.edges {
		if !s.isTree[e.ID] {
			head[min(disc[e.U], disc[e.V])+1]++
			backs++
		}
	}
	for i := 1; i <= n; i++ {
		head[i] += head[i-1]
	}
	s.lower = grow(s.lower, backs)
	for _, e := range g.edges {
		if !s.isTree[e.ID] {
			a, d := disc[e.U], disc[e.V]
			if d < a {
				a, d = d, a
			}
			s.lower[head[a]] = d
			head[a]++
		}
	}
	// head[a] now ends bucket a: lower[:head[a]] holds the deeper endpoints
	// of the back edges whose upper endpoint has preorder index ≤ a.
	s.fen = grow(s.fen, n+1)
	fen := s.fen
	clear(fen)
	below := func(p int) int { // inserted deeper endpoints before index p
		c := 0
		for ; p > 0; p -= p & -p {
			c += int(fen[p])
		}
		return c
	}
	slices.SortFunc(checks, func(a, b runCheck) int { return cmp.Compare(disc[a.upper], disc[b.upper]) })
	inserted := 0
	for _, c := range checks {
		// upper is a child vertex, never a root, so its index is ≥ 1.
		for ; inserted < head[disc[c.upper]-1]; inserted++ {
			for p := s.lower[inserted] + 1; p <= n; p += p & -p {
				fen[p]++
			}
		}
		lo, hi := disc[c.lower], s.end[c.lower]
		if lo >= s.end[c.upper] || below(hi)-below(lo) != s.fps[c.run].cnt {
			s.bad[c.run] = true
		}
	}
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
