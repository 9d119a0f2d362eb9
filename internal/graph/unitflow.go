package graph

import "sync"

// unitFlow is the exact engine behind EdgeConnectivityUpTo (cap ≥ 4) and
// EachMinCut: unit-capacity augmenting paths from a merged source.
//
// For t = 1..n−1 it takes S = {0..t−1} as one source and pushes unit paths
// from S to t. Every S–t cut is a global cut, and a global minimum cut
// (A, B) with 0 ∈ A is an S–t cut for t = min B, so the minimum of the
// flows is λ. The same t sees exactly the minimum cuts whose far side
// starts at t: by Picard–Queyranne they are the closed sets of the
// residual graph that contain S and not t, so enumerating those closed
// sets at every t whose flow equals λ lists each minimum cut exactly once.
//
// Paths are found backwards: a breadth-first search from t along residual
// arcs stops at the first vertex below t. Low vertices have most of their
// neighbours in S, so most paths are one or two arcs long, and only a
// search that fails explores the residual closure of t. Each t starts from
// zero flow: the arcs the previous t pushed on are reset, not the whole
// graph, and the search marks are stamps, so a pass costs O(n) outside the
// searches themselves.
//
// Instances are recycled through unitFlowPool and reloaded per graph, so a
// warm pass allocates nothing.
type unitFlow struct {
	n      int
	first  []int32  // vertex v's arcs are first[v] .. first[v+1]-1
	to     []int32  // arc head
	rev    []int32  // the opposite arc of the same edge
	res    []int8   // residual capacity: 1 at rest, 0 or 2 once flow crosses
	pushed []int32  // arcs flow was pushed along since the last reset
	mark   []uint32 // search stamp per vertex
	stamp  uint32
	via    []int32 // the arc a search reached each vertex by (pointing back at t)
	queue  []int32 // search queue; after a failed search, the closure of t

	// Closed-set enumeration state. state is free (0) for every vertex
	// between enumerations; trail lists the vertices fixed since then.
	state []int8
	trail []int32
	stack []int32
	free  []int32
	side  []uint64 // bitset of the vertices fixed out
}

const (
	sideFree int8 = iota
	sideIn        // with S: reachable from S
	sideOut       // with t: reaches t
)

var unitFlowPool = sync.Pool{New: func() any { return new(unitFlow) }}

// load builds g's arc arrays in place, growing the scratch only when g
// outsizes every graph this instance has seen before. Arcs are grouped by
// tail in edge-ID order, the order of g's adjacency lists.
func (f *unitFlow) load(g *Graph) {
	n, arcs := g.n, 2*len(g.edges)
	f.n = n
	f.first = grow(f.first, n+1)
	f.via = grow(f.via, n)
	f.mark = grow(f.mark, n)
	f.state = grow(f.state, n)
	f.side = grow(f.side, (n+63)/64)
	f.to = grow(f.to, arcs)
	f.rev = grow(f.rev, arcs)
	f.res = grow(f.res, arcs)
	f.first[0] = 0
	for v := 0; v < n; v++ {
		f.first[v+1] = f.first[v] + int32(len(g.adj[v]))
		f.via[v] = f.first[v] // fill cursor
	}
	for _, e := range g.edges {
		pu, pv := f.via[e.U], f.via[e.V]
		f.via[e.U]++
		f.via[e.V]++
		f.to[pu], f.to[pv] = int32(e.V), int32(e.U)
		f.rev[pu], f.rev[pv] = pv, pu
	}
	for a := range f.res {
		f.res[a] = 1
	}
	clear(f.mark)
	clear(f.state)
	clear(f.side)
	f.stamp = 0
	f.pushed = f.pushed[:0]
	f.trail = f.trail[:0]
}

// maxFlow returns the S–t flow for S = {0..t−1}, stopping at limit. When it
// returns less than limit the flow is maximum, and the last search's
// queue holds the residual closure of t.
//
//kecss:alloc-free
func (f *unitFlow) maxFlow(t int32, limit int) int {
	for _, a := range f.pushed {
		f.res[a], f.res[f.rev[a]] = 1, 1
	}
	f.pushed = f.pushed[:0]
	flow := 0
	for flow < limit && f.augment(t) {
		flow++
	}
	return flow
}

// augment searches backwards from t for a residual path from S and pushes
// one unit along it, reporting whether it found one.
//
//kecss:alloc-free
func (f *unitFlow) augment(t int32) bool {
	f.stamp++
	if f.stamp == 0 { // wrapped: old stamps could collide
		clear(f.mark)
		f.stamp = 1
	}
	stamp := f.stamp
	f.mark[t] = stamp
	q := append(f.queue[:0], t)
	for qi := 0; qi < len(q); qi++ {
		v := q[qi]
		for p := f.first[v]; p < f.first[v+1]; p++ {
			u := f.to[p]
			in := f.rev[p] // the arc u → v
			if f.mark[u] == stamp || f.res[in] == 0 {
				continue
			}
			f.mark[u] = stamp
			f.via[u] = in
			if u < t {
				f.queue = q
				for x := u; x != t; x = f.to[f.via[x]] {
					a := f.via[x]
					f.res[a]--
					f.res[f.rev[a]]++
					f.pushed = append(f.pushed, a)
				}
				return true
			}
			q = append(q, u)
		}
	}
	f.queue = q
	return false
}

// upTo returns min(λ(g), best) for g.n ≥ 2, given that every t below from
// has flow at least best, with g loaded. A t that no path reaches has flow
// 0, so a disconnected graph reports 0 without a separate connectivity
// pass.
func (f *unitFlow) upTo(from int32, best int) int {
	for t := from; int(t) < f.n && best > 0; t++ {
		best = min(best, f.maxFlow(t, best))
	}
	return best
}

// minCuts returns min(λ(g), size+1) for g.n ≥ 2, size ≥ 1, with g loaded,
// and calls visit for every closed set at every t whose flow is size.
// Each t's flow runs to size+1, so a flow of size is maximum; once one
// falls below size, λ < size and the rest of the pass only computes λ.
func (f *unitFlow) minCuts(g *Graph, size int, visit func(side []uint64)) int {
	if d := g.MinDegree(); d < size {
		return f.upTo(1, d)
	}
	best := size + 1
	for t := int32(1); int(t) < f.n; t++ {
		flow := f.maxFlow(t, size+1)
		if flow < size {
			return f.upTo(t+1, flow)
		}
		if flow == size {
			best = size
			f.enumerate(t, visit)
		}
	}
	return best
}

// enumerate calls visit once per closed set of the residual graph that
// contains S = {0..t−1} and not t, with the flow to t maximum and the
// failed search's queue holding the residual closure of t. The closure of
// t is fixed out and the residual closure of S fixed in; then each free
// vertex is branched on: in with everything it reaches, or out with
// everything that reaches it. Both branches always extend to a closed set
// (a free vertex neither reaches t nor is reached from S), so the branch
// tree has fewer inner nodes than leaves, and a branch's closure walks only
// the vertices it fixes. visit receives the out side, which never holds
// vertex 0.
func (f *unitFlow) enumerate(t int32, visit func(side []uint64)) {
	for _, v := range f.queue {
		f.fix(v, sideOut)
	}
	f.free = f.free[:0]
	for w := t + 1; int(w) < f.n; w++ {
		if f.state[w] != sideFree {
			continue
		}
		for p := f.first[w]; p < f.first[w+1]; p++ {
			if f.to[p] < t && f.res[f.rev[p]] > 0 {
				f.close(w, sideIn, t)
				break
			}
		}
		if f.state[w] == sideFree {
			f.free = append(f.free, w)
		}
	}
	f.branch(0, t, visit)
	f.undo(0)
}

// branch enumerates the closed sets that extend the current fixing, deciding
// f.free[i:] in order.
func (f *unitFlow) branch(i int, t int32, visit func(side []uint64)) {
	for i < len(f.free) && f.state[f.free[i]] != sideFree {
		i++
	}
	if i == len(f.free) {
		visit(f.side)
		return
	}
	v, mark := f.free[i], len(f.trail)
	f.close(v, sideIn, t)
	f.branch(i+1, t, visit)
	f.undo(mark)
	f.close(v, sideOut, t)
	f.branch(i+1, t, visit)
	f.undo(mark)
}

// close fixes v on side s together with every free vertex it reaches along
// residual arcs (s = sideIn) or that reaches it (s = sideOut). Vertices
// below t belong to S and are never free.
//
//kecss:alloc-free
func (f *unitFlow) close(v int32, s int8, t int32) {
	f.fix(v, s)
	stack := append(f.stack[:0], v)
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for p := f.first[x]; p < f.first[x+1]; p++ {
			y := f.to[p]
			if y < t || f.state[y] != sideFree {
				continue
			}
			a := p // x → y
			if s == sideOut {
				a = f.rev[p] // y → x
			}
			if f.res[a] > 0 {
				f.fix(y, s)
				stack = append(stack, y)
			}
		}
	}
	f.stack = stack
}

// fix puts v on side s and records it on the trail.
//
//kecss:alloc-free
func (f *unitFlow) fix(v int32, s int8) {
	f.state[v] = s
	if s == sideOut {
		f.side[v/64] |= 1 << uint(v%64)
	}
	f.trail = append(f.trail, v)
}

// undo frees every vertex fixed after the trail held mark entries.
//
//kecss:alloc-free
func (f *unitFlow) undo(mark int) {
	for _, v := range f.trail[mark:] {
		if f.state[v] == sideOut {
			f.side[v/64] &^= 1 << uint(v%64)
		}
		f.state[v] = sideFree
	}
	f.trail = f.trail[:mark]
}

// EachMinCut returns min(λ(g), size+1) for size ≥ 1 and, when that is size,
// calls visit exactly once per minimum cut of g, in no particular order.
// visit receives the cut's side without vertex 0 as a bitset (vertex v is
// bit v%64 of word v/64), valid only during the call. When the result is
// below size, visit may already have seen some size-edge cuts, which are
// not minimum; callers discard them. A graph with at most one vertex has
// no cuts and reports size+1.
//
// It runs the merged-source unit-flow pass of EdgeConnectivityUpTo with
// every flow taken to size+1, and at each t whose flow is size lists the
// residual graph's closed sets: O(n·size·m) for the flows in the worst
// case, plus O(m) per cut. The scratch comes from a package pool, so a
// warm call allocates only what visit does.
func (g *Graph) EachMinCut(size int, visit func(side []uint64)) int {
	if g.n <= 1 {
		return size + 1
	}
	f := unitFlowPool.Get().(*unitFlow)
	f.load(g)
	lam := f.minCuts(g, size, visit)
	unitFlowPool.Put(f)
	return lam
}
