package graph

// Test oracles: capped Dinic max-flow for λ, and Stoer–Wagner for the
// weighted global minimum cut. Neither runs outside tests; the production
// checks are the cutScanner pass (cap ≤ 3) and the unit-flow engine.

import "sync"

// dinicUpTo returns min(λ(g), capLimit) for g.n ≥ 2 and capLimit ≥ 1 by
// unit-capacity Dinic from vertex 0 to every other vertex, each max-flow
// stopped after capLimit augmenting paths: the oracle for
// EdgeConnectivityUpTo.
func (g *Graph) dinicUpTo(capLimit int) int {
	best := capLimit
	if d := g.MinDegree(); d < best {
		best = d
	}
	d := dinicPool.Get().(*dinic)
	d.reload(g)
	// An unreachable t yields flow 0, so disconnected graphs report 0
	// without a separate connectivity pre-pass.
	for t := 1; t < g.n && best > 0; t++ {
		if f := d.maxFlow(0, t, best); f < best {
			best = f
		}
	}
	dinicPool.Put(d)
	return best
}

// dinic is a unit-capacity max-flow structure over an undirected graph:
// every undirected edge becomes a pair of directed arcs with capacity 1 each
// (the standard reduction for edge connectivity). Instances are recycled
// through dinicPool and reloaded per graph, so the seven scratch slices are
// allocated once per pooled instance, not once per connectivity query.
type dinic struct {
	n     int
	head  []int
	next  []int
	to    []int
	cap   []int8
	level []int
	iter  []int
	queue []int
}

var dinicPool = sync.Pool{New: func() any { return new(dinic) }}

// reload rebuilds the arc arrays for g in place, growing the scratch slices
// only when g outsizes every graph this instance has seen before.
func (d *dinic) reload(g *Graph) {
	d.n = g.n
	arcs := 2 * g.M()
	d.head = grow(d.head, g.n)
	d.level = grow(d.level, g.n)
	d.iter = grow(d.iter, g.n)
	d.next = grow(d.next, arcs)
	d.to = grow(d.to, arcs)
	d.cap = grow(d.cap, arcs)
	for v := 0; v < g.n; v++ {
		d.head[v] = -1
	}
	a := 0
	addArc := func(u, v int) {
		d.to[a] = v
		d.next[a] = d.head[u]
		d.head[u] = a
		a++
	}
	for _, e := range g.Edges() {
		// Undirected unit edge: arc and reverse arc both have capacity 1.
		addArc(e.U, e.V)
		addArc(e.V, e.U)
	}
}

// reset restores all capacities to 1 (valid because the undirected reduction
// starts every arc at capacity 1).
//
//kecss:alloc-free
func (d *dinic) reset() {
	for i := range d.cap {
		d.cap[i] = 1
	}
	// Note: arcs are stored in (arc, reverse) pairs at indices (2i, 2i+1)...
	// for the undirected case both start at 1, so a flat reset is correct.
}

//kecss:alloc-free
func (d *dinic) bfs(s, t int) bool {
	for v := 0; v < d.n; v++ {
		d.level[v] = -1
	}
	d.level[s] = 0
	d.queue = append(d.queue[:0], s)
	for qi := 0; qi < len(d.queue); qi++ {
		v := d.queue[qi]
		for a := d.head[v]; a != -1; a = d.next[a] {
			if d.cap[a] > 0 && d.level[d.to[a]] == -1 {
				d.level[d.to[a]] = d.level[v] + 1
				d.queue = append(d.queue, d.to[a])
			}
		}
	}
	return d.level[t] != -1
}

//kecss:alloc-free
func (d *dinic) dfs(v, t int) bool {
	if v == t {
		return true
	}
	for ; d.iter[v] != -1; d.iter[v] = d.next[d.iter[v]] {
		a := d.iter[v]
		u := d.to[a]
		if d.cap[a] > 0 && d.level[u] == d.level[v]+1 && d.dfs(u, t) {
			d.cap[a]--
			d.cap[a^1]++
			return true
		}
	}
	return false
}

// maxFlow computes the s→t max flow, stopping early once it reaches limit.
//
//kecss:alloc-free
func (d *dinic) maxFlow(s, t, limit int) int {
	d.reset()
	flow := 0
	for flow < limit && d.bfs(s, t) {
		copy(d.iter, d.head)
		for flow < limit && d.dfs(s, t) {
			flow++
		}
	}
	return flow
}

// GlobalMinCutWeight returns the weight of a global minimum weight edge cut
// using the Stoer–Wagner algorithm in O(n³). Used as an oracle in tests.
// The graph must be connected and have at least 2 vertices.
func (g *Graph) GlobalMinCutWeight() int64 {
	n := g.n
	if n < 2 {
		panic("graph: GlobalMinCutWeight needs at least 2 vertices")
	}
	// Dense weight matrix; parallel edges accumulate.
	w := make([][]int64, n)
	for i := range w {
		w[i] = make([]int64, n)
	}
	for _, e := range g.edges {
		w[e.U][e.V] += e.W
		w[e.V][e.U] += e.W
	}
	active := make([]int, n)
	for i := range active {
		active[i] = i
	}
	const inf = int64(1) << 62
	best := inf
	for len(active) > 1 {
		// Maximum adjacency (minimum cut phase).
		inA := make([]bool, n)
		weightTo := make([]int64, n)
		var prev, last int
		for i := 0; i < len(active); i++ {
			sel := -1
			for _, v := range active {
				if !inA[v] && (sel == -1 || weightTo[v] > weightTo[sel]) {
					sel = v
				}
			}
			inA[sel] = true
			if i == len(active)-1 {
				if weightTo[sel] < best {
					best = weightTo[sel]
				}
				// Merge last into prev.
				last = sel
				for _, v := range active {
					if v != last && v != prev {
						w[prev][v] += w[last][v]
						w[v][prev] = w[prev][v]
					}
				}
				// Remove last from active.
				out := active[:0]
				for _, v := range active {
					if v != last {
						out = append(out, v)
					}
				}
				active = out
				break
			}
			prev = sel
			for _, v := range active {
				if !inA[v] {
					weightTo[v] += w[sel][v]
				}
			}
		}
	}
	return best
}
