// Package graph provides the undirected weighted multigraph substrate used
// by every algorithm in this repository: representation, traversals,
// connectivity tests (bridges, cut pairs, edge connectivity — by one linear
// DFS pass up to 3, by unit flows from a merged source above — and every
// minimum cut), and the graph generators used by the experiment harness.
//
// Vertices are dense integers 0..N-1. Edges carry non-negative integer
// weights, matching the paper's assumption that weights are integers
// polynomial in n (so a weight fits in an O(log n)-bit message).
//
//kecss:deterministic
package graph

import (
	"fmt"
	"sort"
)

// Edge is an undirected edge {U, V} with weight W. ID is the edge's index in
// Graph.Edges and is the canonical identity used throughout the repository
// (multigraphs are allowed, so endpoints alone do not identify an edge).
type Edge struct {
	ID int
	U  int
	V  int
	W  int64
}

// Other returns the endpoint of e that is not v. It panics if v is not an
// endpoint of e, since that always indicates a bug in the caller.
func (e Edge) Other(v int) int {
	switch v {
	case e.U:
		return e.V
	case e.V:
		return e.U
	default:
		panic(fmt.Sprintf("graph: vertex %d is not an endpoint of edge %d {%d,%d}", v, e.ID, e.U, e.V))
	}
}

// Arc is one direction of an undirected edge, as seen from a vertex's
// adjacency list.
type Arc struct {
	To   int // neighbouring vertex
	Edge int // ID of the underlying undirected edge
}

// Graph is an undirected weighted multigraph on vertices 0..N-1.
// The zero value is an empty graph with no vertices; use New to create a
// graph with a fixed vertex count.
type Graph struct {
	n     int
	edges []Edge
	adj   [][]Arc
}

// New returns an empty graph on n vertices.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Graph{n: n, adj: make([][]Arc, n)}
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return len(g.edges) }

// Edges returns the edge slice. Callers must not mutate it.
func (g *Graph) Edges() []Edge { return g.edges }

// Edge returns the edge with the given ID.
func (g *Graph) Edge(id int) Edge { return g.edges[id] }

// AddEdge adds an undirected edge {u, v} with weight w and returns its ID.
// Self-loops are rejected (they are never useful for connectivity and the
// paper's model excludes them); parallel edges are allowed.
func (g *Graph) AddEdge(u, v int, w int64) int {
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at vertex %d", u))
	}
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: edge {%d,%d} out of range [0,%d)", u, v, g.n))
	}
	if w < 0 {
		panic(fmt.Sprintf("graph: negative weight %d on edge {%d,%d}", w, u, v))
	}
	id := len(g.edges)
	g.edges = append(g.edges, Edge{ID: id, U: u, V: v, W: w})
	g.adj[u] = append(g.adj[u], Arc{To: v, Edge: id})
	g.adj[v] = append(g.adj[v], Arc{To: u, Edge: id})
	return id
}

// Adj returns the adjacency list of v. Callers must not mutate it.
func (g *Graph) Adj(v int) []Arc { return g.adj[v] }

// Degree returns the number of edges incident to v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// MinDegree returns the minimum vertex degree, or 0 for an empty graph.
func (g *Graph) MinDegree() int {
	if g.n == 0 {
		return 0
	}
	min := g.Degree(0)
	for v := 1; v < g.n; v++ {
		if d := g.Degree(v); d < min {
			min = d
		}
	}
	return min
}

// TotalWeight returns the sum of all edge weights.
func (g *Graph) TotalWeight() int64 {
	var sum int64
	for _, e := range g.edges {
		sum += e.W
	}
	return sum
}

// WeightOf returns the total weight of the edges whose IDs are in ids.
func (g *Graph) WeightOf(ids []int) int64 {
	var sum int64
	for _, id := range ids {
		sum += g.edges[id].W
	}
	return sum
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := New(g.n)
	c.edges = make([]Edge, len(g.edges))
	copy(c.edges, g.edges)
	for v := range g.adj {
		c.adj[v] = make([]Arc, len(g.adj[v]))
		copy(c.adj[v], g.adj[v])
	}
	return c
}

// SubgraphOf returns a new graph on the same vertex set containing only the
// edges of g whose IDs are listed in ids. Edge IDs are renumbered; the
// returned mapping gives, for each new edge ID, the original edge ID.
func (g *Graph) SubgraphOf(ids []int) (*Graph, []int) {
	sub := New(g.n)
	orig := make([]int, 0, len(ids))
	for _, id := range ids {
		e := g.edges[id]
		sub.AddEdge(e.U, e.V, e.W)
		orig = append(orig, id)
	}
	return sub, orig
}

// SubgraphWithout returns a new graph on the same vertex set containing all
// edges of g except those whose IDs appear in exclude.
func (g *Graph) SubgraphWithout(exclude map[int]bool) (*Graph, []int) {
	ids := make([]int, 0, len(g.edges))
	for _, e := range g.edges {
		if !exclude[e.ID] {
			ids = append(ids, e.ID)
		}
	}
	return g.SubgraphOf(ids)
}

// SortedEdgeIDsByWeight returns all edge IDs sorted by (weight, ID).
// The secondary key makes the order deterministic for multigraphs and is the
// lexicographic tie-breaking used to make MSTs unique.
func (g *Graph) SortedEdgeIDsByWeight() []int {
	ids := make([]int, len(g.edges))
	for i := range ids {
		ids[i] = i
	}
	sort.Slice(ids, func(a, b int) bool {
		ea, eb := g.edges[ids[a]], g.edges[ids[b]]
		if ea.W != eb.W {
			return ea.W < eb.W
		}
		return ea.ID < eb.ID
	})
	return ids
}

// String returns a short human-readable summary.
func (g *Graph) String() string {
	return fmt.Sprintf("graph(n=%d, m=%d, w=%d)", g.n, len(g.edges), g.TotalWeight())
}
