// Package wire defines the canonical over-the-wire representations of this
// repository's graphs and solve requests: a JSON form for the HTTP API, a
// compact deterministic binary form used for content addressing, and the
// SHA-256 digests derived from them.
//
// Two digests matter operationally:
//
//   - Digest(g, spec) is the content key of a solve: it hashes the canonical
//     binary encoding of the graph together with every solver-visible knob
//     (solver, k, seed, executor-independent options). Two requests with the
//     same Digest are guaranteed to produce byte-identical results, so the
//     serving layer (internal/server) uses it as its cache key.
//   - ResultDigest hashes a sweep's visible outcome (edge sets, weights,
//     rounds, errors). It is the byte-identity check shared by
//     cmd/kecss-bench's -compare mode, internal/server's result_digest
//     response field, and cmd/kecss-load's end-to-end verification — all
//     three use this one function, so they can never drift.
//
// The binary graph encoding is canonical in the strict sense: it is a pure
// function of the graph (vertex count, then edges in ID order as
// uvarint-packed (u, v, w) triples). Edge insertion order is part of a
// graph's identity here because edge IDs are the repository-wide canonical
// edge identity (results are edge-ID sets), so two graphs with the same edge
// set but different insertion orders are deliberately distinct.
package wire

import (
	"encoding/binary"
	"fmt"

	"repro/internal/graph"
)

// binaryMagic versions the canonical binary graph encoding. Bump it if the
// encoding ever changes shape, so stale digests cannot collide with new ones.
const binaryMagic = "kwf1"

// AppendGraph appends the canonical binary encoding of g to dst and returns
// the extended slice: the magic, then uvarint(n), uvarint(m), then each edge
// in ID order as uvarint(u), uvarint(v), uvarint(w).
func AppendGraph(dst []byte, g *graph.Graph) []byte {
	dst = append(dst, binaryMagic...)
	var buf [binary.MaxVarintLen64]byte
	put := func(x uint64) {
		n := binary.PutUvarint(buf[:], x)
		dst = append(dst, buf[:n]...)
	}
	put(uint64(g.N()))
	put(uint64(g.M()))
	for _, e := range g.Edges() {
		put(uint64(e.U))
		put(uint64(e.V))
		put(uint64(e.W))
	}
	return dst
}

// EncodeGraph returns the canonical binary encoding of g.
func EncodeGraph(g *graph.Graph) []byte {
	// 3 varints per edge, usually 1-2 bytes each on the graphs we serve.
	return AppendGraph(make([]byte, 0, len(binaryMagic)+10+6*g.M()), g)
}

// DecodeGraph parses a canonical binary encoding back into a graph,
// validating the same invariants as GraphJSON.ToGraph.
func DecodeGraph(b []byte) (*graph.Graph, error) {
	if len(b) < len(binaryMagic) || string(b[:len(binaryMagic)]) != binaryMagic {
		return nil, fmt.Errorf("wire: bad magic, not a canonical graph encoding")
	}
	b = b[len(binaryMagic):]
	next := func(what string) (uint64, error) {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return 0, fmt.Errorf("wire: truncated encoding reading %s", what)
		}
		if n > 1 && b[n-1] == 0 {
			// A zero final byte pads the varint: not the canonical form.
			return 0, fmt.Errorf("wire: non-minimal varint reading %s", what)
		}
		b = b[n:]
		return x, nil
	}
	n, err := next("vertex count")
	if err != nil {
		return nil, err
	}
	m, err := next("edge count")
	if err != nil {
		return nil, err
	}
	// Every edge takes at least 3 bytes, so m is bounded by the input, and
	// checkSize bounds n by m before anything is allocated.
	if m > uint64(len(b))/3 {
		return nil, fmt.Errorf("wire: %d edges cannot fit in %d bytes", m, len(b))
	}
	if err := checkSize(n, m); err != nil {
		return nil, err
	}
	g := graph.New(int(n))
	for i := uint64(0); i < m; i++ {
		u, err := next("edge endpoint")
		if err != nil {
			return nil, err
		}
		v, err := next("edge endpoint")
		if err != nil {
			return nil, err
		}
		w, err := next("edge weight")
		if err != nil {
			return nil, err
		}
		if err := checkEdge(int(n), int64(u), int64(v), int64(w)); err != nil {
			return nil, fmt.Errorf("wire: edge %d: %w", i, err)
		}
		g.AddEdge(int(u), int(v), int64(w))
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes after %d edges", len(b), m)
	}
	return g, nil
}

// GraphJSON is the JSON wire form of a graph: {"n": N, "edges": [[u,v,w],...]}.
// Edge order in the array is the edge-ID order and is part of the graph's
// identity (results are edge-ID sets).
type GraphJSON struct {
	N     int        `json:"n"`
	Edges [][3]int64 `json:"edges"`
}

// GraphToJSON converts a graph to its JSON wire form.
func GraphToJSON(g *graph.Graph) *GraphJSON {
	gj := &GraphJSON{N: g.N(), Edges: make([][3]int64, g.M())}
	for i, e := range g.Edges() {
		gj.Edges[i] = [3]int64{int64(e.U), int64(e.V), e.W}
	}
	return gj
}

// ToGraph converts the JSON wire form back into a graph, validating the
// vertex count (see checkSize) and every edge (endpoints in range, no
// self-loops, non-negative weights) so that malformed network input returns
// an error instead of panicking or allocating without bound.
func (gj *GraphJSON) ToGraph() (*graph.Graph, error) {
	if gj.N < 0 {
		return nil, fmt.Errorf("wire: negative vertex count %d", gj.N)
	}
	if err := checkSize(uint64(gj.N), uint64(len(gj.Edges))); err != nil {
		return nil, err
	}
	g := graph.New(gj.N)
	for i, e := range gj.Edges {
		u, v, w := e[0], e[1], e[2]
		if err := checkEdge(gj.N, u, v, w); err != nil {
			return nil, fmt.Errorf("wire: edge %d: %w", i, err)
		}
		g.AddEdge(int(u), int(v), w)
	}
	return g, nil
}

// checkSize bounds the vertex count by the edge count, which the input's
// own length bounds: n <= m+1. A graph with more vertices is disconnected,
// so no solver can succeed on it, and the bound keeps a short request from
// allocating per-vertex state for a huge n.
func checkSize(n, m uint64) error {
	if n > m+1 {
		return fmt.Errorf("wire: %d vertices cannot be connected by %d edges", n, m)
	}
	return nil
}

func checkEdge(n int, u, v, w int64) error {
	if u < 0 || u >= int64(n) || v < 0 || v >= int64(n) {
		return fmt.Errorf("endpoint {%d,%d} out of range [0,%d)", u, v, n)
	}
	if u == v {
		return fmt.Errorf("self-loop at vertex %d", u)
	}
	if w < 0 {
		return fmt.Errorf("negative weight %d", w)
	}
	return nil
}
