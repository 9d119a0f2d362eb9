// Package cycles implements the cycle space sampling technique of Pritchard
// and Thurimella as used in Section 5 of the paper: random b-bit
// circulations assign each edge of a 2-edge-connected graph a label φ(e)
// such that, w.h.p., φ(e) = φ(f) iff {e,f} is a cut pair (a 2-edge cut).
// The labels are computed by a genuine O(height)-round leaf-to-root XOR scan
// on the CONGEST simulator, and support the cost-effectiveness counting of
// the paper's unweighted 3-ECSS algorithm (Claims 5.8–5.10).
//
// Two labeling front-ends share that scan:
//
//   - Labeling (ComputeLabels) is the one-shot form: it labels a fixed graph
//     once and answers queries against that snapshot. A Labeling is immutable
//     after ComputeLabels returns, so its per-label counts are computed once
//     and cached (NPhi), and its query methods reuse internal scratch —
//     which makes a single Labeling NOT safe for concurrent queries. Use one
//     Labeling per goroutine.
//
//   - Incremental (NewIncremental) is the growing form driving the §5
//     3-ECSS augmentation loop: the spanning tree and labels of the base
//     subgraph H are computed once (distributed, measured), and AddEdges
//     then activates candidate edges by sampling a fresh label for each and
//     XOR-ing it along the edge's fundamental-cycle tree path in
//     O(|added|·height) — no re-labeling of the whole subgraph. The
//     per-label counts n_φ and the Claim 5.10 termination predicate are
//     maintained under every update, so CoverCount and ThreeEdgeConnected
//     stay O(height) and O(1). Engines recycle their per-edge tables
//     through a package sync.Pool of Arenas: NewIncremental takes one and
//     Release returns it. See incremental.go for the engine's contract
//     (what the counts cover, the from-scratch reference scan, and the
//     Arena ownership rules).
//
//kecss:deterministic
package cycles

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/tree"
)

// Labeling holds the b-bit labels of every edge of a 2-edge-connected graph.
//
// A Labeling is immutable once ComputeLabels returns, but its query methods
// (NPhi, CoverCount, CoversPair, ThreeEdgeConnectedWith) share cached counts
// and path scratch, so a single Labeling must not be queried concurrently.
type Labeling struct {
	G    *graph.Graph
	Tree *tree.Rooted
	Bits int
	// Phi maps every edge ID of G to its label. Non-tree labels are the
	// sampled uniform bit strings; tree labels are the XOR of the non-tree
	// labels covering them.
	Phi map[int]uint64
	// Metrics is the simulator cost of the distributed label computation.
	Metrics congest.Metrics

	// nphi is the per-label edge count, built lazily on first use: the
	// labeling is immutable, so the counts never need invalidating.
	nphi map[uint64]int
	// pathBuf and onPath are query scratch (CoverCount runs once per
	// candidate edge per 3-ECSS iteration; allocating per call was an O(m²)
	// map storm on that path).
	pathBuf []int
	onPath  map[uint64]int64
}

const (
	kindShareLabel int8 = iota + 40
	kindXORUp
)

// ownedLabel is one (edge, label) announcement a label program makes in
// round 1.
type ownedLabel struct {
	edge  int
	label uint64
}

// labelProgram performs the distributed label computation of Lemma 5.5:
// round 1 exchanges the assigned non-tree labels across their edges; then a
// leaf-to-root convergecast computes φ({v,p(v)}) as the XOR of φ(f) for all
// f ∈ δ(v) \ {v,p(v)}.
type labelProgram struct {
	tr *tree.Rooted
	// nonTree holds the labels this node announces (it is the owner
	// endpoint), in the caller's owned-edge order: round-1 sends must not
	// depend on map iteration order, because inbox delivery preserves each
	// sender's send order.
	nonTree   []ownedLabel
	collected map[int]uint64 // all incident non-tree labels, learned round 1
	pending   int            // children not yet reported
	shared    bool
	sentUp    bool
	upLabel   uint64 // φ of the parent edge once computed
	acc       uint64
}

func (p *labelProgram) Init(ctx *congest.Context) {
	p.collected = make(map[int]uint64, len(ctx.Neighbors()))
	p.pending = len(p.tr.Children(ctx.Node()))
	for _, el := range p.nonTree {
		p.collected[el.edge] = el.label
		ctx.Send(el.edge, congest.Payload{Kind: kindShareLabel, A: int64(el.label)})
	}
	p.shared = true
}

func (p *labelProgram) Round(ctx *congest.Context, inbox []congest.Message) bool {
	for _, m := range inbox {
		switch m.Kind {
		case kindShareLabel:
			p.collected[m.Edge] = uint64(m.A)
		case kindXORUp:
			p.acc ^= uint64(m.A)
			p.pending--
		}
	}
	v := ctx.Node()
	if p.pending == 0 && !p.sentUp && v != p.tr.Root {
		p.sentUp = true
		label := p.acc
		for e, l := range p.collected {
			if e != p.tr.ParentEdge[v] {
				label ^= l
			}
		}
		p.upLabel = label
		ctx.Send(p.tr.ParentEdge[v], congest.Payload{Kind: kindXORUp, A: int64(label)})
	}
	return p.sentUp || v == p.tr.Root
}

// runLabelScan runs the distributed convergecast of Lemma 5.5 on host with
// pre-assigned non-tree labels: owned[v] lists the non-tree edge IDs whose
// label vertex v announces in round 1 (v must be an endpoint of each), and
// labelOf returns the label of an owned edge. Edges of host that appear in
// no owned list and in no tree ParentEdge carry no messages. A non-nil
// active marks the edges that do (a superset is fine), and the network is
// then built over those edges alone: that is how the Incremental engine
// scans its active subgraph in place, without sizing the simulator's
// buffers by the whole host. After the scan, progs[v].upLabel is
// φ(tr.ParentEdge[v]).
func runLabelScan(host *graph.Graph, tr *tree.Rooted, owned [][]int, labelOf func(edgeID int) uint64, active []bool, opts []congest.Option) ([]*labelProgram, congest.Metrics, error) {
	if active != nil {
		opts = append(slices.Clip(opts), congest.WithActiveEdges(active))
	}
	progs := make([]*labelProgram, host.N())
	net := congest.NewNetwork(host, func(v int) congest.Program {
		var nt []ownedLabel
		if len(owned[v]) > 0 {
			nt = make([]ownedLabel, 0, len(owned[v]))
			for _, e := range owned[v] {
				nt = append(nt, ownedLabel{edge: e, label: labelOf(e)})
			}
		}
		p := &labelProgram{tr: tr, nonTree: nt}
		progs[v] = p
		return p
	}, opts...)
	metrics, err := net.Run(tr.Height() + 4)
	if err != nil {
		return nil, metrics, fmt.Errorf("cycles: label scan did not quiesce: %w", err)
	}
	return progs, metrics, nil
}

// ComputeLabels samples a random b-bit circulation of g (which must be
// connected; 2-edge-connectedness is required for the cut-pair
// characterization, not for the computation) over the given spanning tree
// and returns the labels, running the distributed scan on the simulator.
// bits must be in [1, 64].
func ComputeLabels(g *graph.Graph, tr *tree.Rooted, bits int, rng *rand.Rand, opts ...congest.Option) (*Labeling, error) {
	if bits < 1 || bits > 64 {
		return nil, fmt.Errorf("cycles: bits must be in [1,64], got %d", bits)
	}
	if rng == nil {
		return nil, fmt.Errorf("cycles: rng is required")
	}
	mask := labelMask(bits)
	inTree := tr.IsTreeEdge()
	// Sample non-tree labels at the smaller endpoint (deterministic owner).
	owned := make([][]int, g.N())
	for _, e := range g.Edges() {
		if inTree[e.ID] {
			continue
		}
		o := e.U
		if e.V < o {
			o = e.V
		}
		owned[o] = append(owned[o], e.ID)
	}
	// Draw the labels in owner-vertex order — the same deterministic order
	// the network's sequential program construction used to draw them in.
	labels := make(map[int]uint64, g.M())
	for v := 0; v < g.N(); v++ {
		for _, e := range owned[v] {
			labels[e] = rng.Uint64() & mask
		}
	}
	progs, metrics, err := runLabelScan(g, tr, owned, func(e int) uint64 { return labels[e] }, nil, opts)
	if err != nil {
		return nil, err
	}
	for v := 0; v < g.N(); v++ {
		if v != tr.Root {
			labels[tr.ParentEdge[v]] = progs[v].upLabel
		}
	}
	return &Labeling{G: g, Tree: tr, Bits: bits, Phi: labels, Metrics: metrics}, nil
}

func labelMask(bits int) uint64 {
	if bits < 64 {
		return (1 << uint(bits)) - 1
	}
	return ^uint64(0)
}

// NPhi returns, per label value, the number of edges of G carrying it
// (the n_φ(t) quantities of §5.3). The map is computed once and cached —
// callers must not mutate it.
func (l *Labeling) NPhi() map[uint64]int {
	if l.nphi == nil {
		l.nphi = make(map[uint64]int, len(l.Phi))
		for _, lab := range l.Phi {
			l.nphi[lab]++
		}
	}
	return l.nphi
}

// CutPairs returns every unordered pair of edges with equal labels — by
// Property 5.1 exactly the cut pairs, w.h.p. in the label width. The order
// is a pure function of the labeling (groups by label value, ascending edge
// IDs within a group), never of map iteration.
func (l *Labeling) CutPairs() []graph.CutPair {
	ids := make([]int, 0, len(l.Phi))
	for id := 0; id < l.G.M(); id++ {
		if _, ok := l.Phi[id]; ok {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool {
		a, b := ids[i], ids[j]
		if l.Phi[a] != l.Phi[b] {
			return l.Phi[a] < l.Phi[b]
		}
		return a < b
	})
	var out []graph.CutPair
	for i := 0; i < len(ids); {
		j := i + 1
		for j < len(ids) && l.Phi[ids[j]] == l.Phi[ids[i]] {
			j++
		}
		for x := i; x < j; x++ {
			for y := x + 1; y < j; y++ {
				out = append(out, graph.CutPair{A: ids[x], B: ids[y]})
			}
		}
		i = j
	}
	return out
}

// ThreeEdgeConnectedWith reports whether the labeled graph is
// 3-edge-connected according to Claim 5.10: it is iff n_φ(t) = 1 for every
// tree edge t (no tree edge shares its label with any other edge).
// One-sided: a true answer is always correct; a false answer is correct
// w.h.p.
func (l *Labeling) ThreeEdgeConnectedWith() bool {
	nphi := l.NPhi()
	for v := 0; v < l.Tree.N(); v++ {
		if v == l.Tree.Root {
			continue
		}
		if nphi[l.Phi[l.Tree.ParentEdge[v]]] != 1 {
			return false
		}
	}
	return true
}

// CoverCount returns |S²_e| for a prospective new edge e = {u, v} ∉ G: the
// number of cut pairs of G that e covers, via Claim 5.8:
// Σ over labels L on the tree path u..v of n_{L,e}·(n_L − n_{L,e}).
func (l *Labeling) CoverCount(u, v int) int64 {
	nphi := l.NPhi()
	if l.onPath == nil {
		l.onPath = make(map[uint64]int64, 16)
	}
	clear(l.onPath)
	l.pathBuf = l.Tree.AppendPathEdges(l.pathBuf[:0], u, v)
	for _, t := range l.pathBuf {
		l.onPath[l.Phi[t]]++
	}
	var total int64
	for lab, ne := range l.onPath {
		total += ne * (int64(nphi[lab]) - ne)
	}
	return total
}

// CoversPair reports whether adding e = {u, v} covers the specific cut pair
// {f, f'}: by Corollary 5.7, iff exactly one of f, f' lies on the tree path
// of e.
func (l *Labeling) CoversPair(u, v int, pair graph.CutPair) bool {
	var onA, onB bool
	l.Tree.ForEachPathEdge(u, v, func(t int) {
		if t == pair.A {
			onA = true
		}
		if t == pair.B {
			onB = true
		}
	})
	return onA != onB
}
