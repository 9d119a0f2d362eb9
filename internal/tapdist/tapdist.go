// Package tapdist is the message-level implementation of the per-iteration
// information flows of the paper's §3.1: given the segment decomposition
// and the current coverage state, it runs the actual CONGEST computations —
// the segment-internal pipelined ancestor/highway scans (Claims 3.1/3.2),
// the global dissemination of per-segment uncovered counts over a BFS tree,
// and the per-edge endpoint exchange — on the simulator, then computes
// every non-tree edge's |Ce| from exactly the information those flows
// delivered, via the paper's Case 1–3 analysis.
//
// internal/tap charges the per-iteration O(D+√n) cost from measured
// decomposition parameters; this package *measures* it. The test suite
// proves the distributed computation agrees with the direct tree-path count
// on every edge, and experiment E11 compares charged vs measured rounds.
//
//kecss:deterministic
package tapdist

import (
	"fmt"
	"sort"

	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/primitives"
	"repro/internal/segments"
	"repro/internal/tree"
)

const (
	kindAncestor int8 = iota + 60
	kindHighwayUp
	kindHighwayDown
	kindSummary
	kindPathStream
)

// pathItem is one (tree edge, covered) fact as shipped in messages.
type pathItem struct {
	edge    int
	covered bool
}

// vertexView is what a vertex has learned by the end of the information
// phases: its in-segment ancestor path and its home segment's highway, both
// with coverage bits (Claims 3.1/3.2).
type vertexView struct {
	up      []pathItem // P_{v,rS}: own parent edge first, rS-side last
	highway []pathItem // home segment's highway facts (order unimportant)
}

// Result is the outcome of one measured information phase.
type Result struct {
	// Ce maps every non-tree edge ID to its number of uncovered tree path
	// edges, as computed from the distributed information.
	Ce map[int]int64
	// Metrics accumulates the simulator cost of all phases.
	Metrics congest.Metrics
}

// ComputeCe runs the §3.1 information flows for one iteration over the
// decomposition dec, where covered[t] reports whether tree edge t is
// already covered, and returns |Ce| for every non-tree edge together with
// the measured cost. bfs is the global-communication BFS tree (built once
// per run by the caller; pass nil to have one built and its rounds counted).
func ComputeCe(g *graph.Graph, dec *segments.Decomposition, covered map[int]bool, bfs *tree.Rooted, opts ...congest.Option) (*Result, error) {
	res := &Result{Ce: make(map[int]int64)}
	if bfs == nil {
		built, m, err := primitives.BuildBFSTree(g, 0, opts...)
		if err != nil {
			return nil, fmt.Errorf("tapdist: BFS tree: %w", err)
		}
		accAdd(&res.Metrics, m)
		bfs = built
	}
	views := make([]vertexView, g.N())

	if err := runAncestorScan(g, dec, covered, views, &res.Metrics, opts); err != nil {
		return nil, err
	}
	if err := runHighwayScan(g, dec, covered, views, &res.Metrics, opts); err != nil {
		return nil, err
	}
	segUncov, err := runSegmentSummaries(g, dec, bfs, views, &res.Metrics, opts)
	if err != nil {
		return nil, err
	}
	if err := runExchangeAndCompute(g, dec, views, segUncov, res, opts); err != nil {
		return nil, err
	}
	return res, nil
}

func accAdd(dst *congest.Metrics, m congest.Metrics) {
	dst.Rounds += m.Rounds
	dst.Messages += m.Messages
	dst.Bits += m.Bits
}

func boolToInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// ---------------------------------------------------------------------------
// Phase 1: ancestor scan. Every vertex learns (edge, covered) for its
// in-segment path P_{v,rS} by pipelined push-down: an unmarked vertex
// forwards its facts to all children (which are in its segment); a marked
// vertex forwards nothing (its children's segment paths start fresh at it).
// ---------------------------------------------------------------------------

type ancestorProgram struct {
	tr     *tree.Rooted
	marked bool
	buf    []pathItem
	sent   int
	out    *[]pathItem
}

func (p *ancestorProgram) Init(ctx *congest.Context) { p.step(ctx) }

func (p *ancestorProgram) step(ctx *congest.Context) {
	if p.marked || p.sent >= len(p.buf) {
		p.sent = len(p.buf) // marked vertices never forward
		return
	}
	item := p.buf[p.sent]
	p.sent++
	for _, c := range p.tr.Children(ctx.Node()) {
		ctx.SendTo(c, congest.Payload{Kind: kindAncestor, A: int64(item.edge), B: boolToInt(item.covered)})
	}
}

func (p *ancestorProgram) Round(ctx *congest.Context, inbox []congest.Message) bool {
	for _, m := range inbox {
		if m.Kind == kindAncestor {
			p.buf = append(p.buf, pathItem{edge: int(m.A), covered: m.B != 0})
		}
	}
	p.step(ctx)
	*p.out = p.buf
	return p.sent == len(p.buf)
}

func runAncestorScan(g *graph.Graph, dec *segments.Decomposition, covered map[int]bool, views []vertexView, acc *congest.Metrics, opts []congest.Option) error {
	tr := dec.Tree
	net := congest.NewNetwork(g, func(v int) congest.Program {
		p := &ancestorProgram{tr: tr, marked: dec.Marked[v], out: &views[v].up}
		if v != tr.Root {
			te := tr.ParentEdge[v]
			p.buf = append(p.buf, pathItem{edge: te, covered: covered[te]})
		}
		return p
	}, opts...)
	m, err := net.Run(2*dec.MaxSegmentDiameter() + 8)
	if err != nil {
		return fmt.Errorf("tapdist: ancestor scan: %w", err)
	}
	accAdd(acc, m)
	return nil
}

// ---------------------------------------------------------------------------
// Phase 2: highway scan. Per segment, highway facts are pipelined up the
// highway to rS, which pipelines the complete list down the whole segment.
// All segments run in parallel (their edge sets are disjoint). Messages
// carry the segment ID so boundary vertices (members of several segments)
// can demultiplex.
// ---------------------------------------------------------------------------

type hwState struct {
	buf  []pathItem
	sent int
}

type highwayProgram struct {
	dec  *segments.Decomposition
	node int
	// Upcast state: facts still travelling to rS (only highway vertices).
	upParentEdge int // tree edge toward the highway parent, -1 if none
	upBuf        []pathItem
	upSent       int
	// Downcast state, per segment this vertex originates or forwards for.
	down      map[int]*hwState // segment ID -> broadcast progress
	downOrder []int            // sorted keys of down: sends iterate this, not the map
	expect    map[int]int      // segment ID -> highway length
	childEdge map[int][]int    // segment ID -> tree edges to children in it
	out       *[]pathItem      // facts of the home segment's highway
	homeSeg   int
}

func (p *highwayProgram) Init(ctx *congest.Context) {
	p.node = ctx.Node()
	p.step(ctx)
}

func (p *highwayProgram) step(ctx *congest.Context) {
	if p.upSent < len(p.upBuf) && p.upParentEdge != -1 {
		item := p.upBuf[p.upSent]
		p.upSent++
		ctx.Send(p.upParentEdge, congest.Payload{
			Kind: kindHighwayUp, A: int64(item.edge), B: boolToInt(item.covered),
		})
	}
	// Iterate the sorted key list: inboxes preserve each sender's send
	// order, so sending in map order would leak iteration order into the
	// receivers' buffers.
	for _, segID := range p.downOrder {
		st := p.down[segID]
		if st.sent >= len(st.buf) {
			continue
		}
		item := st.buf[st.sent]
		st.sent++
		for _, e := range p.childEdge[segID] {
			ctx.Send(e, congest.Payload{
				Kind: kindHighwayDown, A: int64(item.edge), B: boolToInt(item.covered), C: int64(segID),
			})
		}
	}
}

func (p *highwayProgram) Round(ctx *congest.Context, inbox []congest.Message) bool {
	for _, m := range inbox {
		switch m.Kind {
		case kindHighwayUp:
			item := pathItem{edge: int(m.A), covered: m.B != 0}
			segID := p.dec.SegOfEdge[m.Edge]
			if p.dec.Segments[segID].Root == p.node {
				// Facts reaching the segment root join its downcast buffer.
				p.down[segID].buf = append(p.down[segID].buf, item)
			} else {
				p.upBuf = append(p.upBuf, item)
			}
		case kindHighwayDown:
			segID := int(m.C)
			item := pathItem{edge: int(m.A), covered: m.B != 0}
			if st, ok := p.down[segID]; ok {
				st.buf = append(st.buf, item)
			}
			if segID == p.homeSeg {
				*p.out = append(*p.out, item)
			}
		}
	}
	p.step(ctx)
	done := p.upSent == len(p.upBuf)
	for segID, st := range p.down {
		if st.sent < len(st.buf) || len(st.buf) < p.expect[segID] {
			done = false
		}
	}
	return done
}

func runHighwayScan(g *graph.Graph, dec *segments.Decomposition, covered map[int]bool, views []vertexView, acc *congest.Metrics, opts []congest.Option) error {
	tr := dec.Tree
	// Static per-vertex segment topology (vertices know it from the
	// decomposition construction, Claim 3.1).
	childEdges := make([]map[int][]int, g.N())
	for v := range childEdges {
		childEdges[v] = map[int][]int{}
	}
	for v := 0; v < g.N(); v++ {
		if v == tr.Root {
			continue
		}
		te := tr.ParentEdge[v]
		segID := dec.SegOfEdge[te]
		p := tr.Parent[v]
		childEdges[p][segID] = append(childEdges[p][segID], te)
	}
	onHighway := make(map[int]int, g.N()) // vertex -> segment whose highway it sits on (as non-root)
	hwParentEdge := make([]int, g.N())
	for v := range hwParentEdge {
		hwParentEdge[v] = -1
	}
	for _, s := range dec.Segments {
		for i := 1; i < len(s.Highway); i++ {
			x := s.Highway[i]
			onHighway[x] = s.ID
			hwParentEdge[x] = tr.ParentEdge[x]
		}
	}
	rootsOf := make([][]int, g.N())
	for _, s := range dec.Segments {
		rootsOf[s.Root] = append(rootsOf[s.Root], s.ID)
	}

	maxHwy := 0
	for _, s := range dec.Segments {
		if len(s.HighwayEdges) > maxHwy {
			maxHwy = len(s.HighwayEdges)
		}
	}

	net := congest.NewNetwork(g, func(v int) congest.Program {
		p := &highwayProgram{
			dec:          dec,
			upParentEdge: -1,
			down:         map[int]*hwState{},
			expect:       map[int]int{},
			childEdge:    childEdges[v],
			out:          &views[v].highway,
			homeSeg:      dec.SegOfVertex[v],
		}
		if _, ok := onHighway[v]; ok {
			p.upParentEdge = hwParentEdge[v]
			te := tr.ParentEdge[v]
			p.upBuf = append(p.upBuf, pathItem{edge: te, covered: covered[te]})
		}
		// Forwarding state for every segment this vertex has children in,
		// plus the segments it roots (where the downcast originates).
		for segID := range childEdges[v] {
			p.down[segID] = &hwState{}
			p.expect[segID] = len(dec.Segments[segID].HighwayEdges)
		}
		for _, segID := range rootsOf[v] {
			if _, ok := p.down[segID]; !ok {
				p.down[segID] = &hwState{}
				p.expect[segID] = len(dec.Segments[segID].HighwayEdges)
			}
		}
		for segID := range p.down {
			p.downOrder = append(p.downOrder, segID)
		}
		sort.Ints(p.downOrder)
		return p
	}, opts...)
	m, err := net.Run(4*dec.MaxSegmentDiameter() + 2*maxHwy + 10)
	if err != nil {
		return fmt.Errorf("tapdist: highway scan: %w", err)
	}
	accAdd(acc, m)
	// Segment roots' own home-views do not include highways they root;
	// every member of a segment (including boundary vertices) needs the
	// home highway facts, which arrived per segment ID above. The root of a
	// segment serves as origin and holds the facts in down[segID].buf; it
	// is not a home member, so nothing further is needed.
	return nil
}

// ---------------------------------------------------------------------------
// Phase 3: segment summaries. Each segment root computes mS (uncovered
// highway edges) from the facts gathered in phase 2, the pairs (S, mS) are
// pipelined up the BFS tree and broadcast back down: O(D + #segments).
// ---------------------------------------------------------------------------

func runSegmentSummaries(g *graph.Graph, dec *segments.Decomposition, bfs *tree.Rooted, views []vertexView, acc *congest.Metrics, opts []congest.Option) (map[int]int64, error) {
	// mS computed at each root from its phase-2 buffers: equivalently, from
	// the highway facts (the root has them; we recompute from views of the
	// deepest highway vertex to stay within delivered information).
	items := make([][]int64, g.N())
	for _, s := range dec.Segments {
		var m int64
		if s.Root != s.Desc {
			// The facts were delivered in phase 2; the unique descendant dS
			// is always a home member holding the full highway view.
			for _, it := range views[s.Desc].highway {
				if !it.covered {
					m++
				}
			}
		}
		items[s.Root] = append(items[s.Root], int64(s.ID)<<20|m)
	}
	up, m1, err := primitives.Upcast(g, bfs, items, opts...)
	if err != nil {
		return nil, fmt.Errorf("tapdist: summary upcast: %w", err)
	}
	accAdd(acc, m1)
	down, m2, err := primitives.BroadcastMany(g, bfs, up, opts...)
	if err != nil {
		return nil, fmt.Errorf("tapdist: summary broadcast: %w", err)
	}
	accAdd(acc, m2)
	// All vertices received identical lists; decode once.
	segUncov := make(map[int]int64, len(dec.Segments))
	for _, enc := range down[0] {
		segUncov[int(enc>>20)] = enc & ((1 << 20) - 1)
	}
	return segUncov, nil
}

// ---------------------------------------------------------------------------
// Phase 4: endpoint exchange and local |Ce| computation (Cases 1–3).
// ---------------------------------------------------------------------------

// summary is what one endpoint sends across a non-tree edge in one message.
type summary struct {
	segID       int   // home segment
	uncovToRoot int64 // uncovered on P_{v,Mv} (0 if v is marked)
	uncovToDesc int64 // uncovered on P_{v,dS(home)} (0 if v is marked)
}

type exchangeProgram struct {
	mySummary   summary
	streamFor   map[int][]pathItem // edge ID -> path items to stream (same-home edges)
	streamOrder []int              // streamFor keys in adjacency order: sends iterate this
	streamSent  map[int]int
	gotSummary  map[int]summary    // edge ID -> other endpoint's summary
	gotPath     map[int][]pathItem // edge ID -> other endpoint's streamed path
	nonTree     []int              // incident non-tree edge IDs
	sentSum     bool
}

func (p *exchangeProgram) Init(ctx *congest.Context) {
	for _, e := range p.nonTree {
		ctx.Send(e, congest.Payload{
			Kind: kindSummary,
			A:    int64(p.mySummary.segID),
			B:    p.mySummary.uncovToRoot,
			C:    p.mySummary.uncovToDesc,
		})
	}
	p.sentSum = true
}

func (p *exchangeProgram) Round(ctx *congest.Context, inbox []congest.Message) bool {
	for _, m := range inbox {
		switch m.Kind {
		case kindSummary:
			p.gotSummary[m.Edge] = summary{segID: int(m.A), uncovToRoot: m.B, uncovToDesc: m.C}
		case kindPathStream:
			p.gotPath[m.Edge] = append(p.gotPath[m.Edge], pathItem{edge: int(m.A), covered: m.B != 0})
		}
	}
	done := true
	// Iterate the ordered key list: inboxes preserve each sender's send
	// order, so sending in map order would leak iteration order into the
	// receivers' gotPath buffers.
	for _, e := range p.streamOrder {
		items := p.streamFor[e]
		i := p.streamSent[e]
		if i < len(items) {
			done = false
			ctx.Send(e, congest.Payload{
				Kind: kindPathStream, A: int64(items[i].edge), B: boolToInt(items[i].covered),
			})
			p.streamSent[e] = i + 1
		}
	}
	return done
}

func runExchangeAndCompute(g *graph.Graph, dec *segments.Decomposition, views []vertexView, segUncov map[int]int64, res *Result, opts []congest.Option) error {
	tr := dec.Tree
	inTree := tr.IsTreeEdge()
	progs := make([]*exchangeProgram, g.N())
	net := congest.NewNetwork(g, func(v int) congest.Program {
		p := &exchangeProgram{
			mySummary:  makeSummary(dec, views, v),
			streamFor:  map[int][]pathItem{},
			streamSent: map[int]int{},
			gotSummary: map[int]summary{},
			gotPath:    map[int][]pathItem{},
		}
		for _, a := range g.Adj(v) {
			if inTree[a.Edge] {
				continue
			}
			p.nonTree = append(p.nonTree, a.Edge)
			// Same-home edges additionally stream the full ancestor path
			// (Case 1 needs it to locate the LCA).
			if dec.SegOfVertex[v] == dec.SegOfVertex[a.To] {
				p.streamFor[a.Edge] = views[v].up
				p.streamOrder = append(p.streamOrder, a.Edge)
			}
		}
		progs[v] = p
		return p
	}, opts...)
	m, err := net.Run(2*dec.MaxSegmentDiameter() + 8)
	if err != nil {
		return fmt.Errorf("tapdist: exchange: %w", err)
	}
	accAdd(&res.Metrics, m)

	// Local computation at the smaller endpoint of each non-tree edge.
	for _, e := range g.Edges() {
		if inTree[e.ID] {
			continue
		}
		u, v := e.U, e.V
		if v < u {
			u, v = v, u
		}
		pu := progs[u]
		other, ok := pu.gotSummary[e.ID]
		if !ok {
			return fmt.Errorf("tapdist: edge %d missing summary at vertex %d", e.ID, u)
		}
		ce, err := localCe(dec, views, segUncov, u, v, other, pu.gotPath[e.ID])
		if err != nil {
			return fmt.Errorf("tapdist: edge %d {%d,%d}: %w", e.ID, u, v, err)
		}
		res.Ce[e.ID] = ce
	}
	return nil
}

func makeSummary(dec *segments.Decomposition, views []vertexView, v int) summary {
	s := summary{segID: dec.SegOfVertex[v]}
	if dec.Marked[v] {
		return s // both paths are empty at a marked vertex
	}
	s.uncovToRoot = uncovCount(views[v].up)
	s.uncovToDesc = uncovPathToDesc(views[v])
	return s
}

func uncovCount(items []pathItem) int64 {
	var c int64
	for _, it := range items {
		if !it.covered {
			c++
		}
	}
	return c
}

// uncovPathToDesc computes the uncovered count of P_{v,dS}: the symmetric
// difference of P_{v,rS} and the highway (both end at rS).
func uncovPathToDesc(view vertexView) int64 {
	inUp := make(map[int]bool, len(view.up))
	for _, it := range view.up {
		inUp[it.edge] = true
	}
	var c int64
	for _, it := range view.up {
		if !onList(view.highway, it.edge) && !it.covered {
			c++
		}
	}
	for _, it := range view.highway {
		if !inUp[it.edge] && !it.covered {
			c++
		}
	}
	return c
}

func onList(items []pathItem, edge int) bool {
	for _, it := range items {
		if it.edge == edge {
			return true
		}
	}
	return false
}

// localCe evaluates the Case 1–3 analysis at endpoint u for edge {u,v},
// using only u's own view, v's exchanged summary (and streamed path for
// Case 1), the skeleton tree and the global segment summaries.
func localCe(dec *segments.Decomposition, views []vertexView, segUncov map[int]int64, u, v int, other summary, otherPath []pathItem) (int64, error) {
	homeU := dec.SegOfVertex[u]
	homeV := other.segID
	if homeU == homeV {
		// Case 1: same segment; LCA from the two ancestor paths (shared
		// rS-side suffix).
		mine := views[u].up
		shared := 0
		for shared < len(mine) && shared < len(otherPath) &&
			mine[len(mine)-1-shared].edge == otherPath[len(otherPath)-1-shared].edge {
			shared++
		}
		var c int64
		for _, it := range mine[:len(mine)-shared] {
			if !it.covered {
				c++
			}
		}
		for _, it := range otherPath[:len(otherPath)-shared] {
			if !it.covered {
				c++
			}
		}
		return c, nil
	}

	anchor := func(x, home int) int {
		if dec.Marked[x] {
			return x
		}
		return dec.Segments[home].Root
	}
	mu := anchor(u, homeU)
	mv := anchor(v, homeV)
	// The below-side entry point of an endpoint's segment: for an unmarked
	// vertex, its home segment's unique descendant; for a marked vertex, the
	// vertex itself (it is a skeleton vertex — its home names the segment it
	// is dS of, except for the tree root, whose home is a segment rooted at
	// it, so the override matters there).
	du, dv := u, v
	if !dec.Marked[u] {
		du = dec.Segments[homeU].Desc
	}
	if !dec.Marked[v] {
		dv = dec.Segments[homeV].Desc
	}
	myToRoot := int64(0)
	myToDesc := int64(0)
	if !dec.Marked[u] {
		myToRoot = uncovCount(views[u].up)
		myToDesc = uncovPathToDesc(views[u])
	}

	switch {
	case skelAncestorOf(dec, du, mv):
		// Case A: v lies below u's segment descendant du.
		sum, err := skelChainUncov(dec, segUncov, du, mv)
		if err != nil {
			return 0, err
		}
		return myToDesc + sum + other.uncovToRoot, nil
	case skelAncestorOf(dec, dv, mu):
		// Case B: u lies below v's segment descendant dv.
		sum, err := skelChainUncov(dec, segUncov, dv, mu)
		if err != nil {
			return 0, err
		}
		return other.uncovToDesc + sum + myToRoot, nil
	default:
		// General case: the path meets at the skeleton LCA of the anchors.
		path, err := dec.SkeletonPath(mu, mv)
		if err != nil {
			return 0, err
		}
		var sum int64
		for i := 0; i+1 < len(path); i++ {
			deeper := path[i]
			if dec.Tree.Depth[path[i+1]] > dec.Tree.Depth[deeper] {
				deeper = path[i+1]
			}
			sum += segUncov[dec.SegOfVertex[deeper]]
		}
		return myToRoot + sum + other.uncovToRoot, nil
	}
}

// skelAncestorOf reports whether marked vertex a is an ancestor (inclusive)
// of marked vertex b in the skeleton tree.
func skelAncestorOf(dec *segments.Decomposition, a, b int) bool {
	for x := b; ; {
		if x == a {
			return true
		}
		p, ok := dec.SkeletonParent[x]
		if !ok || p == -1 {
			return false
		}
		x = p
	}
}

// skelChainUncov sums the uncovered highway counts of the segments on the
// descending skeleton chain from ancestor a down to descendant b.
func skelChainUncov(dec *segments.Decomposition, segUncov map[int]int64, a, b int) (int64, error) {
	var sum int64
	for x := b; x != a; {
		sum += segUncov[dec.SegOfVertex[x]] // home of marked x = segment with dS = x
		p, ok := dec.SkeletonParent[x]
		if !ok || p == -1 {
			return 0, fmt.Errorf("tapdist: %d is not a skeleton descendant of %d", b, a)
		}
		x = p
	}
	return sum, nil
}
