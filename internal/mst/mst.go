// Package mst provides minimum-spanning-tree computation: a sequential
// Kruskal oracle and a distributed Borůvka/GHS-style algorithm running on
// the CONGEST simulator.
//
// The paper builds its MSTs with Kutten–Peleg (O(D+√n·log*n) rounds). That
// algorithm's minimum k-dominating-set machinery is out of scope here; the
// distributed Borůvka below is the classic O((D+F)·log n)-round alternative
// that produces the *identical* tree under (weight, edgeID) lexicographic
// tie-breaking, so every structure built on top of the MST (fragments,
// segments, TAP) is exactly the one the paper's pipeline would see. Headline
// round accounting for the theorems charges the Kutten–Peleg bound via
// internal/rounds (see DESIGN.md, substitutions).
//
// The simulation's bookkeeping is flat: a fragment's ID is its root vertex
// ID, so per-fragment tables are slices indexed by vertex, per-edge tables
// are slices indexed by edge ID, and each network's programs come from one
// slice reused by every phase. All networks of one solve run over the same
// graph, so a goroutine that gets its arena back from the simulator's pool
// builds the port topology once.
//
//kecss:deterministic
package mst

import (
	"fmt"

	"repro/internal/congest"
	"repro/internal/graph"
)

// Kruskal returns the edge IDs and total weight of the minimum spanning
// tree under (weight, edgeID) lexicographic order. With that tie-break all
// edge weights are effectively distinct, so the MST is unique — this is the
// verification oracle for the distributed algorithm.
func Kruskal(g *graph.Graph) ([]int, int64) {
	uf := graph.NewUnionFind(g.N())
	ids := g.SortedEdgeIDsByWeight()
	out := make([]int, 0, g.N()-1)
	var weight int64
	for _, id := range ids {
		e := g.Edge(id)
		if uf.Union(e.U, e.V) {
			out = append(out, id)
			weight += e.W
		}
	}
	return out, weight
}

// Result is the outcome of the distributed MST computation.
type Result struct {
	EdgeIDs []int           // MST edge IDs
	Weight  int64           // total MST weight
	Phases  int             // Borůvka phases executed
	Metrics congest.Metrics // accumulated simulator cost
}

// edgeKey orders edges by (weight, ID): the effective distinct-weight order.
type edgeKey struct {
	w  int64
	id int64
}

func (k edgeKey) less(o edgeKey) bool {
	if k.w != o.w {
		return k.w < o.w
	}
	return k.id < o.id
}

var infKey = edgeKey{w: 1 << 62, id: 1 << 62}

// DistributedBoruvka computes the MST by synchronous Borůvka phases where
// every inter-node data movement is performed by message-passing programs on
// the simulator:
//
//  1. each node exchanges its fragment ID with its neighbours (1 round);
//  2. each fragment convergecasts its minimum-weight outgoing edge (MWOE)
//     up its fragment tree and broadcasts the winner back down;
//  3. chosen MWOEs are announced across to the other endpoint;
//  4. merged clusters agree on their new fragment ID (min old ID) by
//     flooding restricted to fragment-tree ∪ MWOE edges, then re-root their
//     fragment tree by a restricted BFS from the new ID's vertex.
//
// Metrics accumulate over all sub-runs. O(log n) phases.
func DistributedBoruvka(g *graph.Graph, opts ...congest.Option) (*Result, error) {
	n := g.N()
	if n == 0 {
		return &Result{}, nil
	}
	st := newBoruvkaState(g, opts)
	res := &Result{}
	fragments := n
	for fragments > 1 {
		res.Phases++
		if res.Phases > 2*bitLen(n)+2 {
			return nil, fmt.Errorf("mst: Borůvka exceeded %d phases (bug)", res.Phases)
		}
		merged, err := st.phase(&res.Metrics)
		if err != nil {
			return nil, err
		}
		if merged == 0 {
			return nil, fmt.Errorf("mst: no merges with %d fragments left (disconnected graph?)", fragments)
		}
		fragments -= merged
	}
	res.EdgeIDs = st.mstEdges
	for _, id := range res.EdgeIDs {
		res.Weight += g.Edge(id).W
	}
	return res, nil
}

func bitLen(n int) int {
	b := 0
	for n > 0 {
		b++
		n >>= 1
	}
	return b
}

// boruvkaState holds the global view the simulation maintains between
// phases: each entry is per-vertex local knowledge (its fragment ID and its
// parent within the fragment tree), mirrored here so successive network runs
// can be parameterized by it.
//
// A fragment's ID is the vertex ID of its root: initially every vertex is
// its own root, and a merged cluster takes the minimum old fragment ID and is
// re-rooted at that vertex. So fragID[v] == v exactly at the roots, and every
// per-fragment table is a plain slice indexed by vertex ID.
//
// The remaining fields are scratch reused by every phase, so a solve
// allocates them once: per-edge tables are indexed by edge ID, and each
// network's programs live in one slice.
type boruvkaState struct {
	g          *graph.Graph
	fragID     []int
	parent     []int // parent within fragment tree, -1 at fragment root
	parentEdge []int
	mstEdges   []int
	opts       []congest.Option

	heard       []int     // 2m: fragment ID heard over each edge, see heardSlot
	localBest   []edgeKey // per vertex: its own minimum outgoing edge
	children    []int     // per vertex: children in its fragment tree
	mwoe        []edgeKey // per fragment ID: the fragment's MWOE, infKey if none
	clusterEdge []bool    // per edge: in a fragment tree or a chosen MWOE

	exchangeProgs []fragExchangeProgram
	mwoeProgs     []mwoeProgram
	minProgs      []restrictedMinProgram
	bfsProgs      []restrictedBFSProgram
}

func newBoruvkaState(g *graph.Graph, opts []congest.Option) *boruvkaState {
	n, m := g.N(), g.M()
	st := &boruvkaState{
		g:             g,
		fragID:        make([]int, n),
		parent:        make([]int, n),
		parentEdge:    make([]int, n),
		opts:          opts,
		heard:         make([]int, 2*m),
		localBest:     make([]edgeKey, n),
		children:      make([]int, n),
		mwoe:          make([]edgeKey, n),
		clusterEdge:   make([]bool, m),
		exchangeProgs: make([]fragExchangeProgram, n),
		mwoeProgs:     make([]mwoeProgram, n),
		minProgs:      make([]restrictedMinProgram, n),
		bfsProgs:      make([]restrictedBFSProgram, n),
	}
	for v := 0; v < n; v++ {
		st.fragID[v] = v
		st.parent[v] = -1
		st.parentEdge[v] = -1
	}
	return st
}

// fragments returns the number of fragments: one per root, the one vertex
// whose fragment ID is its own.
func (st *boruvkaState) fragments() int {
	c := 0
	for v, f := range st.fragID {
		if f == v {
			c++
		}
	}
	return c
}

// phase runs one Borůvka phase, returns the number of fragment merges.
func (st *boruvkaState) phase(acc *congest.Metrics) (int, error) {
	before := st.fragments()

	// Step 1+2: fragment-ID exchange, then MWOE convergecast + broadcast on
	// the fragment forest.
	if err := st.findMWOEs(acc); err != nil {
		return 0, err
	}
	chosen := 0
	for _, k := range st.mwoe {
		if k != infKey {
			chosen++
		}
	}
	if chosen == 0 {
		return 0, nil
	}
	// Step 3 happens implicitly: both endpoints of a chosen edge learn it
	// in the cluster-flood below because chosen edges are part of the flood
	// edge set that both endpoints are told about. For edge accounting we
	// charge one extra round for the cross-edge announcement.
	acc.Rounds++
	acc.Messages += int64(chosen)
	acc.Bits += int64(chosen) * int64(congest.Payload{}.Bits())

	// Step 4a: clusters (fragment trees + new MWOE edges) agree on min
	// fragment ID by restricted flooding. A chosen MWOE leaves its fragment,
	// so it is never a tree edge: clusterEdge also de-duplicates an edge
	// chosen by both its fragments, and the phase's new MST edges are
	// appended in fragment-ID order.
	clear(st.clusterEdge)
	for _, e := range st.parentEdge {
		if e != -1 {
			st.clusterEdge[e] = true
		}
	}
	for _, k := range st.mwoe {
		if id := int(k.id); k != infKey && !st.clusterEdge[id] {
			st.clusterEdge[id] = true
			st.mstEdges = append(st.mstEdges, id)
		}
	}
	if err := st.minFloodRestricted(acc); err != nil {
		return 0, err
	}

	// Step 4b: re-root each cluster at the vertex whose ID equals the new
	// cluster ID by a restricted BFS.
	if err := st.bfsRestricted(acc); err != nil {
		return 0, err
	}
	return before - st.fragments(), nil
}

// heardSlot is the index into boruvkaState.heard of what vertex v heard over
// edge e from neighbour u: 2e at e's lower-ID endpoint, 2e+1 at the higher.
// Each slot has exactly one writer, the receiving node.
func heardSlot(e, v, u int) int {
	if v > u {
		return 2*e + 1
	}
	return 2 * e
}

// findMWOEs fills st.mwoe with each fragment's minimum outgoing edge key. It
// runs two network programs: one exchange round so every node learns
// neighbour fragment IDs, then convergecast+broadcast on fragment trees.
func (st *boruvkaState) findMWOEs(acc *congest.Metrics) error {
	g := st.g
	n := g.N()
	// Exchange round: every node learns the fragment ID across each edge.
	for i := range st.heard {
		st.heard[i] = -1
	}
	net := congest.NewNetwork(g, func(v int) congest.Program {
		p := &st.exchangeProgs[v]
		*p = fragExchangeProgram{fragID: int64(st.fragID[v]), heard: st.heard}
		return p
	}, st.opts...)
	m, err := net.Run(3)
	if err != nil {
		return fmt.Errorf("mst: fragment exchange: %w", err)
	}
	accAdd(acc, m)

	// Local MWOE candidate per node.
	for v := 0; v < n; v++ {
		best := infKey
		for _, a := range g.Adj(v) {
			of := st.heard[heardSlot(a.Edge, v, a.To)]
			if of == -1 {
				return fmt.Errorf("mst: missing fragment id on edge %d at vertex %d", a.Edge, v)
			}
			if of == st.fragID[v] {
				continue
			}
			k := edgeKey{w: g.Edge(a.Edge).W, id: int64(a.Edge)}
			if k.less(best) {
				best = k
			}
		}
		st.localBest[v] = best
	}

	// Convergecast min edgeKey up fragment trees, then broadcast winner.
	clear(st.children)
	for u := 0; u < n; u++ {
		if st.parent[u] != -1 {
			st.children[st.parent[u]]++
		}
	}
	net2 := congest.NewNetwork(g, func(v int) congest.Program {
		p := &st.mwoeProgs[v]
		*p = mwoeProgram{
			parent:     st.parent[v],
			parentEdge: st.parentEdge[v],
			pending:    st.children[v],
			best:       st.localBest[v],
		}
		return p
	}, st.opts...)
	m2, err := net2.Run(n + 3)
	if err != nil {
		return fmt.Errorf("mst: MWOE convergecast: %w", err)
	}
	accAdd(acc, m2)
	for v := 0; v < n; v++ {
		st.mwoe[v] = infKey
		if st.parent[v] == -1 { // fragment root, fragID[v] == v
			st.mwoe[v] = st.mwoeProgs[v].best
		}
	}
	return nil
}

func accAdd(acc *congest.Metrics, m congest.Metrics) {
	acc.Rounds += m.Rounds
	acc.Messages += m.Messages
	acc.Bits += m.Bits
}

// fragExchangeProgram: every node announces its fragment ID on all edges and
// records what it hears in its own slots of the shared heard table.
type fragExchangeProgram struct {
	fragID int64
	heard  []int
}

func (p *fragExchangeProgram) Init(ctx *congest.Context) {
	ctx.Broadcast(congest.Payload{Kind: 11, A: p.fragID})
}

func (p *fragExchangeProgram) Round(_ *congest.Context, inbox []congest.Message) bool {
	for _, m := range inbox {
		if m.Kind == 11 {
			p.heard[heardSlot(m.Edge, m.To, m.From)] = int(m.A)
		}
	}
	return true
}

// mwoeProgram convergecasts the minimum edgeKey up a fragment tree. A leaf
// (pending == 0) sends immediately; internal nodes wait for all children.
// After the root decides, no broadcast back down is needed by the simulation
// itself (the global driver reads the root's result and the following
// cluster flood informs everyone), but we keep the message count honest by
// having the root's decision flow through the subsequent restricted flood.
//
// Round always reports done: a node waiting for children has nothing to do
// until their mail wakes it. Round counts do not depend on this, since
// while a node waits some report is in flight in its subtree.
type mwoeProgram struct {
	parent     int
	parentEdge int
	pending    int
	best       edgeKey
	sentUp     bool
}

func (p *mwoeProgram) Init(*congest.Context) {}

func (p *mwoeProgram) Round(ctx *congest.Context, inbox []congest.Message) bool {
	for _, m := range inbox {
		if m.Kind == 12 {
			k := edgeKey{w: m.A, id: m.B}
			if k.less(p.best) {
				p.best = k
			}
			p.pending--
		}
	}
	if p.pending == 0 && !p.sentUp {
		p.sentUp = true
		if p.parent != -1 {
			ctx.Send(p.parentEdge, congest.Payload{Kind: 12, A: p.best.w, B: p.best.id})
		}
	}
	return true
}

// minFloodRestricted floods the minimum fragment ID over the subgraph of
// cluster edges and makes each vertex's cluster minimum its fragment ID.
func (st *boruvkaState) minFloodRestricted(acc *congest.Metrics) error {
	g := st.g
	net := congest.NewNetwork(g, func(v int) congest.Program {
		p := &st.minProgs[v]
		*p = restrictedMinProgram{allowed: st.clusterEdge, best: int64(st.fragID[v])}
		return p
	}, st.opts...)
	m, err := net.Run(2*g.N() + 4)
	if err != nil {
		return fmt.Errorf("mst: cluster min flood: %w", err)
	}
	accAdd(acc, m)
	for v := range st.fragID {
		st.fragID[v] = int(st.minProgs[v].best)
	}
	return nil
}

type restrictedMinProgram struct {
	allowed   []bool // per edge ID
	best      int64
	announced int64
	started   bool
}

func (p *restrictedMinProgram) Init(*congest.Context) { p.announced = -1 }

func (p *restrictedMinProgram) Round(ctx *congest.Context, inbox []congest.Message) bool {
	improved := !p.started
	p.started = true
	for _, m := range inbox {
		if m.Kind == 13 && m.A < p.best {
			p.best = m.A
			improved = true
		}
	}
	if improved && p.announced != p.best {
		p.announced = p.best
		for _, nb := range ctx.Neighbors() {
			if p.allowed[nb.Edge] {
				ctx.Send(nb.Edge, congest.Payload{Kind: 13, A: p.best})
			}
		}
		return false
	}
	return true
}

// bfsRestricted runs a BFS over the cluster edges, rooted at every vertex v
// with fragID[v] == v, and makes the BFS tree each cluster's fragment tree.
func (st *boruvkaState) bfsRestricted(acc *congest.Metrics) error {
	g := st.g
	net := congest.NewNetwork(g, func(v int) congest.Program {
		p := &st.bfsProgs[v]
		*p = restrictedBFSProgram{allowed: st.clusterEdge, isRoot: st.fragID[v] == v}
		return p
	}, st.opts...)
	m, err := net.Run(2*g.N() + 4)
	if err != nil {
		return fmt.Errorf("mst: cluster BFS: %w", err)
	}
	accAdd(acc, m)
	for v := range st.parent {
		p := &st.bfsProgs[v]
		if !p.joined {
			return fmt.Errorf("mst: vertex %d not reached by cluster BFS", v)
		}
		st.parent[v] = p.parent
		st.parentEdge[v] = p.parentEdge
	}
	return nil
}

// restrictedBFSProgram joins the cluster BFS tree through the lowest-ID
// cluster edge its first wave of mail arrives on, then sends the wave on.
// Round always reports done: a node not yet joined has nothing to do until
// the wave wakes it, and while it waits the wave is in flight.
type restrictedBFSProgram struct {
	allowed    []bool // per edge ID
	isRoot     bool
	joined     bool
	parent     int
	parentEdge int
	sent       bool
}

func (p *restrictedBFSProgram) Init(ctx *congest.Context) {
	p.parent = -1
	p.parentEdge = -1
	if p.isRoot {
		p.joined = true
		p.send(ctx)
	}
}

func (p *restrictedBFSProgram) send(ctx *congest.Context) {
	p.sent = true
	for _, nb := range ctx.Neighbors() {
		if p.allowed[nb.Edge] {
			ctx.Send(nb.Edge, congest.Payload{Kind: 14})
		}
	}
}

func (p *restrictedBFSProgram) Round(ctx *congest.Context, inbox []congest.Message) bool {
	if !p.joined {
		best := -1
		for i, m := range inbox {
			if m.Kind != 14 || !p.allowed[m.Edge] {
				continue
			}
			if best == -1 || m.Edge < inbox[best].Edge {
				best = i
			}
		}
		if best != -1 {
			p.joined = true
			p.parent = inbox[best].From
			p.parentEdge = inbox[best].Edge
		}
	}
	if p.joined && !p.sent {
		p.send(ctx)
	}
	return true
}
