package cycles

import (
	"fmt"
	"math/rand"

	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/tree"
)

// Arena recycles an Incremental engine's scratch across repeated
// NewIncremental calls, in the style of congest.NetworkArena: the 3-ECSS
// solvers build one engine per solve, and pool workers / experiment sweeps
// run thousands of solves over same-sized graphs, so the per-edge label and
// activation tables and the per-label count maps are worth reusing.
//
// Ownership rules (mirroring congest.NetworkArena):
//
//   - At most one live engine may borrow an arena's buffers at a time.
//     NewIncremental borrows them if they are free and silently falls back
//     to fresh allocation if they are not — nesting is safe, just not
//     accelerated.
//   - Release returns the buffers; the engine must not be used afterwards
//     (the next NewIncremental on the arena will overwrite them).
//   - An arena is not safe for concurrent use. Use one arena per goroutine
//     (pool workers each own one, next to their simulation arena).
//
//kecss:arena
type Arena struct {
	phi       []uint64
	active    []bool
	isTree    []bool
	activeIDs []int
	nphi      map[uint64]int
	treeCnt   map[uint64]int
	onPath    map[uint64]int64
	deg       []int
	arcs      []graph.Arc
	adj       [][]graph.Arc
	queue     []int
	owned     [][]int
	busy      bool
}

// NewLabelArena returns an empty arena. Buffers are allocated lazily, sized
// by the largest graph labeled through it.
func NewLabelArena() *Arena { return &Arena{} }

// growSlice returns buf resized to length n, reusing its backing array when
// large enough. Contents are unspecified; attachScratch clears the tables
// whose stale contents could be observed.
func growSlice[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// Incremental maintains the cycle-space labeling of a growing subgraph
// H ∪ A of a host graph G, over a spanning tree of the base H that is fixed
// for the engine's whole lifetime.
//
// The contract, and how it squares with §5:
//
//   - NewIncremental computes a BFS tree of H and runs the genuine
//     distributed label scan (Lemma 5.5) once, on the simulator, over the
//     host network; Metrics records its measured cost.
//   - AddEdges activates further host edges: each gets a fresh uniform
//     b-bit label which is XOR-ed into every tree edge on its
//     fundamental-cycle path. Because a tree edge's label is by definition
//     the XOR of the labels of the non-tree edges covering it, the result
//     is bit-for-bit the labeling the full scan would produce with the same
//     per-edge draws — deterministically, not just w.h.p. (RelabelScan is
//     that full scan, retained as the reference path, and the equivalence
//     tests pin the two against each other.)
//   - The per-label counts n_φ (NPhi of §5.3) and the Claim 5.10
//     termination predicate are maintained under every update, never
//     recomputed: activating one edge costs O(height) count adjustments.
//
// Unlike the per-iteration resampling of the paper's exposition, labels
// persist across AddEdges calls, so a label collision (probability ~m²/2^b
// per solve — negligible at the default 48-bit width) persists for the
// engine's lifetime: RelabelScan resamples nothing and reproduces the same
// state, so only the solver's exact verification clears it. The error stays
// one-sided (Claim 5.10 can falsely reject, never falsely certify); the
// cost of a persistent collision is extra augmentation edges, not
// incorrectness. An Incremental is not safe for concurrent use. It is the
// borrower of its Arena: attachScratch marks the arena busy, Release
// returns it, so the engine's lifetime is one loan.
//
//kecss:arena-owner
type Incremental struct {
	G    *graph.Graph
	Tree *tree.Rooted
	Bits int
	// Metrics is the simulator cost of the initial distributed base scan
	// (RelabelScan returns, but does not accumulate here, its own cost).
	Metrics congest.Metrics

	mask uint64
	rng  *rand.Rand

	phi       []uint64 // by host edge ID; meaningful only where active
	active    []bool   // by host edge ID
	isTree    []bool   // by host edge ID
	activeIDs []int    // activation order: base first, then AddEdges order

	nphi    map[uint64]int // label -> active-edge count (n_φ)
	treeCnt map[uint64]int // label -> tree-edge count
	nBad    int            // distinct labels with treeCnt>0 && nphi>1

	onPath map[uint64]int64 // CoverCount scratch
	arena  *Arena

	// hook observes label-state changes for the CoverIndex (nil otherwise).
	// Suspended while rebuildCounts replays the active set, which instead
	// ends with a single reset() notification.
	hook          labelHook
	hookSuspended bool
}

// labelHook receives the engine's label-state deltas, in the order they are
// applied. The CoverIndex implements it to keep per-candidate cover counts
// current without rescanning.
type labelHook interface {
	// nphiChanged fires after the active-edge count of lab moved by delta.
	nphiChanged(lab uint64, delta int)
	// treeRelabeled fires after tree edge t (a host edge ID) changed label
	// from old to new, with all count adjustments already applied.
	treeRelabeled(t int, old, new uint64)
	// reset fires after a wholesale recount (construction, RelabelScan):
	// incremental deltas were not reported, rebuild from current state.
	reset()
}

// NewIncremental builds the incremental labeling of the base subgraph of g
// given by edge IDs base (which must span g and be connected — the 3-ECSS
// solvers pass their 2-edge-connected base H): it roots a BFS tree of the
// base at vertex 0, samples non-tree labels, and runs the distributed label
// scan over the host network. bits must be in [1, 64]; rng drives all label
// sampling (here and in AddEdges). ar may be nil for unpooled scratch.
func NewIncremental(g *graph.Graph, base []int, bits int, rng *rand.Rand, ar *Arena, simOpts ...congest.Option) (*Incremental, error) {
	if bits < 1 || bits > 64 {
		return nil, fmt.Errorf("cycles: bits must be in [1,64], got %d", bits)
	}
	if rng == nil {
		return nil, fmt.Errorf("cycles: rng is required")
	}
	inc := &Incremental{G: g, Bits: bits, mask: labelMask(bits), rng: rng}
	inc.attachScratch(ar)

	tr, err := inc.baseTree(base)
	if err != nil {
		inc.Release()   // hand the arena back: a leaked busy flag would
		return nil, err // silently disable pooling for the worker's lifetime
	}
	inc.Tree = tr
	for v := 0; v < g.N(); v++ {
		if v != tr.Root {
			inc.isTree[tr.ParentEdge[v]] = true
		}
	}

	// Sample non-tree base labels at the smaller endpoint (deterministic
	// owner), in owner-vertex order — the draw order of ComputeLabels.
	owned := inc.ownedLists(base)
	for v := 0; v < g.N(); v++ {
		for _, e := range owned[v] {
			inc.phi[e] = inc.rng.Uint64() & inc.mask
		}
	}
	for _, id := range base {
		inc.active[id] = true
		inc.activeIDs = append(inc.activeIDs, id)
	}
	progs, metrics, err := runLabelScan(g, tr, owned, func(e int) uint64 { return inc.phi[e] }, inc.active, simOpts)
	if err != nil {
		inc.Release()
		return nil, err
	}
	inc.Metrics = metrics
	for v := 0; v < g.N(); v++ {
		if v != tr.Root {
			inc.phi[tr.ParentEdge[v]] = progs[v].upLabel
		}
	}
	inc.rebuildCounts()
	return inc, nil
}

// attachScratch points the engine's tables at arena-recycled or fresh
// memory, cleared for a host with g.M() edges.
func (inc *Incremental) attachScratch(ar *Arena) {
	m := inc.G.M()
	n := inc.G.N()
	if ar != nil && !ar.busy {
		ar.busy = true
		inc.arena = ar
		ar.phi = growSlice(ar.phi, m)
		ar.active = growSlice(ar.active, m)
		ar.isTree = growSlice(ar.isTree, m)
		ar.deg = growSlice(ar.deg, n)
		ar.adj = growSlice(ar.adj, n)
		ar.queue = growSlice(ar.queue, n)
		ar.owned = growSlice(ar.owned, n)
		if ar.nphi == nil {
			ar.nphi = make(map[uint64]int, 64)
			ar.treeCnt = make(map[uint64]int, 64)
			ar.onPath = make(map[uint64]int64, 16)
		}
		clear(ar.active)
		clear(ar.isTree)
		clear(ar.nphi)
		clear(ar.treeCnt)
		inc.phi, inc.active, inc.isTree = ar.phi, ar.active, ar.isTree
		inc.activeIDs = ar.activeIDs[:0]
		inc.nphi, inc.treeCnt, inc.onPath = ar.nphi, ar.treeCnt, ar.onPath
		return
	}
	inc.phi = make([]uint64, m)
	inc.active = make([]bool, m)
	inc.isTree = make([]bool, m)
	inc.nphi = make(map[uint64]int, 64)
	inc.treeCnt = make(map[uint64]int, 64)
	inc.onPath = make(map[uint64]int64, 16)
}

// Release returns the engine's scratch to its arena (a no-op for unpooled
// engines). The engine must not be used afterwards.
func (inc *Incremental) Release() {
	if inc.arena == nil {
		return
	}
	inc.arena.activeIDs = inc.activeIDs[:0]
	inc.arena.busy = false
	inc.arena = nil
}

// baseTree roots a BFS tree of the base subgraph at vertex 0 without
// materializing the subgraph: adjacency is carved from (arena) scratch, and
// only the parent arrays the tree retains are freshly allocated.
func (inc *Incremental) baseTree(base []int) (*tree.Rooted, error) {
	g := inc.G
	n := g.N()
	var deg, queue []int
	var arcs []graph.Arc
	var adj [][]graph.Arc
	if inc.arena != nil {
		inc.arena.arcs = growSlice(inc.arena.arcs, 2*len(base))
		deg, queue, arcs, adj = inc.arena.deg, inc.arena.queue, inc.arena.arcs, inc.arena.adj
	} else {
		deg = make([]int, n)
		queue = make([]int, n)
		arcs = make([]graph.Arc, 2*len(base))
		adj = make([][]graph.Arc, n)
	}
	for v := 0; v < n; v++ {
		deg[v] = 0
	}
	for _, id := range base {
		e := g.Edge(id)
		deg[e.U]++
		deg[e.V]++
	}
	off := 0
	for v := 0; v < n; v++ {
		adj[v] = arcs[off : off : off+deg[v]]
		off += deg[v]
	}
	for _, id := range base {
		e := g.Edge(id)
		adj[e.U] = append(adj[e.U], graph.Arc{To: e.V, Edge: id})
		adj[e.V] = append(adj[e.V], graph.Arc{To: e.U, Edge: id})
	}
	// The tree keeps these slices, so they cannot come from the arena.
	parent := make([]int, n)
	parentEdge := make([]int, n)
	for v := range parent {
		parent[v] = -2
		parentEdge[v] = -1
	}
	parent[0] = -1
	queue = append(queue[:0], 0)
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, a := range adj[v] {
			if parent[a.To] == -2 {
				parent[a.To] = v
				parentEdge[a.To] = a.Edge
				queue = append(queue, a.To)
			}
		}
	}
	for v, p := range parent {
		if p == -2 {
			return nil, fmt.Errorf("cycles: base subgraph does not span vertex %d", v)
		}
	}
	return tree.FromParents(0, parent, parentEdge)
}

// ownedLists distributes the non-tree edges of ids to their smaller
// endpoint (the announcing owner of the distributed scan).
func (inc *Incremental) ownedLists(ids []int) [][]int {
	n := inc.G.N()
	var deg []int
	var owned [][]int
	if inc.arena != nil {
		deg, owned = inc.arena.deg, inc.arena.owned
	} else {
		deg = make([]int, n)
		owned = make([][]int, n)
	}
	for v := 0; v < n; v++ {
		deg[v] = 0
	}
	ownerOf := func(id int) int {
		e := inc.G.Edge(id)
		if e.V < e.U {
			return e.V
		}
		return e.U
	}
	nonTree := 0
	for _, id := range ids {
		if inc.isTree[id] {
			continue
		}
		deg[ownerOf(id)]++
		nonTree++
	}
	flat := make([]int, nonTree)
	off := 0
	for v := 0; v < n; v++ {
		owned[v] = flat[off : off : off+deg[v]]
		off += deg[v]
	}
	for _, id := range ids {
		if inc.isTree[id] {
			continue
		}
		o := ownerOf(id)
		owned[o] = append(owned[o], id)
	}
	return owned
}

// rebuildCounts recomputes nphi/treeCnt/nBad from the current labels — used
// at construction and after a reference rescan. The hook is suspended for
// the replay and handed one reset() instead.
func (inc *Incremental) rebuildCounts() {
	clear(inc.nphi)
	clear(inc.treeCnt)
	inc.nBad = 0
	inc.hookSuspended = true
	for _, id := range inc.activeIDs {
		dTree := 0
		if inc.isTree[id] {
			dTree = 1
		}
		inc.adjust(inc.phi[id], 1, dTree)
	}
	inc.hookSuspended = false
	if inc.hook != nil {
		inc.hook.reset()
	}
}

// isBad reports whether label lab currently violates Claim 5.10: it sits on
// a tree edge and on at least one other active edge.
func (inc *Incremental) isBad(lab uint64) bool {
	return inc.treeCnt[lab] > 0 && inc.nphi[lab] > 1
}

// adjust moves label lab's active-edge count by dAll and its tree-edge
// count by dTree, keeping the bad-label tally exact.
//
//kecss:alloc-free
func (inc *Incremental) adjust(lab uint64, dAll, dTree int) {
	if inc.isBad(lab) {
		inc.nBad--
	}
	if c := inc.nphi[lab] + dAll; c > 0 {
		inc.nphi[lab] = c
	} else {
		delete(inc.nphi, lab)
	}
	if dTree != 0 {
		if c := inc.treeCnt[lab] + dTree; c > 0 {
			inc.treeCnt[lab] = c
		} else {
			delete(inc.treeCnt, lab)
		}
	}
	if inc.isBad(lab) {
		inc.nBad++
	}
	if inc.hook != nil && !inc.hookSuspended && dAll != 0 {
		inc.hook.nphiChanged(lab, dAll)
	}
}

// AddEdges activates the given (inactive, non-tree) host edges: each gets a
// fresh uniform b-bit label, XOR-ed into every tree edge on its
// fundamental-cycle tree path, with all per-label counts maintained.
// O(|ids|·height), allocation-free warm. Labels are drawn in ids order.
//
//kecss:alloc-free
func (inc *Incremental) AddEdges(ids []int) {
	for _, id := range ids {
		if inc.active[id] {
			panic(fmt.Sprintf("cycles: edge %d activated twice", id))
		}
		lab := inc.rng.Uint64() & inc.mask
		e := inc.G.Edge(id)
		inc.phi[id] = lab
		inc.active[id] = true
		inc.activeIDs = append(inc.activeIDs, id)
		inc.adjust(lab, 1, 0)
		inc.Tree.ForEachPathEdge(e.U, e.V, func(t int) {
			old := inc.phi[t]
			inc.adjust(old, -1, -1)
			inc.phi[t] = old ^ lab
			inc.adjust(old^lab, 1, 1)
			if inc.hook != nil {
				inc.hook.treeRelabeled(t, old, old^lab)
			}
		})
	}
}

// ThreeEdgeConnected is the Claim 5.10 termination predicate over the
// active subgraph: true iff n_φ(t) = 1 for every tree edge t. O(1) — the
// bad-label tally is maintained under every update. One-sided like
// Labeling.ThreeEdgeConnectedWith: true is always correct, false is correct
// w.h.p. in the label width.
func (inc *Incremental) ThreeEdgeConnected() bool { return inc.nBad == 0 }

// CoverCount returns |S²_e| (Claim 5.8) for a prospective edge e = {u, v}
// of the host not yet active: the number of cut pairs of the active
// subgraph that activating e would cover. O(height), allocation-free warm.
//
//kecss:alloc-free
func (inc *Incremental) CoverCount(u, v int) int64 {
	clear(inc.onPath)
	inc.Tree.ForEachPathEdge(u, v, func(t int) {
		inc.onPath[inc.phi[t]]++
	})
	var total int64
	for lab, ne := range inc.onPath {
		total += ne * (int64(inc.nphi[lab]) - ne)
	}
	return total
}

// IsActive reports whether the host edge is part of the labeled subgraph.
func (inc *Incremental) IsActive(id int) bool { return inc.active[id] }

// ActiveCount returns the number of active edges.
func (inc *Incremental) ActiveCount() int { return len(inc.activeIDs) }

// Phi returns the current label of an active host edge.
func (inc *Incremental) Phi(id int) uint64 { return inc.phi[id] }

// RelabelScan is the retained from-scratch reference path: it re-runs the
// full distributed label scan of Lemma 5.5 over the active subgraph (same
// tree, same non-tree labels — nothing is resampled), overwrites the tree
// labels with the scan's result, rebuilds the per-label counts, and returns
// the measured simulator rounds. Because a tree edge's label is the XOR of
// its covering non-tree labels, the scan reproduces the incrementally
// maintained state bit-for-bit. No solver calls it: the equivalence tests
// pin AddEdges against it, and internal/core's from-scratch 3-ECSS
// reference runs it once per iteration.
func (inc *Incremental) RelabelScan(simOpts ...congest.Option) (int64, error) {
	owned := inc.ownedLists(inc.activeIDs)
	progs, metrics, err := runLabelScan(inc.G, inc.Tree, owned, func(e int) uint64 { return inc.phi[e] }, inc.active, simOpts)
	if err != nil {
		return 0, err
	}
	for v := 0; v < inc.G.N(); v++ {
		if v != inc.Tree.Root {
			inc.phi[inc.Tree.ParentEdge[v]] = progs[v].upLabel
		}
	}
	inc.rebuildCounts()
	return int64(metrics.Rounds), nil
}
