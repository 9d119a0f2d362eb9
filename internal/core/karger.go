package core

// Recursive Karger–Stein contraction for enumerating all minimum cuts of a
// graph with known edge connectivity size >= 4. Size 3 is enumerated
// exactly from cycle-space labels (cutlabels.go); cutsByContraction still
// accepts it, which the equivalence tests use to compare the two.
//
// One trial contracts the graph to ~n/√2 supernodes, relabels the
// supernodes densely, and recurses twice on that shared prefix; at <= ksBase
// supernodes the recursion stops and every bipartition of the contracted
// graph is enumerated exactly, emitting each one whose crossing-edge count
// equals the target size. A fixed minimum cut survives one trial with
// probability Ω(1/log n) — versus Ω(1/n²) for a flat contraction to two
// supernodes — so Θ(log²n) trials enumerate all minimum cuts w.h.p.,
// replacing the reference implementation's Θ(n²·log n) flat runs.
//
// Four de-amortisations keep a trial cheap. First, dense relabelling:
// level d works on n_d ≈ n/√2^d supernodes, so its union-find, edge list,
// and the snapshot taken for the second child are all O(n_d + m_d), not
// O(n + m) — and the contraction writes a composed supernode→child-label
// map (ksLevel.comp), making the relabelling pass one array read per
// endpoint and fully branchless (see contractInto). Second, signature
// interning: a qualifying bipartition is identified by the sorted IDs of
// its `size` crossing edges (a perfect identity for minimum cuts), so
// re-sightings of known cuts cost O(λ); the reconstruction of
// original-vertex membership runs only on each cut's first sighting.
// Third, the gray-code leaf sweep: a leaf's 2^(n_leaf - 1) bipartitions
// are visited in gray-code order, so each step flips one supernode, whose
// incident-edge bitmask XORs into the crossing set — one XOR plus one
// popcount per bipartition instead of an O(m_leaf) recount — and the
// crossing edge IDs are gathered only for the rare bipartitions whose
// count equals the target (the sweep is output-sensitive; the per-mask
// recount survives behind CutEnumOptions.LeafRecount as the reference).
// Fourth, sibling-shared materialisation: the original-vertex → supernode
// composition is cached per level with a valid-prefix watermark, so the
// O(n)-per-level composing work for a leaf's first-sighted cut is shared
// with every later leaf under the same ancestors — contracting into level
// d+1 only invalidates compositions at levels > d, which both sibling
// subtrees of level d sit below.
//
// All per-trial state lives in a cutArena drawn from a sync.Pool: the
// per-level edge lists, union-find and relabelling scratch, the side-bitset
// buffer, the O(1)-seed per-trial RNG, and the arena's signature intern
// table. After the arena's buffers have grown to the graph's size, a trial
// allocates only when it discovers a bipartition this arena has never seen
// (the interned signature plus the materialised bitset, carved from a
// shared block).
//
// Determinism contract: trial t always draws from a private RNG seeded
// baseSeed XOR t, where baseSeed is one Int63 drawn from the caller's RNG,
// and the found cuts are sorted canonically. The output is therefore a
// function of the graph, the size and that one draw.

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sync"

	"repro/internal/graph"
)

// ksBase is the supernode count at which contraction stops and the trial
// enumerates every bipartition of the contracted graph exactly.
const ksBase = 6

// ksEdge is one surviving multigraph edge between two supernodes of its
// level, in that level's dense labels, carrying its original edge ID through
// every relabelling so leaves can identify cuts by their crossing-edge
// signature. Parallel edges stay separate 12-byte entries: an experiment
// that merged them into multiplicity bundles lost more to merge-branch
// mispredictions and merge-grid cache traffic at every level than the
// 2-3x shorter deep edge lists saved.
type ksEdge struct {
	u, v, id int32
}

// ksRand is the per-trial PRNG: splitmix64, chosen because re-seeding is
// O(1) (math/rand's source regenerates a 607-entry table per Seed, which
// would dominate whole trials on small graphs). Contraction only needs
// uniform edge picks, and every trial re-seeds, so the tiny state is ideal.
type ksRand struct{ s uint64 }

func (r *ksRand) seed(v int64) { r.s = uint64(v) }

func (r *ksRand) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a uniform int in [0, n) by Lemire's multiply-shift on the
// top 32 output bits — two multiplies against the 20+-cycle division a
// modulo would cost, on a path run ~10 times per contraction. The bias is
// < n/2³² — irrelevant against the contraction analysis' constant slack.
func (r *ksRand) intn(n int) int {
	return int((r.next() >> 32) * uint64(n) >> 32)
}

// ksLevel is one recursion level's contraction state.
type ksLevel struct {
	nodes int      // supernode count n_d; labels are 0..nodes-1
	v0    int32    // supernode containing original vertex 0
	edges []ksEdge // surviving non-loop multigraph edges in this level's labels
	// comp (this level's supernode -> child supernode) is the composed
	// union-find + dense-relabel map that the latest contractInto of this
	// level wrote; composeIDs reads it directly.
	comp []int32
	ids  []int32 // original vertex -> this level's supernode (cached; see idsValid)
	// contraction scratch (sized to this level's nodes / edges)
	dead   []uint64 // edges discovered to be self-loops during the picks
	parent []int32  // union-find over this level's supernodes
	newid  []int32  // root -> dense child label
}

// cutArena owns every buffer a contraction worker needs. Arenas are
// recycled through arenaPool; prepare resets them for a new graph. An arena
// is single-goroutine state, owned by one enumeration call at a time.
//
//kecss:arena
type cutArena struct {
	n        int
	levels   []ksLevel
	side     []uint64
	sig      []int32 // crossing-edge signature scratch
	idsValid int     // deepest level whose ids cache is current (level 0 always is)
	recount  bool    // use the per-mask recount oracle instead of the gray sweep
	steps    int64   // bipartitions visited across all leaves since prepare
	rng      ksRand
	sigs     sigInterner
	store    cutStore
	fresh    []Cut // cuts first seen by this arena in the current trial
}

// sigInterner dedups minimum cuts by their crossing-edge signature: the
// sorted IDs of the `stride` crossing edges. For a minimum cut the
// signature is a perfect identity — removing its λ edges splits the graph
// into exactly the cut's two sides — and probing it costs O(λ), versus
// O(n) to materialise the bipartition bitset. Hash collisions are resolved
// by comparing the stored signatures.
type sigInterner struct {
	stride int
	table  map[uint64][]int32
	sigs   []int32 // flattened, stride entries per interned cut
}

func (si *sigInterner) reset(stride int) {
	si.stride = stride
	if si.table == nil {
		si.table = make(map[uint64][]int32)
	} else {
		clear(si.table)
	}
	si.sigs = si.sigs[:0]
}

// add interns the sorted signature, reporting whether it was new.
func (si *sigInterner) add(sig []int32) bool {
	const prime64 = 1099511628211
	h := uint64(14695981039346656037)
	for _, id := range sig {
		h = (h ^ uint64(uint32(id))) * prime64
	}
	for _, idx := range si.table[h] {
		stored := si.sigs[int(idx)*si.stride : (int(idx)+1)*si.stride]
		same := true
		for i := range sig {
			if stored[i] != sig[i] {
				same = false
				break
			}
		}
		if same {
			return false
		}
	}
	si.table[h] = append(si.table[h], int32(len(si.sigs)/si.stride))
	si.sigs = append(si.sigs, sig...)
	return true
}

var arenaPool = sync.Pool{New: func() any { return new(cutArena) }}

// prepare resets the arena for an n-vertex graph whose trials recurse at
// most maxDepth levels and identify cuts by `size`-edge signatures, growing
// (never shrinking) its buffers.
func (a *cutArena) prepare(n, maxDepth, size int) {
	a.n = n
	if cap(a.side) < cutWords(n) {
		a.side = make([]uint64, cutWords(n))
	}
	a.side = a.side[:cutWords(n)]
	for len(a.levels) <= maxDepth {
		a.levels = append(a.levels, ksLevel{})
	}
	// Level 0's vertex→supernode map is the identity and never invalidated.
	lv0 := &a.levels[0]
	if cap(lv0.ids) < n {
		lv0.ids = make([]int32, n)
	}
	lv0.ids = lv0.ids[:n]
	for v := range lv0.ids {
		lv0.ids[v] = int32(v)
	}
	a.idsValid = 0
	a.steps = 0
	a.fresh = a.fresh[:0]
	a.sigs.reset(size)
	a.store.reset(n)
}

// ksFind is find with path halving over a flat parent array.
func ksFind(p []int32, x int32) int32 {
	for p[x] != x {
		p[x] = p[p[x]]
		x = p[x]
	}
	return x
}

// ksTarget is the supernode count one recursion step contracts to: n/√2,
// the shrink factor under which a fixed minimum cut survives the step with
// probability about 1/2. Rounding down (instead of the analysis'
// ⌈1+n/√2⌉) trims several low-shrink tail levels off the recursion — a
// 4–8× reduction in leaves — at a constant-factor hit to per-trial success
// probability that the empirically calibrated trial count absorbs.
func ksTarget(n int) int {
	t := int(float64(n) / math.Sqrt2)
	if t >= n {
		t = n - 1
	}
	if t < 2 {
		t = 2
	}
	return t
}

// ksDepth returns the recursion depth a trial on an n-vertex graph reaches.
func ksDepth(n int) int {
	d := 0
	for n > ksBase {
		n = ksTarget(n)
		d++
	}
	return d
}

// ksTrials returns the Karger–Stein repetition count for an n-vertex graph:
// Θ(log²n) trials drive the probability of missing any of the <= n(n-1)/2
// minimum cuts below 1/poly(n). The constant is calibrated against the
// worst observed coverage need on the adversarial Θ(n²)-cut family
// (doubled cycles: 65 trials to full coverage at n=96 over 30 seeds, vs
// 192 here) while ordinary families cover within ~14 trials; the
// exhaustive <= ksBase base case is what makes trials this productive.
func ksTrials(n int) int {
	l := bits.Len(uint(n)) + 1
	t := 3 * l * l
	if t < 64 {
		t = 64
	}
	return t
}

// runTrial executes one full Karger–Stein trial over the base edge list,
// appending cuts this arena first sees to a.fresh.
func (a *cutArena) runTrial(base []ksEdge, size int) {
	lv := &a.levels[0]
	lv.nodes = a.n
	lv.edges = append(lv.edges[:0], base...)
	lv.v0 = 0
	a.recurse(0, size)
}

func (a *cutArena) recurse(depth, size int) {
	lv := &a.levels[depth]
	if lv.nodes <= ksBase {
		a.enumerateBase(depth, size)
		return
	}
	target := ksTarget(lv.nodes)
	a.contractInto(depth, target)
	a.recurse(depth+1, size)
	a.contractInto(depth, target)
	a.recurse(depth+1, size)
}

// contractInto contracts level depth's graph to `target` supernodes and
// writes the relabelled result into level depth+1, leaving level depth
// intact for the sibling call. Multi-edges are picked uniformly at random by
// rejection against a dead-edge bitmap: edges discovered to be self-loops
// are marked dead, keeping each accepted pick uniform over the surviving
// multi-edges without copying the edge list.
func (a *cutArena) contractInto(depth, target int) {
	lv := &a.levels[depth]
	child := &a.levels[depth+1]
	n := lv.nodes
	m := len(lv.edges)
	if cap(lv.parent) < n {
		lv.parent = make([]int32, n)
		lv.newid = make([]int32, n)
		lv.comp = make([]int32, n)
	}
	p := lv.parent[:n]
	newid := lv.newid[:n]
	for i := range p {
		p[i] = int32(i)
		newid[i] = -1
	}
	dw := (m + 63) / 64
	if cap(lv.dead) < dw {
		lv.dead = make([]uint64, dw)
	}
	dead := lv.dead[:dw]
	for i := range dead {
		dead[i] = 0
	}
	alive := m
	remaining := n
	for remaining > target && alive > 0 {
		i := a.rng.intn(m)
		if dead[i>>6]&(1<<uint(i&63)) != 0 {
			continue
		}
		e := &lv.edges[i]
		ru := ksFind(p, e.u)
		rv := ksFind(p, e.v)
		if ru == rv {
			dead[i>>6] |= 1 << uint(i&63)
			alive--
			continue
		}
		p[ru] = rv
		remaining--
	}
	// Resolve every supernode to its root once, handing roots dense child
	// labels in scan order (deterministic for a fixed random stream), and
	// store the composed supernode→child-label map: the relabelling pass
	// then needs a single comp read per endpoint instead of chained
	// root/label lookups.
	comp := lv.comp[:n]
	next := int32(0)
	for i := int32(0); i < int32(n); i++ {
		r := ksFind(p, i)
		// Branchless label assignment: a fresh root (newid still -1) takes
		// the next dense label. The root-vs-merged stream defeats branch
		// prediction at deep levels, so this is sign-mask selection.
		id := newid[r]
		neg := id >> 31
		id = (id &^ neg) | (next & neg)
		newid[r] = id
		next -= neg
		comp[i] = id
	}
	child.nodes = int(next)
	child.v0 = comp[lv.v0]
	if cap(child.edges) < m {
		child.edges = make([]ksEdge, m)
	}
	cedges := child.edges[:cap(child.edges)]
	k := 0
	// Branchless relabel: every edge is written at the write cursor, and
	// the cursor advances only for non-loops — self-loops are overwritten
	// by the next edge instead of branching on a 25%-taken, unpredictable
	// skip.
	for i := range lv.edges {
		e := &lv.edges[i]
		u := comp[e.u]
		v := comp[e.v]
		cedges[k] = ksEdge{u: u, v: v, id: e.id}
		nz := uint32(u ^ v)
		k += int((nz | -nz) >> 31)
	}
	child.edges = cedges[:k]
	// Levels below depth+1 now describe the replaced subtree; level depth
	// and every ancestor keep their cached vertex→supernode compositions,
	// which is what shares materialisation work across the two sibling
	// recursions (the second child recomposes only levels > depth).
	if a.idsValid > depth {
		a.idsValid = depth
	}
}

// enumerateBase visits every bipartition of the <= ksBase supernodes at
// `depth` and records each one crossed by exactly `size` edges. Because
// size equals the graph's edge connectivity, every recorded bipartition is
// a genuine minimum cut (and both its sides are automatically connected: a
// disconnected side would split δ(S) into two disjoint nonempty cuts of
// total size λ, contradicting each being >= λ).
//
// The bipartitions are swept in binary-reflected gray-code order over the
// supernodes other than v0 (so vertex 0's supernode stays on side 0 — the
// canonical orientation). Step i flips exactly the supernode indexed by
// TrailingZeros(i); an edge changes crossing state iff it is incident to
// the flipped supernode, so with per-supernode incident-edge bitmasks the
// crossing set updates with one XOR and the crossing count is one popcount
// — no per-step dependence on the leaf's edge count. The set of visited
// masks is identical to the recount's ascending scan; only the order
// differs, which the signature dedup and the final canonical sort make
// immaterial.
func (a *cutArena) enumerateBase(depth, size int) {
	lv := &a.levels[depth]
	m := len(lv.edges)
	if m < size || lv.nodes < 2 {
		return
	}
	if cap(a.sig) < size {
		a.sig = make([]int32, size)
	}
	if a.recount {
		a.enumerateBaseRecount(depth, size)
		return
	}
	nodes := lv.nodes
	var free [ksBase]int32
	nf := 0
	for s := int32(0); s < int32(nodes); s++ {
		if s != lv.v0 {
			free[nf] = s
			nf++
		}
	}
	steps := uint32(1) << uint(nf)
	a.steps += int64(steps) - 1
	if m <= 64 {
		// Per-supernode incident-edge bitmasks over the (deep leaves are
		// sparse) <= 64 surviving edges: crossSet's bit i says edge i
		// currently crosses, maintained by one XOR per gray step.
		var inc [ksBase]uint64
		for i := range lv.edges {
			e := &lv.edges[i]
			b := uint64(1) << uint(i)
			inc[e.u] ^= b
			inc[e.v] ^= b
		}
		// Unrolled by two: every odd gray step flips free[0], so its mask
		// bit and XOR delta are loop constants — which also breaks the
		// serial dependency chain between consecutive steps.
		m0 := 1 << uint(free[0])
		inc0 := inc[free[0]]
		mask := 0
		cross := uint64(0)
		for i := uint32(1); i < steps; i += 2 {
			mask ^= m0
			cross ^= inc0
			if bits.OnesCount64(cross) == size {
				a.recordLeafCrossSet(depth, mask, size, cross)
			}
			if i+1 >= steps {
				break
			}
			s := free[bits.TrailingZeros32(i+1)]
			mask ^= 1 << uint(s)
			cross ^= inc[s]
			if bits.OnesCount64(cross) == size {
				a.recordLeafCrossSet(depth, mask, size, cross)
			}
		}
		return
	}
	// Fallback for leaves with more than 64 surviving edges (dense or
	// multigraph inputs contracted only a little): a pairwise multiplicity
	// matrix, updated per flip in O(n_leaf).
	var c [ksBase][ksBase]int32
	for i := range lv.edges {
		e := &lv.edges[i]
		c[e.u][e.v]++
		c[e.v][e.u]++
	}
	mask := 0
	crossing := 0
	for i := uint32(1); i < steps; i++ {
		s := free[bits.TrailingZeros32(i)]
		mask ^= 1 << uint(s)
		ms := (mask >> uint(s)) & 1
		row := &c[s]
		// Flipping s toggles the crossing state of exactly its incident
		// edges (c[s][s] is 0, so including t == s is harmless); the sign
		// is branchless because the bipartition stream defeats prediction.
		for t := 0; t < nodes; t++ {
			sign := int((mask>>uint(t))&1^ms)<<1 - 1
			crossing += sign * int(row[t])
		}
		if crossing == size {
			a.recordLeafCut(depth, mask, size)
		}
	}
}

// enumerateBaseRecount is the pre-gray-code base case: an ascending mask
// scan recounting crossings from scratch per bipartition. Retained behind
// CutEnumOptions.LeafRecount as the oracle the sweep is tested against.
func (a *cutArena) enumerateBaseRecount(depth, size int) {
	lv := &a.levels[depth]
	for mask := 1; mask < 1<<uint(lv.nodes); mask++ {
		if mask&(1<<uint(lv.v0)) != 0 {
			continue // canonical orientation: vertex 0's supernode stays out
		}
		a.steps++
		crossing := 0
		for i := range lv.edges {
			e := &lv.edges[i]
			if (mask>>uint(e.u))&1 != (mask>>uint(e.v))&1 {
				crossing++
				if crossing > size {
					break
				}
			}
		}
		if crossing == size {
			a.recordLeafCut(depth, mask, size)
		}
	}
}

// recordLeafCrossSet is recordLeafCut for the bitmask sweep: the crossing
// edge set is already in hand as a bitmask, so the signature gathers its
// exactly `size` set bits directly instead of rescanning the edge list.
func (a *cutArena) recordLeafCrossSet(depth, mask, size int, cross uint64) {
	lv := &a.levels[depth]
	sig := a.sig[:size]
	for k := 0; k < size; k++ {
		i := bits.TrailingZeros64(cross)
		cross &= cross - 1
		sig[k] = lv.edges[i].id
	}
	a.commitLeafCut(depth, mask, size, sig)
}

// recordLeafCut handles a bipartition with exactly `size` crossing edges:
// gather its crossing-edge signature by an O(m_leaf) edge scan (the matrix
// and recount paths have no crossing bitmask in hand), then commit it.
func (a *cutArena) recordLeafCut(depth, mask, size int) {
	lv := &a.levels[depth]
	sig := a.sig[:size]
	k := 0
	for i := range lv.edges {
		e := &lv.edges[i]
		if (mask>>uint(e.u))&1 != (mask>>uint(e.v))&1 {
			sig[k] = e.id
			k++
		}
	}
	a.commitLeafCut(depth, mask, size, sig)
}

// commitLeafCut dedups a qualifying bipartition against the arena's intern
// table by its sorted crossing-edge signature — O(λ) probes against O(n)
// for a bitset — and materialises the vertex bipartition on first sighting
// only.
func (a *cutArena) commitLeafCut(depth, mask, size int, sig []int32) {
	for i := 1; i < size; i++ {
		for j := i; j > 0 && sig[j] < sig[j-1]; j-- {
			sig[j], sig[j-1] = sig[j-1], sig[j]
		}
	}
	if !a.sigs.add(sig) {
		return
	}
	ids := a.composeIDs(depth)
	// Materialise the vertex bipartition. Vertex 0's side is 0 by the
	// mask restriction, so the bitset is already canonical.
	side := a.side
	for i := range side {
		side[i] = 0
	}
	for v := 0; v < a.n; v++ {
		if mask&(1<<uint(ids[v])) != 0 {
			side[v/64] |= 1 << uint(v%64)
		}
	}
	a.fresh = append(a.fresh, a.store.alloc(side))
}

// composeIDs returns the original-vertex → supernode map for `depth`,
// composing the per-level contraction maps. Compositions are cached per
// level with a.idsValid as the valid-prefix watermark (contractInto lowers
// it), so the work for level d is shared by every leaf below d that sights
// a new cut — across sibling subtrees, not just within one leaf.
func (a *cutArena) composeIDs(depth int) []int32 {
	for d := a.idsValid + 1; d <= depth; d++ {
		lv := &a.levels[d]
		if cap(lv.ids) < a.n {
			lv.ids = make([]int32, a.n)
		}
		ids := lv.ids[:a.n]
		par := &a.levels[d-1]
		prev := par.ids[:a.n]
		comp := par.comp[:par.nodes] // written by the ancestor path's latest contractInto
		for v := range ids {
			ids[v] = comp[prev[v]]
		}
		lv.ids = ids
	}
	if depth > a.idsValid {
		a.idsValid = depth
	}
	return a.levels[depth].ids[:a.n]
}

// cutsByContraction enumerates all minimum cuts of h (whose edge
// connectivity must equal size; EnumerateMinCuts sends size >= 4 here) by
// deterministic Karger–Stein trials on one arena, whose intern table dedups
// across all trials, so already-seen bipartitions cost no allocation at
// all. See the file comment for the scheme and the determinism contract.
func cutsByContraction(h *graph.Graph, size int, rng *rand.Rand, opts CutEnumOptions) ([]Cut, error) {
	if rng == nil {
		return nil, fmt.Errorf("core: contraction enumeration requires rng")
	}
	if ok, err := hasMinCutsOfSize(h, size, opts); !ok {
		return nil, err
	}
	n := h.N()
	trials := ksTrials(n)
	if opts.MaxTrials > 0 && trials > opts.MaxTrials {
		trials = opts.MaxTrials
	}
	maxDepth := ksDepth(n)
	base := make([]ksEdge, h.M())
	for i, e := range h.Edges() {
		base[i] = ksEdge{u: int32(e.U), v: int32(e.V), id: int32(e.ID)}
	}
	baseSeed := rng.Int63()

	sweepStart := opts.Phase.phaseStart()
	a := arenaPool.Get().(*cutArena)
	a.prepare(n, maxDepth, size)
	a.recount = opts.LeafRecount
	out := make([]Cut, 0, 16)
	for t := 0; t < trials; t++ {
		a.rng.seed(baseSeed ^ int64(t))
		a.fresh = a.fresh[:0]
		a.runTrial(base, size)
		out = append(out, a.fresh...)
	}
	steps := a.steps
	arenaPool.Put(a)
	opts.Phase.emit(PhaseEvent{Phase: "ks-sweep", Start: sweepStart, Iterations: trials, Items: int(steps)})
	matStart := opts.Phase.phaseStart()
	sortCuts(out)
	opts.Phase.emit(PhaseEvent{Phase: "ks-materialise", Start: matStart, Items: len(out)})
	return out, nil
}
