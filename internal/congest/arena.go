package congest

import "repro/internal/graph"

// NetworkArena recycles a Network's internal buffers across repeated
// NewNetwork calls. Experiment sweeps and multi-phase algorithms build
// hundreds of networks over same-sized graphs; with an arena, each
// construction reuses the previous network's contexts, inboxes, neighbour
// tables and message slots instead of re-allocating them.
//
// The arena also remembers which graph its topology (port index, neighbour
// tables, nbrPort) was built for, keyed on the graph's identity
// and edge count; AddEdge is the only way to change a graph, so the key
// cannot go stale. A multi-phase algorithm that builds many networks over
// one graph therefore builds the topology once: later networks over the same
// graph only rebind the contexts, empty the out-lists and inboxes and clear
// the done flags, in O(n).
//
// Ownership rules:
//
//   - At most one live network may borrow an arena's buffers at a time.
//     NewNetwork(WithArena(a)) borrows them if they are free, and silently
//     falls back to fresh allocation if they are not — so nesting is safe,
//     just not accelerated.
//   - Run returns the buffers when it finishes (success or error). Reading
//     results (Program, Metrics, Graph) stays valid afterwards; calling
//     Step on the finished network panics.
//   - An arena is not safe for concurrent use. Use one arena per goroutine.
//   - An arena pins the last graph it indexed (and that graph's last
//     network) until it builds a topology for another graph.
//
// The round stamp is carried across networks (see sentStamp in the package
// documentation): recycled stamp buffers never need re-zeroing because a new
// network's starting stamp is strictly greater than every stale stamp.
//
//kecss:arena
type NetworkArena struct {
	slots      []Message
	inboxArena []Message
	neighbors  []Neighbor
	sentStamp  []uint32
	outBack    []int32
	nextSame   []int32
	portStart  []int32
	portAtU    []int32
	portAtV    []int32
	ctxs       []Context
	done       []bool
	inboxes    [][]Message
	step       []int32
	wake       []uint64
	nbrPort    map[int64]int32
	stamp      uint32
	busy       bool

	// indexed and indexedM identify the graph the topology above was built
	// for; nil until the first build.
	indexed  *graph.Graph
	indexedM int
}

// NewArena returns an empty arena. Buffers are allocated lazily, sized by
// the largest graph simulated through it.
func NewArena() *NetworkArena { return &NetworkArena{} }

// WithDefaultArena returns opts prefixed with a fresh-arena option: the
// standard pattern for a function that runs several consecutive networks and
// wants them to share buffers by default. Because options apply in order, a
// caller-supplied WithArena later in opts still wins.
func WithDefaultArena(opts []Option) []Option {
	return append([]Option{WithArena(NewArena())}, opts...)
}

// acquire returns the starting round stamp for a network over g with ports
// ports and whether the arena's topology is still the one built for g. If it
// is not, the buffers are resized (buffers large enough are reused as-is;
// growing ones are replaced) and the caller must rebuild the topology into
// them. A network restricted to some of g's edges (restricted) always
// rebuilds, and leaves no topology for a later network to reuse.
func (a *NetworkArena) acquire(g *graph.Graph, ports int, restricted bool) (stamp uint32, indexed bool) {
	if a.stamp >= 1<<31 {
		// Headroom check: restart stamps long before uint32 wraparound so a
		// borrowed network can run billions of rounds safely. The full
		// backing array is cleared — a smaller current view may hide stale
		// stamps that a later, larger acquire would re-expose.
		clear(a.sentStamp[:cap(a.sentStamp)])
		a.stamp = 0
	}
	if !restricted && a.indexed == g && a.indexedM == g.M() {
		return a.stamp + 1, true
	}
	nv, m := g.N(), g.M()
	p2 := ports
	a.indexed, a.indexedM = g, m
	if restricted {
		a.indexed = nil
	}
	a.slots = growSlice(a.slots, p2)
	a.inboxArena = growSlice(a.inboxArena, p2)
	a.neighbors = growSlice(a.neighbors, p2)
	a.sentStamp = growSlice(a.sentStamp, p2)
	a.outBack = growSlice(a.outBack, p2)
	a.nextSame = growSlice(a.nextSame, p2)
	a.portStart = growSlice(a.portStart, nv+1)
	a.portAtU = growSlice(a.portAtU, m)
	a.portAtV = growSlice(a.portAtV, m)
	a.ctxs = growSlice(a.ctxs, nv)
	a.done = growSlice(a.done, nv)
	a.inboxes = growSlice(a.inboxes, nv)
	a.step = growSlice(a.step, nv)
	a.wake = growSlice(a.wake, wakeWords(nv))
	// Contexts and inbox views hold pointers (to their network and message
	// backing); clear any tail beyond the current graph so a sweep over
	// shrinking graphs does not pin finished networks in memory.
	clear(a.ctxs[nv:cap(a.ctxs)])
	clear(a.inboxes[nv:cap(a.inboxes)])
	if a.nbrPort == nil {
		a.nbrPort = make(map[int64]int32, p2)
	} else {
		clear(a.nbrPort)
	}
	return a.stamp + 1, false
}

// growSlice returns buf resized to length n, reusing its backing array when
// large enough. Contents are unspecified; callers overwrite every element
// they read (sentStamp relies on the arena's monotone stamps instead).
func growSlice[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}
