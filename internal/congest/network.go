package congest

import (
	"fmt"
	"math/bits"

	"repro/internal/graph"
)

// Metrics accumulates the cost of a simulation: the quantities the paper's
// theorems bound.
type Metrics struct {
	Rounds   int   // synchronous rounds executed
	Messages int64 // messages delivered
	Bits     int64 // total message bits (congestion volume)
}

// Network is one instantiation of the CONGEST model over a communication
// graph, with one Program per vertex. See the package documentation for the
// buffer layout. A Network is the borrower of its arena: it marks the arena
// busy in attachBuffers and returns the buffers in Release, so its lifetime
// is exactly one loan.
//
//kecss:arena-owner
type Network struct {
	g        *graph.Graph
	exec     Executor
	programs []Program
	ctxs     []Context
	done     []bool
	inboxes  [][]Message // per-node views into inboxArena, emptied when Round returns

	// step is the step list: in ascending vertex order, the nodes the next
	// round runs, those that returned not-done and those that received
	// mail. wake is the bitset a sparse round builds it from; it is all
	// zero between rounds.
	step []int32
	wake []uint64

	// Flat buffers, carved per node by portStart, all borrowed from a
	// NetworkArena.
	slots      []Message  // one message slot per port, indexed by global port
	inboxArena []Message  // per-port inbox backing, partitioned by receiver degree
	neighbors  []Neighbor // per port, partitioned by node
	sentStamp  []uint32   // per-port round stamps
	outBack    []int32    // per-port out-slot backing, partitioned by node
	nextSame   []int32    // per-port same-neighbour chain
	portStart  []int32    // n+1 prefix sums of degree
	portAtU    []int32    // m: port of edge e in e.U's adjacency, -1 if not a port
	portAtV    []int32    // m: port of edge e in e.V's adjacency, -1 if not a port

	// nbrPort maps nbrKey(v, u) to the lowest port of v leading to u;
	// further parallel ports are chained through nextSame. One map for the
	// whole network keeps construction at O(1) allocations.
	nbrPort map[int64]int32

	// active, if non-nil, restricts the ports to the edges it marks.
	active []bool

	roundFn  func(i int) // per-round executor callback, built once
	stamp    uint32      // current round stamp (strictly increasing)
	metrics  Metrics
	arena    *NetworkArena // lends the buffers above
	released bool          // arena buffers returned; stepping is an error
}

// config collects option state before buffers are allocated; it exists only
// inside NewNetwork, before the arena loan is even taken. arena, set only by
// the package tests, is the arena to borrow if it is idle.
//
//kecss:arena-owner
type config struct {
	exec   Executor
	arena  *NetworkArena
	active []bool
}

// Option configures a Network.
type Option func(*config)

// WithExecutor selects the round executor. Default: SequentialExecutor.
func WithExecutor(e Executor) Option {
	return func(c *config) { c.exec = e }
}

// WithActiveEdges restricts the network to the edges e of g with active[e]
// (len(active) == g.M()): only they become ports, so nodes see, and may send
// on, those edges alone, and the buffers are sized by them rather than by
// all of g. Such a topology is built per network, never cached in an arena.
func WithActiveEdges(active []bool) Option {
	return func(c *config) { c.active = active }
}

// NewNetwork builds a network over g where vertex v runs factory(v).
// Init is called for every node (messages sent there arrive in round 1).
func NewNetwork(g *graph.Graph, factory Factory, opts ...Option) *Network {
	cfg := config{exec: SequentialExecutor{}}
	for _, opt := range opts {
		opt(&cfg)
	}
	n := &Network{
		g:      g,
		exec:   cfg.exec,
		active: cfg.active,
		// programs is the one per-network allocation kept off the arena:
		// callers read final program state via Program(v) after Run has
		// returned the buffers, so it must not be recycled under them.
		programs: make([]Program, g.N()),
	}
	if n.attachBuffers(cfg.arena) {
		n.rebindTopology()
	} else {
		n.buildTopology()
	}
	n.roundFn = func(i int) {
		v := n.step[i]
		n.done[v] = n.programs[v].Round(&n.ctxs[v], n.inboxes[v])
		n.inboxes[v] = n.inboxes[v][:0]
	}
	for v := 0; v < g.N(); v++ {
		n.programs[v] = factory(v)
	}
	// Init phase: all nodes, sequentially (Init does setup only). Every node
	// counts as stepped and not done, so round 1 steps them all.
	for v := 0; v < g.N(); v++ {
		n.programs[v].Init(&n.ctxs[v])
	}
	n.deliver()
	return n
}

// attachBuffers borrows the network's flat buffers from a, or from an
// arena of arenaPool if a is nil or busy, and fixes the starting round
// stamp. It reports whether the buffers already hold the topology of n.g
// (the arena's last graph), in which case only rebindTopology is needed.
func (n *Network) attachBuffers(a *NetworkArena) (indexed bool) {
	p2 := 2 * n.g.M()
	if n.active != nil {
		p2 = 0
		for _, on := range n.active {
			if on {
				p2 += 2
			}
		}
	}
	if a == nil || a.busy {
		a = arenaPool.Get().(*NetworkArena)
	}
	a.busy = true
	n.arena = a
	n.stamp, indexed = a.acquire(n.g, p2, n.active != nil)
	n.slots, n.inboxArena = a.slots, a.inboxArena
	n.neighbors, n.sentStamp = a.neighbors, a.sentStamp
	n.outBack, n.nextSame = a.outBack, a.nextSame
	n.portStart, n.portAtU, n.portAtV = a.portStart, a.portAtU, a.portAtV
	n.ctxs, n.done, n.inboxes = a.ctxs, a.done, a.inboxes
	n.step, n.wake = a.step, a.wake
	n.nbrPort = a.nbrPort
	n.resetStep()
	return indexed
}

// wakeWords is the length of the wake bitset over nv nodes.
func wakeWords(nv int) int { return (nv + 63) / 64 }

// resetStep puts every node on the step list, as the Init phase steps them
// all, and zeroes the wake bitset, which a recycled buffer may not be.
func (n *Network) resetStep() {
	for v := range n.step {
		n.step[v] = int32(v)
	}
	clear(n.wake)
}

// buildTopology fills the port index and per-node context views from the
// graph: one pass over all adjacency lists, O(n + m).
func (n *Network) buildTopology() {
	g := n.g
	nv := g.N()
	if n.active != nil {
		for e := range n.portAtU {
			n.portAtU[e], n.portAtV[e] = -1, -1
		}
	}
	n.portStart[0] = 0
	for v := 0; v < nv; v++ {
		deg := g.Degree(v)
		if n.active != nil {
			deg = 0
			for _, a := range g.Adj(v) {
				if n.active[a.Edge] {
					deg++
				}
			}
		}
		n.portStart[v+1] = n.portStart[v] + int32(deg)
	}
	for v := 0; v < nv; v++ {
		lo, hi := n.portStart[v], n.portStart[v+1]
		nbrs := n.neighbors[lo:hi:hi]
		i := 0
		for _, a := range g.Adj(v) {
			if n.active != nil && !n.active[a.Edge] {
				continue
			}
			e := g.Edge(a.Edge)
			nbrs[i] = Neighbor{ID: a.To, Edge: a.Edge, Weight: e.W}
			if v == e.U {
				n.portAtU[a.Edge] = int32(i)
			} else {
				n.portAtV[a.Edge] = int32(i)
			}
			i++
		}
		// Per-neighbour port chains: nbrPort[nbrKey(v, id)] is the lowest
		// port of v leading to id, nextSame links ports of the same
		// neighbour in ascending order (adjacency order is edge-insertion
		// order, so ascending port means ascending edge ID — the SendTo
		// tie-break).
		nextSame := n.nextSame[lo:hi:hi]
		for i := len(nbrs) - 1; i >= 0; i-- {
			key := nbrKey(v, nbrs[i].ID)
			if j, ok := n.nbrPort[key]; ok {
				nextSame[i] = j
			} else {
				nextSame[i] = -1
			}
			n.nbrPort[key] = int32(i)
		}
		n.ctxs[v] = Context{
			node:      v,
			n:         nv,
			net:       n,
			neighbors: nbrs,
			sentStamp: n.sentStamp[lo:hi:hi],
			outSlots:  n.outBack[lo:lo:hi],
			slotBase:  lo,
			nextSame:  nextSame,
		}
		n.inboxes[v] = n.inboxArena[lo:lo:hi]
		n.done[v] = false
	}
}

// rebindTopology adopts the topology an arena already built for n.g: it
// points every context at this network and empties the per-round state the
// previous borrower left behind, O(n).
func (n *Network) rebindTopology() {
	for v := range n.ctxs {
		ctx := &n.ctxs[v]
		ctx.net = n
		ctx.outSlots = ctx.outSlots[:0]
		n.inboxes[v] = n.inboxes[v][:0]
	}
	clear(n.done)
}

// deliver moves every slot written this round into its destination inbox, in
// sender-ID then send order (the order a sequential scan of per-node out
// queues would produce), rebuilds the step list for the next round, and
// advances the round stamp, which clears all per-port send state in O(1).
//
// Only the nodes just stepped can have sent mail, and their inboxes were
// emptied when they were stepped, so deliver walks only their contexts and
// the receivers' inboxes. The next list holds the stepped nodes that
// returned not-done and every receiver. A sparse round marks them in the
// wake bitset and reads it back word by word: O(stepped nodes + messages),
// plus n/64 words. A dense round, one that stepped at least a quarter of
// the nodes, skips the marking and keeps every node v with !done[v] or
// mail, in one branch-free pass over all nodes: that is exact because a
// node off the list returned done when last stepped and has had no mail.
//
//kecss:alloc-free
func (n *Network) deliver() {
	var delivered int64
	step := n.step[:0]
	if 4*len(n.step) >= len(n.ctxs) {
		for _, v := range n.step {
			delivered += n.deliverFrom(&n.ctxs[v])
		}
		step = step[:len(n.ctxs)]
		k := 0
		for v, inbox := range n.inboxes {
			step[k] = int32(v)
			k += b2i(!n.done[v]) | b2i(len(inbox) > 0)
		}
		step = step[:k]
	} else {
		wake := n.wake
		for _, v := range n.step {
			if !n.done[v] {
				wake[v>>6] |= 1 << (v & 63)
			}
			ctx := &n.ctxs[v]
			for _, s := range ctx.outSlots {
				to := n.slots[s].To
				wake[to>>6] |= 1 << (to & 63)
			}
			delivered += n.deliverFrom(ctx)
		}
		for w, word := range wake {
			if word == 0 {
				continue
			}
			wake[w] = 0
			base := int32(w << 6)
			for ; word != 0; word &= word - 1 {
				step = append(step, base+int32(bits.TrailingZeros64(word)))
			}
		}
	}
	n.step = step
	n.metrics.Messages += delivered
	n.metrics.Bits += delivered * int64(Payload{}.Bits())
	n.stamp++
	if n.stamp == 0 { // uint32 wraparound after ~4·10⁹ rounds
		// Clear the full backing, not just the current view: a recycled
		// buffer may be larger than 2m, and a stale tail would outlive the
		// restarted counter (same invariant as the arena's headroom reset).
		clear(n.sentStamp[:cap(n.sentStamp)])
		n.stamp = 1
	}
}

// deliverFrom appends the messages ctx's node sent this round to their
// receivers' inboxes and empties its out-list, returning the count.
//
//kecss:alloc-free
func (n *Network) deliverFrom(ctx *Context) int64 {
	for _, s := range ctx.outSlots {
		m := &n.slots[s]
		n.inboxes[m.To] = append(n.inboxes[m.To], *m)
	}
	sent := int64(len(ctx.outSlots))
	ctx.outSlots = ctx.outSlots[:0]
	return sent
}

// b2i is 1 for true and 0 for false; the compiler emits no branch for it.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Step executes one synchronous round over the step list. It returns true
// if the network has quiesced: every node reported done and no messages are
// in flight, that is, the next round would step no node.
//
//kecss:alloc-free
func (n *Network) Step() bool {
	if n.released {
		panic("congest: Step on a network whose arena buffers were released (Run already finished)")
	}
	n.metrics.Rounds++
	n.exec.RunRound(len(n.step), n.roundFn)
	n.deliver()
	return len(n.step) == 0
}

// Run executes rounds until quiescence or maxRounds, returning the metrics.
// It returns an error if the round budget is exhausted, which in this
// repository always indicates a non-terminating algorithm bug or an
// insufficient budget, never a legitimate outcome.
//
// Run returns the borrowed buffers to their arena before returning: final
// program state (Program), Metrics and Graph remain readable, but further
// Step calls panic.
func (n *Network) Run(maxRounds int) (Metrics, error) {
	defer n.release()
	for r := 0; r < maxRounds; r++ {
		if n.Step() {
			return n.metrics, nil
		}
	}
	return n.metrics, fmt.Errorf("congest: no quiescence within %d rounds", maxRounds)
}

// release returns the borrowed buffers to the arena, and the arena to
// arenaPool if it came from there. Idempotent.
func (n *Network) release() {
	a := n.arena
	if n.released {
		return
	}
	n.released = true
	// The contexts stay in the arena: drop their network pointers so the
	// idle arena does not keep this network's programs alive.
	for v := range n.ctxs {
		n.ctxs[v].net = nil
	}
	a.stamp = n.stamp
	a.busy = false
	if a.pooled {
		arenaPool.Put(a)
	}
}

// Metrics returns the metrics accumulated so far.
func (n *Network) Metrics() Metrics { return n.metrics }

// Program returns the program instance running at vertex v, so callers can
// read its final local state (the standard way a distributed algorithm's
// output is defined: each vertex knows its part). Valid even after Run has
// returned the network's buffers to an arena.
func (n *Network) Program(v int) Program { return n.programs[v] }

// Graph returns the underlying communication graph.
func (n *Network) Graph() *graph.Graph { return n.g }
