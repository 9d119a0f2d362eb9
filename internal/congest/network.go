package congest

import (
	"fmt"

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
	inboxes  [][]Message // per-node views into inboxArena, reset each round

	// Flat buffers, carved per node by portStart. All are either freshly
	// allocated or borrowed from a NetworkArena.
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

	roundFn  func(v int) // per-round executor callback, built once
	stamp    uint32      // current round stamp (strictly increasing)
	metrics  Metrics
	arena    *NetworkArena // non-nil if buffers are borrowed
	released bool          // arena buffers returned; stepping is an error
}

// config collects option state before buffers are allocated; it exists only
// inside NewNetwork, before the arena loan is even taken.
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

// WithArena makes the network borrow its buffers from a, avoiding
// re-allocation across repeated NewNetwork calls. See NetworkArena for the
// ownership rules.
func WithArena(a *NetworkArena) Option {
	return func(c *config) { c.arena = a }
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
	n.roundFn = func(v int) {
		n.done[v] = n.programs[v].Round(&n.ctxs[v], n.inboxes[v])
	}
	for v := 0; v < g.N(); v++ {
		n.programs[v] = factory(v)
	}
	// Init phase: all nodes, sequentially (Init does setup only).
	for v := 0; v < g.N(); v++ {
		n.programs[v].Init(&n.ctxs[v])
	}
	n.deliver()
	return n
}

// attachBuffers points the network's flat buffers at freshly allocated or
// arena-recycled memory and fixes the starting round stamp. It reports
// whether the buffers already hold the topology of n.g (an arena's last
// graph), in which case only rebindTopology is needed.
func (n *Network) attachBuffers(a *NetworkArena) (indexed bool) {
	nv, m := n.g.N(), n.g.M()
	p2 := 2 * m
	if n.active != nil {
		p2 = 0
		for _, on := range n.active {
			if on {
				p2 += 2
			}
		}
	}
	if a != nil && !a.busy {
		a.busy = true
		n.arena = a
		n.stamp, indexed = a.acquire(n.g, p2, n.active != nil)
		n.slots, n.inboxArena = a.slots, a.inboxArena
		n.neighbors, n.sentStamp = a.neighbors, a.sentStamp
		n.outBack, n.nextSame = a.outBack, a.nextSame
		n.portStart, n.portAtU, n.portAtV = a.portStart, a.portAtU, a.portAtV
		n.ctxs, n.done, n.inboxes = a.ctxs, a.done, a.inboxes
		n.nbrPort = a.nbrPort
		return indexed
	}
	n.stamp = 1
	n.slots = make([]Message, p2)
	n.inboxArena = make([]Message, p2)
	n.neighbors = make([]Neighbor, p2)
	n.sentStamp = make([]uint32, p2)
	i32 := make([]int32, 2*p2+2*m)
	n.outBack, n.nextSame = i32[:p2:p2], i32[p2:2*p2:2*p2]
	n.portAtU, n.portAtV = i32[2*p2:2*p2+m:2*p2+m], i32[2*p2+m:]
	n.portStart = make([]int32, nv+1)
	n.ctxs = make([]Context, nv)
	n.done = make([]bool, nv)
	n.inboxes = make([][]Message, nv)
	n.nbrPort = make(map[int64]int32, p2)
	return false
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
// queues would produce), and advances the round stamp, which clears all
// per-port send state in O(1).
//
//kecss:alloc-free
func (n *Network) deliver() {
	for v := range n.inboxes {
		n.inboxes[v] = n.inboxes[v][:0]
	}
	var delivered int64
	for v := range n.ctxs {
		ctx := &n.ctxs[v]
		for _, s := range ctx.outSlots {
			m := &n.slots[s]
			n.inboxes[m.To] = append(n.inboxes[m.To], *m)
		}
		delivered += int64(len(ctx.outSlots))
		ctx.outSlots = ctx.outSlots[:0]
	}
	n.metrics.Messages += delivered
	n.metrics.Bits += delivered * int64(Payload{}.Bits())
	n.stamp++
	if n.stamp == 0 { // uint32 wraparound after ~4·10⁹ rounds
		// Clear the full backing, not just the current view: arena-borrowed
		// buffers may be larger than 2m, and a stale tail would outlive the
		// restarted counter (same invariant as the arena's headroom reset).
		clear(n.sentStamp[:cap(n.sentStamp)])
		n.stamp = 1
	}
}

// Step executes one synchronous round. It returns true if the network has
// quiesced: every node reported done and no messages are in flight.
//
//kecss:alloc-free
func (n *Network) Step() bool {
	if n.released {
		panic("congest: Step on a network whose arena buffers were released (Run already finished)")
	}
	n.metrics.Rounds++
	n.exec.RunRound(n.g.N(), n.roundFn)
	n.deliver()
	allDone := true
	for v := range n.done {
		if !n.done[v] {
			allDone = false
			break
		}
	}
	inFlight := false
	for v := range n.inboxes {
		if len(n.inboxes[v]) > 0 {
			inFlight = true
			break
		}
	}
	return allDone && !inFlight
}

// Run executes rounds until quiescence or maxRounds, returning the metrics.
// It returns an error if the round budget is exhausted, which in this
// repository always indicates a non-terminating algorithm bug or an
// insufficient budget, never a legitimate outcome.
//
// When the network was built with WithArena, Run returns the borrowed
// buffers to the arena before returning: final program state (Program),
// Metrics and Graph remain readable, but further Step calls panic.
func (n *Network) Run(maxRounds int) (Metrics, error) {
	defer n.release()
	for r := 0; r < maxRounds; r++ {
		if n.Step() {
			return n.metrics, nil
		}
	}
	return n.metrics, fmt.Errorf("congest: no quiescence within %d rounds", maxRounds)
}

// release returns arena-borrowed buffers. Idempotent; no-op for networks
// with privately owned buffers.
func (n *Network) release() {
	a := n.arena
	if a == nil || n.released {
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
