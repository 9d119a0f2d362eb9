// Package congest simulates the synchronous CONGEST model of distributed
// computing used by the paper: n processors, one per graph vertex,
// communicating over the graph edges in synchronous rounds, where each edge
// can carry one O(log n)-bit message in each direction per round.
//
// Algorithms are written as per-node Programs. The simulator enforces the
// model's constraints (bounded message size, one message per edge direction
// per round) and accounts rounds and messages, which is what the paper's
// theorems are about.
//
// # Simulator architecture
//
// The hot path is allocation-free in steady state. Five mechanisms make a
// simulated round cost O(stepped nodes + messages) machine work with zero
// heap growth:
//
//   - Event-driven stepping. A round calls Round only on the nodes of its
//     step list: those that returned not-done last round and those that
//     received mail. deliver rebuilds the list in ascending vertex order,
//     without a sort: after a sparse round from a wake bitset scanned word
//     by word, after a dense one (a quarter of the nodes or more stepped)
//     by one branch-free pass over the nodes. The network has quiesced
//     when the list is empty.
//
//   - Port indexing. A node's incident edges are its ports 0..deg-1, in
//     adjacency order (only the active ones, for a network restricted with
//     WithActiveEdges). NewNetwork builds, once, a global edge→port index
//     (portAtU/portAtV, one int32 per edge endpoint) and a network-wide
//     (node, neighbour)→lowest-port map chained through per-port nextSame
//     links, so Send and SendTo resolve an edge or neighbour to a port in
//     O(1) instead of scanning the neighbour list.
//
//   - Round-stamped send state. The model admits at most one message per
//     edge direction per round. Instead of a per-round map of used edges,
//     each port carries a uint32 stamp; a port is "used this round" iff its
//     stamp equals the network's current round stamp, so clearing the send
//     state of the whole network is a single integer increment.
//
//   - Slot delivery. All messages in flight live in a flat []Message with
//     one slot per port (2m for a network over all of g): the message
//     leaving node v on its port i sits in slot portStart[v]+i. Send writes
//     the message into its slot (each slot has exactly one possible writer
//     per round, so parallel executors need no locks) and records the slot
//     in the sender's out-list. deliver copies slots into per-node inbox
//     views — fixed-capacity sub-slices of a second flat per-port arena,
//     partitioned by receiver degree — in sender-ID order, preserving the
//     exact inbox ordering of a sequential simulator. Only stepped nodes
//     send, so walking the ascending step list visits every sender.
//
//   - Buffer reuse. Every buffer above is sized by n and the port count and
//     carved out of a handful of flat allocations. A NetworkArena recycles
//     them across repeated NewNetwork calls (see arena.go), so repetition
//     sweeps construct networks without re-allocating contexts, inboxes or
//     neighbour tables. The arena also builds the topology (port index,
//     neighbour tables, nbrPort) once per graph, keyed on the
//     graph's identity and edge count: a multi-phase algorithm that builds
//     many networks over one graph pays O(n + m) for the first and O(n) for
//     each later one.
//
// Executors (see executor.go) decide how a round's per-node Round calls run:
// sequentially (SequentialExecutor) or on a persistent work-stealing worker
// pool (ParallelExecutor). Both produce byte-identical results and Metrics
// because programs touch only per-node state and delivery order is fixed by
// the network, not the executor.
//
//kecss:deterministic
package congest

import "fmt"

// Payload is the content of one CONGEST message: a small constant number of
// O(log n)-bit fields. IDs, weights, counts and labels in the paper all fit
// in O(log n) bits, so a Payload of a few int64 fields is a faithful
// O(log n)-bit message. Kind distinguishes message types within a Program.
type Payload struct {
	Kind       int8
	A, B, C, D int64
}

// Bits returns the nominal size of the payload in bits, for congestion
// accounting: 8 bits of kind plus 64 per field.
func (p Payload) Bits() int { return 8 + 4*64 }

// Message is a payload in transit over one edge in one direction.
type Message struct {
	From int // sender vertex
	To   int // receiver vertex
	Edge int // graph edge ID it travelled on
	Payload
}

// Neighbor describes one incident edge as seen from a node.
type Neighbor struct {
	ID     int   // neighbouring vertex id
	Edge   int   // edge ID
	Weight int64 // edge weight (known to both endpoints initially, per the model)
}

// Context is a node's handle to the network during a round. It is only valid
// during the Init/Round call it was passed to.
type Context struct {
	node      int
	n         int
	net       *Network
	neighbors []Neighbor // port-indexed incident edges
	sentStamp []uint32   // per port: == net.stamp iff used this round
	outSlots  []int32    // slots written this round, in send order
	slotBase  int32      // port i's message slot is slotBase+i
	nextSame  []int32    // per port: next port with the same neighbour, -1 if none
}

// Node returns this node's vertex ID.
func (c *Context) Node() int { return c.node }

// N returns the number of vertices in the network. The paper assumes nodes
// know n (learnable in O(D) rounds over a BFS tree).
func (c *Context) N() int { return c.n }

// Neighbors returns the node's incident edges, indexed by port. Callers must
// not mutate it.
func (c *Context) Neighbors() []Neighbor { return c.neighbors }

// Send queues a message on the given incident edge. It panics if the edge is
// not incident to this node (or not one of the network's active edges, see
// WithActiveEdges) or if a second message is sent on the same edge in the
// same round — both violate the CONGEST model and indicate a bug in the
// algorithm, not a runtime condition.
//
//kecss:alloc-free
func (c *Context) Send(edge int, p Payload) {
	net := c.net
	if edge < 0 || edge >= net.g.M() {
		panic(fmt.Sprintf("congest: node %d sending on non-existent edge %d", c.node, edge))
	}
	e := net.g.Edge(edge)
	var port int32
	var to int
	switch c.node {
	case e.U:
		port, to = net.portAtU[edge], e.V
	case e.V:
		port, to = net.portAtV[edge], e.U
	default:
		panic(fmt.Sprintf("congest: node %d sending on non-incident edge %d", c.node, edge))
	}
	if port < 0 {
		panic(fmt.Sprintf("congest: node %d sending on inactive edge %d", c.node, edge))
	}
	c.sendPort(port, to, edge, p)
}

// sendPort performs the actual send on a resolved port: stamps it, writes
// the message into its slot and records the slot in send order.
//
//kecss:alloc-free
func (c *Context) sendPort(port int32, to, edge int, p Payload) {
	net := c.net
	if c.sentStamp[port] == net.stamp {
		panic(fmt.Sprintf("congest: node %d sent two messages on edge %d in one round", c.node, edge))
	}
	c.sentStamp[port] = net.stamp
	slot := c.slotBase + port
	net.slots[slot] = Message{From: c.node, To: to, Edge: edge, Payload: p}
	c.outSlots = append(c.outSlots, slot)
}

// SendTo queues a message to the named neighbour. If several parallel edges
// lead to that neighbour, the lowest-ID unused one is chosen.
func (c *Context) SendTo(neighbor int, p Payload) {
	stamp := c.net.stamp
	if port, ok := c.net.nbrPort[nbrKey(c.node, neighbor)]; ok {
		for ; port != -1; port = c.nextSame[port] {
			if c.sentStamp[port] != stamp {
				nb := &c.neighbors[port]
				c.sendPort(port, nb.ID, nb.Edge, p)
				return
			}
		}
	}
	panic(fmt.Sprintf("congest: node %d has no free edge to neighbour %d", c.node, neighbor))
}

// nbrKey packs a (node, neighbour) pair into the key of the network-wide
// neighbour→port map (vertex IDs are dense ints well below 2³²).
func nbrKey(node, neighbor int) int64 { return int64(node)<<32 | int64(neighbor) }

// Broadcast sends the same payload on every incident edge not yet used this
// round.
func (c *Context) Broadcast(p Payload) {
	stamp := c.net.stamp
	for port := range c.neighbors {
		if c.sentStamp[port] != stamp {
			nb := &c.neighbors[port]
			c.sendPort(int32(port), nb.ID, nb.Edge, p)
		}
	}
}

// Program is a distributed algorithm as run by a single node. The simulator
// creates one Program instance per vertex via a Factory.
//
// Init runs before round 1 and may send messages (they arrive in round 1).
// Every node is stepped in round 1. After that, Round is called in a round
// if the node returned false (not done) from its previous Round, or if mail
// arrived for it; it gets the messages received and returns true once the
// node is locally done. A node that returned true is not stepped again until
// mail wakes it, and may then un-done itself by returning false. The network
// quiesces when every node is done and no messages are in flight, matching
// the standard "termination by quiescence" convention.
//
// A Program must therefore do nothing in a Round with an empty inbox after
// it returned true: such calls no longer happen. A node that only waits for
// mail should return true rather than be stepped in every round.
type Program interface {
	Init(ctx *Context)
	Round(ctx *Context, inbox []Message) bool
}

// Factory builds the Program for vertex v.
type Factory func(v int) Program
