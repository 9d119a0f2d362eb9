// Package primitives implements the standard CONGEST building blocks the
// paper invokes ("we construct a BFS tree with root r in O(D) rounds [29]",
// "we can distribute ℓ different messages ... in O(D+ℓ) rounds using
// standard techniques") as genuine message-passing programs on the
// simulator: BFS-tree construction, tree aggregation (convergecast),
// tree broadcast, pipelined upcast of ℓ distinct items, and min-ID flooding.
//
//kecss:deterministic
package primitives

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/tree"
)

// message kinds used by the programs in this package.
const (
	kindBFSExplore int8 = iota + 1
	kindAggValue
	kindBcastValue
	kindUpcastItem
	kindMinID
)

// ---------------------------------------------------------------------------
// BFS tree construction: O(D) rounds.
// ---------------------------------------------------------------------------

type bfsProgram struct {
	root       int
	joined     bool
	dist       int64
	parent     int
	parentEdge int
	sent       bool
}

func (b *bfsProgram) Init(ctx *congest.Context) {
	b.parent = -1
	b.parentEdge = -1
	if ctx.Node() == b.root {
		b.joined = true
		b.sent = true
		ctx.Broadcast(congest.Payload{Kind: kindBFSExplore, A: 0})
	}
}

func (b *bfsProgram) Round(ctx *congest.Context, inbox []congest.Message) bool {
	if !b.joined {
		best := -1
		for i, m := range inbox {
			if m.Kind != kindBFSExplore {
				continue
			}
			if best == -1 || m.Edge < inbox[best].Edge {
				best = i
			}
		}
		if best != -1 {
			m := inbox[best]
			b.joined = true
			b.dist = m.A + 1
			b.parent = m.From
			b.parentEdge = m.Edge
		}
	}
	if b.joined && !b.sent {
		b.sent = true
		ctx.Broadcast(congest.Payload{Kind: kindBFSExplore, A: b.dist})
	}
	return b.joined
}

// ErrBFSNotSpanning reports that a BFS finished without reaching every
// vertex, i.e. the graph is disconnected. Callers that treat "disconnected"
// as a verdict rather than a failure (verify.Connectivity) test for it with
// errors.Is; every other BuildBFSTree error still indicates a genuine bug.
var ErrBFSNotSpanning = errors.New("BFS tree does not span the graph")

// BuildBFSTree constructs a BFS tree rooted at root by running the
// distributed BFS program, returning the tree and the simulation metrics.
// On a disconnected graph the returned error wraps ErrBFSNotSpanning and
// the metrics still report the rounds the failed BFS consumed.
func BuildBFSTree(g *graph.Graph, root int, opts ...congest.Option) (*tree.Rooted, congest.Metrics, error) {
	net := congest.NewNetwork(g, func(int) congest.Program {
		return &bfsProgram{root: root}
	}, opts...)
	m, runErr := net.Run(g.N() + 2)
	// Distinguish "some vertices never joined" (disconnected input — the
	// exploration wave cannot reach them, so the network never quiesces and
	// runErr fires) from a genuine non-termination bug: inspect the joined
	// flags directly instead of inferring from downstream tree validation.
	unreached := 0
	for v := 0; v < g.N(); v++ {
		if !net.Program(v).(*bfsProgram).joined {
			unreached++
		}
	}
	if unreached > 0 {
		return nil, m, fmt.Errorf("primitives: BFS from %d left %d of %d vertices unreached: %w",
			root, unreached, g.N(), ErrBFSNotSpanning)
	}
	if runErr != nil {
		return nil, m, fmt.Errorf("primitives: BFS did not quiesce: %w", runErr)
	}
	parent := make([]int, g.N())
	parentEdge := make([]int, g.N())
	for v := 0; v < g.N(); v++ {
		p := net.Program(v).(*bfsProgram)
		parent[v] = p.parent
		parentEdge[v] = p.parentEdge
	}
	tr, err := tree.FromParents(root, parent, parentEdge)
	if err != nil {
		return nil, m, fmt.Errorf("primitives: BFS produced invalid tree: %w", err)
	}
	return tr, m, nil
}

// ---------------------------------------------------------------------------
// Convergecast (tree aggregation): O(height) rounds.
// ---------------------------------------------------------------------------

// AggOp combines two O(log n)-bit values. It must be associative and
// commutative (sum, min, max, ...).
type AggOp func(a, b int64) int64

// Sum, Min and Max are the standard aggregation operators.
func Sum(a, b int64) int64 { return a + b }

// Min returns the smaller argument.
func Min(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// Max returns the larger argument.
func Max(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

type aggProgram struct {
	tr      *tree.Rooted
	op      AggOp
	acc     int64
	pending int // children not yet heard from
	sentUp  bool
	result  int64 // valid at root once done
}

func (a *aggProgram) Init(ctx *congest.Context) {
	a.pending = len(a.tr.Children(ctx.Node()))
}

func (a *aggProgram) Round(ctx *congest.Context, inbox []congest.Message) bool {
	for _, m := range inbox {
		if m.Kind == kindAggValue {
			a.acc = a.op(a.acc, m.A)
			a.pending--
		}
	}
	v := ctx.Node()
	if a.pending == 0 && !a.sentUp {
		a.sentUp = true
		if v == a.tr.Root {
			a.result = a.acc
		} else {
			ctx.Send(a.tr.ParentEdge[v], congest.Payload{Kind: kindAggValue, A: a.acc})
		}
	}
	return a.sentUp
}

// Aggregate convergecasts values[v] over tr with op, returning the aggregate
// at the root. Height+O(1) rounds.
func Aggregate(g *graph.Graph, tr *tree.Rooted, values []int64, op AggOp, opts ...congest.Option) (int64, congest.Metrics, error) {
	net := congest.NewNetwork(g, func(v int) congest.Program {
		return &aggProgram{tr: tr, op: op, acc: values[v]}
	}, opts...)
	m, err := net.Run(tr.Height() + 3)
	if err != nil {
		return 0, m, fmt.Errorf("primitives: aggregate did not quiesce: %w", err)
	}
	return net.Program(tr.Root).(*aggProgram).result, m, nil
}

// ---------------------------------------------------------------------------
// Tree broadcast: O(height) rounds.
// ---------------------------------------------------------------------------

type bcastProgram struct {
	tr    *tree.Rooted
	value int64
	have  bool
	sent  bool
}

func (b *bcastProgram) Init(ctx *congest.Context) {
	if ctx.Node() == b.tr.Root {
		b.have = true
		b.forward(ctx)
	}
}

func (b *bcastProgram) forward(ctx *congest.Context) {
	b.sent = true
	for _, c := range b.tr.Children(ctx.Node()) {
		ctx.SendTo(c, congest.Payload{Kind: kindBcastValue, A: b.value})
	}
}

func (b *bcastProgram) Round(ctx *congest.Context, inbox []congest.Message) bool {
	for _, m := range inbox {
		if m.Kind == kindBcastValue && !b.have {
			b.have = true
			b.value = m.A
		}
	}
	if b.have && !b.sent {
		b.forward(ctx)
	}
	return b.have
}

// BroadcastValue sends value from the root down tr; every vertex learns it.
// Returns the value as received at each vertex.
func BroadcastValue(g *graph.Graph, tr *tree.Rooted, value int64) ([]int64, congest.Metrics, error) {
	net := congest.NewNetwork(g, func(v int) congest.Program {
		p := &bcastProgram{tr: tr}
		if v == tr.Root {
			p.value = value
		}
		return p
	})
	m, err := net.Run(tr.Height() + 3)
	if err != nil {
		return nil, m, fmt.Errorf("primitives: broadcast did not quiesce: %w", err)
	}
	out := make([]int64, g.N())
	for v := range out {
		out[v] = net.Program(v).(*bcastProgram).value
	}
	return out, m, nil
}

// ---------------------------------------------------------------------------
// Pipelined upcast: root learns all distinct items in O(height + ℓ) rounds.
// ---------------------------------------------------------------------------

type upcastProgram struct {
	tr *tree.Rooted
	// pending items to forward up, kept sorted ascending; known tracks items
	// already seen (so duplicates from different subtrees are sent once).
	pending []int64
	known   map[int64]bool
	root    bool
}

func (u *upcastProgram) Init(ctx *congest.Context) {
	u.root = ctx.Node() == u.tr.Root
	sort.Slice(u.pending, func(i, j int) bool { return u.pending[i] < u.pending[j] })
}

func (u *upcastProgram) Round(ctx *congest.Context, inbox []congest.Message) bool {
	for _, m := range inbox {
		if m.Kind != kindUpcastItem {
			continue
		}
		if !u.known[m.A] {
			u.known[m.A] = true
			u.insert(m.A)
		}
	}
	if !u.root && len(u.pending) > 0 {
		item := u.pending[0]
		u.pending = u.pending[1:]
		ctx.Send(u.tr.ParentEdge[ctx.Node()], congest.Payload{Kind: kindUpcastItem, A: item})
	}
	return u.root || len(u.pending) == 0
}

func (u *upcastProgram) insert(x int64) {
	i := sort.Search(len(u.pending), func(i int) bool { return u.pending[i] >= x })
	u.pending = append(u.pending, 0)
	copy(u.pending[i+1:], u.pending[i:])
	u.pending[i] = x
}

// Upcast sends every distinct item in items[v] (for all v) to the root via
// pipelined convergecast. The classic pipelining argument gives height + ℓ
// rounds, where ℓ is the number of distinct items. Returns the distinct
// items collected at the root, sorted.
func Upcast(g *graph.Graph, tr *tree.Rooted, items [][]int64, opts ...congest.Option) ([]int64, congest.Metrics, error) {
	distinct := make(map[int64]bool)
	for _, list := range items {
		for _, x := range list {
			distinct[x] = true
		}
	}
	net := congest.NewNetwork(g, func(v int) congest.Program {
		known := make(map[int64]bool, len(items[v]))
		var pending []int64
		for _, x := range items[v] {
			if !known[x] {
				known[x] = true
				pending = append(pending, x)
			}
		}
		return &upcastProgram{tr: tr, pending: pending, known: known}
	}, opts...)
	m, err := net.Run(tr.Height() + len(distinct) + 3)
	if err != nil {
		return nil, m, fmt.Errorf("primitives: upcast did not quiesce: %w", err)
	}
	rp := net.Program(tr.Root).(*upcastProgram)
	out := make([]int64, 0, len(rp.known))
	for x := range rp.known {
		out = append(out, x)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, m, nil
}

// ---------------------------------------------------------------------------
// Min-ID flooding (leader election): O(D) rounds by quiescence.
// ---------------------------------------------------------------------------

type minIDProgram struct {
	best      int64
	announced int64
}

func (p *minIDProgram) Init(ctx *congest.Context) {
	p.best = int64(ctx.Node())
	p.announced = -1
}

func (p *minIDProgram) Round(ctx *congest.Context, inbox []congest.Message) bool {
	improved := false
	for _, m := range inbox {
		if m.Kind == kindMinID && m.A < p.best {
			p.best = m.A
			improved = true
		}
	}
	if p.announced != p.best && (improved || p.announced == -1) {
		p.announced = p.best
		ctx.Broadcast(congest.Payload{Kind: kindMinID, A: p.best})
		return false
	}
	return true
}

// ElectLeader floods vertex IDs until every vertex knows the global minimum
// (the paper's choice of BFS root). Terminates by quiescence in O(D) rounds.
func ElectLeader(g *graph.Graph, opts ...congest.Option) (int, congest.Metrics, error) {
	net := congest.NewNetwork(g, func(int) congest.Program { return &minIDProgram{} }, opts...)
	m, err := net.Run(2*g.N() + 4)
	if err != nil {
		return -1, m, fmt.Errorf("primitives: leader election did not quiesce: %w", err)
	}
	leader := net.Program(0).(*minIDProgram).best
	for v := 0; v < g.N(); v++ {
		if got := net.Program(v).(*minIDProgram).best; got != leader {
			return -1, m, fmt.Errorf("primitives: leader disagreement at vertex %d: %d vs %d: %w",
				v, got, leader, ErrNoGlobalLeader)
		}
	}
	return int(leader), m, nil
}

// ErrNoGlobalLeader reports that min-ID flooding quiesced with different
// components holding different minima — which happens exactly when the graph
// is disconnected. Like ErrBFSNotSpanning, callers verifying connectivity
// treat it as a verdict, not a failure.
var ErrNoGlobalLeader = errors.New("leader election disagreed (graph disconnected)")
