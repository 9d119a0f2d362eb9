package congest

import (
	"reflect"
	"testing"

	"repro/internal/graph"
)

// floodProgram floods a token from vertex 0; every node records the round in
// which it first heard the token. The token reaches distance-d vertices in
// round d+1 of the simulation (Init sends arrive at round 1).
type floodProgram struct {
	heardAt int
	sent    bool
}

func (f *floodProgram) Init(ctx *Context) {
	f.heardAt = -1
	if ctx.Node() == 0 {
		f.heardAt = 0
		f.sent = true
		ctx.Broadcast(Payload{Kind: 1})
	}
}

func (f *floodProgram) Round(ctx *Context, inbox []Message) bool {
	if f.heardAt == -1 && len(inbox) > 0 {
		f.heardAt = 0 // will be set by the test via metrics; mark as heard
	}
	if f.heardAt != -1 && !f.sent {
		f.sent = true
		ctx.Broadcast(Payload{Kind: 1})
	}
	return f.heardAt != -1
}

func TestFloodTerminatesInDiameterRounds(t *testing.T) {
	g := graph.Cycle(10, graph.UnitWeights())
	for _, exec := range []Executor{SequentialExecutor{}, ParallelExecutor{}} {
		net := NewNetwork(g, func(int) Program { return &floodProgram{} }, WithExecutor(exec))
		m, err := net.Run(100)
		if err != nil {
			t.Fatalf("%T: %v", exec, err)
		}
		d := g.Diameter()
		// Flood needs exactly D rounds to inform everyone plus <=1 quiesce round.
		if m.Rounds < d || m.Rounds > d+2 {
			t.Errorf("%T: rounds = %d, want about D=%d", exec, m.Rounds, d)
		}
		for v := 0; v < g.N(); v++ {
			if net.Program(v).(*floodProgram).heardAt == -1 {
				t.Errorf("%T: vertex %d never heard the flood", exec, v)
			}
		}
	}
}

func TestRunErrorsWhenBudgetExhausted(t *testing.T) {
	g := graph.Cycle(4, graph.UnitWeights())
	// A program that never finishes.
	net := NewNetwork(g, func(int) Program { return neverDone{} })
	if _, err := net.Run(5); err == nil {
		t.Fatal("expected round-budget error")
	}
}

type neverDone struct{}

func (neverDone) Init(*Context)                  {}
func (neverDone) Round(*Context, []Message) bool { return false }

func TestDoubleSendOnEdgePanics(t *testing.T) {
	g := graph.Cycle(3, graph.UnitWeights())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double send")
		}
	}()
	NewNetwork(g, func(int) Program { return doubleSender{} })
}

type doubleSender struct{}

func (doubleSender) Init(ctx *Context) {
	e := ctx.Neighbors()[0].Edge
	ctx.Send(e, Payload{})
	ctx.Send(e, Payload{})
}
func (doubleSender) Round(*Context, []Message) bool { return true }

func TestSendOnNonIncidentEdgePanics(t *testing.T) {
	g := graph.Cycle(4, graph.UnitWeights())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on non-incident edge")
		}
	}()
	NewNetwork(g, func(v int) Program { return badEdgeSender{} })
}

type badEdgeSender struct{}

func (badEdgeSender) Init(ctx *Context) {
	// Edge 2 (between vertices 2 and 3) is not incident to vertices 0.
	if ctx.Node() == 0 {
		ctx.Send(2, Payload{})
	}
}
func (badEdgeSender) Round(*Context, []Message) bool { return true }

func TestMessageAccounting(t *testing.T) {
	g := graph.Cycle(5, graph.UnitWeights())
	net := NewNetwork(g, func(int) Program { return oneShot{} })
	m, err := net.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	// Every node broadcasts once in Init: 2 messages per node on a cycle.
	if m.Messages != 10 {
		t.Errorf("messages = %d, want 10", m.Messages)
	}
	if m.Bits != 10*int64(Payload{}.Bits()) {
		t.Errorf("bits = %d", m.Bits)
	}
}

type oneShot struct{}

func (oneShot) Init(ctx *Context)              { ctx.Broadcast(Payload{Kind: 7}) }
func (oneShot) Round(*Context, []Message) bool { return true }

func TestSendToNeighbor(t *testing.T) {
	g := graph.New(2)
	g.AddEdge(0, 1, 1)
	var got []Message
	net := NewNetwork(g, func(v int) Program {
		return &captor{target: 1 - v, out: &got, me: v}
	})
	if _, err := net.Run(10); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("captured %d messages, want 2", len(got))
	}
}

type captor struct {
	target int
	me     int
	out    *[]Message
	sent   bool
}

func (c *captor) Init(ctx *Context) {
	ctx.SendTo(c.target, Payload{Kind: 3, A: int64(c.me)})
	c.sent = true
}

func (c *captor) Round(_ *Context, inbox []Message) bool {
	*c.out = append(*c.out, inbox...)
	return true
}

// TestSendToParallelEdges checks the documented SendTo tie-break on a
// multigraph: repeated sends to the same neighbour in one round use unused
// parallel edges in ascending edge-ID order.
func TestSendToParallelEdges(t *testing.T) {
	g := graph.New(2)
	e0 := g.AddEdge(0, 1, 1)
	e1 := g.AddEdge(0, 1, 1)
	e2 := g.AddEdge(0, 1, 1)
	var got []Message
	net := NewNetwork(g, func(v int) Program {
		if v == 0 {
			return &tripleSender{}
		}
		return &captor{target: 0, out: &got, me: v}
	})
	if _, err := net.Run(10); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("captured %d messages, want 3", len(got))
	}
	for i, wantEdge := range []int{e0, e1, e2} {
		if got[i].Edge != wantEdge {
			t.Errorf("message %d travelled edge %d, want %d (ascending edge IDs)", i, got[i].Edge, wantEdge)
		}
	}
}

type tripleSender struct{ sent bool }

func (s *tripleSender) Init(ctx *Context) {
	for i := int64(0); i < 3; i++ {
		ctx.SendTo(1, Payload{Kind: 4, A: i})
	}
	s.sent = true
}
func (s *tripleSender) Round(*Context, []Message) bool { return true }

// withArena pins a: the network borrows it if it is idle, and an arena of
// arenaPool otherwise. An arena the test makes never enters the pool.
func withArena(a *NetworkArena) Option {
	return func(c *config) { c.arena = a }
}

// TestArenaReuse runs simulations of different shapes and sizes through one
// arena and checks each against a reference run on a fresh arena.
func TestArenaReuse(t *testing.T) {
	arena := new(NetworkArena)
	graphs := []*graph.Graph{
		graph.Cycle(10, graph.UnitWeights()),
		graph.Grid(4, 12, graph.UnitWeights()),
		graph.Cycle(6, graph.UnitWeights()),
	}
	for rep := 0; rep < 3; rep++ {
		for gi, g := range graphs {
			fresh := NewNetwork(g, func(int) Program { return &floodProgram{} }, withArena(new(NetworkArena)))
			wantM, err := fresh.Run(100)
			if err != nil {
				t.Fatal(err)
			}
			reused := NewNetwork(g, func(int) Program { return &floodProgram{} }, withArena(arena))
			gotM, err := reused.Run(100)
			if err != nil {
				t.Fatalf("rep %d graph %d: %v", rep, gi, err)
			}
			if gotM != wantM {
				t.Errorf("rep %d graph %d: arena metrics %+v, want %+v", rep, gi, gotM, wantM)
			}
			for v := 0; v < g.N(); v++ {
				if reused.Program(v).(*floodProgram).heardAt != fresh.Program(v).(*floodProgram).heardAt {
					t.Errorf("rep %d graph %d: vertex %d state diverges under arena reuse", rep, gi, v)
				}
			}
		}
	}
}

// TestArenaStampResetClearsFullBacking forces the stamp-headroom reset while
// the arena's current sentStamp view is smaller than its backing array, then
// reuses the full backing: stale stamps beyond the shrunken view must not
// survive the reset and read as "port already used".
func TestArenaStampResetClearsFullBacking(t *testing.T) {
	arena := new(NetworkArena)
	big := graph.Cycle(64, graph.UnitWeights())
	small := graph.Cycle(8, graph.UnitWeights())
	run := func(a *NetworkArena, g *graph.Graph, p func() Program) Metrics {
		net := NewNetwork(g, func(int) Program { return p() }, withArena(a))
		m, err := net.Run(200)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	countdown := func() Program { return &countdownBroadcaster{left: 50} }
	// A node that stays silent until round 50 first touches its ports at
	// exactly the stamp value the first run left behind (its last broadcast
	// round) — the one access pattern that can meet a stale stamp.
	delayed := func() Program { return &delayedBroadcaster{wait: 50} }

	run(arena, big, countdown) // leaves stamp 51 on all 128 ports
	run(arena, small, countdown)
	arena.stamp = 1 << 31 // force the headroom reset on the next acquire
	got := run(arena, big, delayed)
	want := run(new(NetworkArena), big, delayed)
	if got != want {
		t.Errorf("big graph after stamp reset: metrics %+v, want %+v", got, want)
	}
}

// countdownBroadcaster broadcasts on every port for a fixed number of rounds.
type countdownBroadcaster struct{ left int }

func (c *countdownBroadcaster) Init(*Context) {}
func (c *countdownBroadcaster) Round(ctx *Context, _ []Message) bool {
	if c.left > 0 {
		c.left--
		ctx.Broadcast(Payload{Kind: 9})
	}
	return c.left == 0
}

// delayedBroadcaster is silent until its wait elapses, then broadcasts once.
type delayedBroadcaster struct{ wait int }

func (d *delayedBroadcaster) Init(*Context) {}
func (d *delayedBroadcaster) Round(ctx *Context, _ []Message) bool {
	d.wait--
	if d.wait == 0 {
		ctx.Broadcast(Payload{Kind: 9})
	}
	return d.wait <= 0
}

// TestArenaStepAfterRunPanics pins the ownership rule: once Run returns a
// network's buffers, stepping it again must fail loudly rather than corrupt
// a successor network.
func TestArenaStepAfterRunPanics(t *testing.T) {
	g := graph.Cycle(4, graph.UnitWeights())
	net := NewNetwork(g, func(int) Program { return oneShot{} })
	if _, err := net.Run(10); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic stepping a released network")
		}
	}()
	net.Step()
}

// TestArenaNestedFallsBack checks that a second network pinned to a busy
// arena gets a pooled one instead of corrupting the first.
func TestArenaNestedFallsBack(t *testing.T) {
	g := graph.Cycle(8, graph.UnitWeights())
	arena := new(NetworkArena)
	outer := NewNetwork(g, func(int) Program { return &floodProgram{} }, withArena(arena))
	inner := NewNetwork(g, func(int) Program { return &floodProgram{} }, withArena(arena))
	if inner.arena == arena || !inner.arena.pooled {
		t.Fatal("nested network did not take a pooled arena")
	}
	im, err := inner.Run(100)
	if err != nil {
		t.Fatal(err)
	}
	om, err := outer.Run(100)
	if err != nil {
		t.Fatal(err)
	}
	if im != om {
		t.Errorf("inner metrics %+v differ from outer %+v", im, om)
	}
}

// logProgram floods the minimum vertex ID for a few rounds, mixing SendTo
// and Broadcast, and logs every message it receives: two runs leave equal
// program state only if every inbox matched message for message.
type logProgram struct {
	min  int64
	left int
	log  []Message
}

func (p *logProgram) Init(ctx *Context) {
	p.min = int64(ctx.Node())
	p.left = 4
	ctx.Broadcast(Payload{Kind: 1, A: p.min})
}

func (p *logProgram) Round(ctx *Context, inbox []Message) bool {
	p.log = append(p.log, inbox...)
	for _, m := range inbox {
		p.min = min(p.min, m.A)
	}
	if p.left > 0 {
		p.left--
		nbrs := ctx.Neighbors()
		ctx.SendTo(nbrs[p.left%len(nbrs)].ID, Payload{Kind: 2, A: p.min})
		ctx.Broadcast(Payload{Kind: 3, A: p.min})
	}
	return p.left == 0
}

// runLogged runs logProgram on g (through arena a, or on a fresh arena if a
// is nil) and returns the metrics and every node's final program state.
func runLogged(t *testing.T, g *graph.Graph, a *NetworkArena, opts ...Option) (Metrics, []*logProgram) {
	t.Helper()
	if a == nil {
		a = new(NetworkArena)
	}
	progs := make([]*logProgram, g.N())
	net := NewNetwork(g, func(v int) Program {
		progs[v] = &logProgram{}
		return progs[v]
	}, append(opts, withArena(a))...)
	m, err := net.Run(100)
	if err != nil {
		t.Fatal(err)
	}
	return m, progs
}

// TestArenaTopologyAlternatingGraphs alternates one arena between two
// different graphs of the same n and m — same buffer sizes, different
// topology — and checks every run against a run on fresh buffers.
func TestArenaTopologyAlternatingGraphs(t *testing.T) {
	g1 := graph.Cycle(12, graph.UnitWeights())
	g1.AddEdge(0, 6, 1)
	g1.AddEdge(3, 9, 1)
	g1.AddEdge(3, 9, 1) // parallel edge
	g2 := graph.Cycle(12, graph.UnitWeights())
	g2.AddEdge(1, 7, 1)
	g2.AddEdge(2, 5, 1)
	g2.AddEdge(4, 11, 1)
	arena := new(NetworkArena)
	for i, g := range []*graph.Graph{g1, g1, g2, g2, g1, g2, g1} {
		wantM, want := runLogged(t, g, nil)
		gotM, got := runLogged(t, g, arena)
		if !reflect.DeepEqual(gotM, wantM) {
			t.Errorf("run %d: arena metrics %+v, want %+v", i, gotM, wantM)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("run %d: program state diverges under topology reuse", i)
		}
	}
}

// TestArenaTopologyBuiltOncePerGraph pins the reuse itself: a marker written
// into the arena's neighbour table survives the next network over the same
// graph (no rebuild) and is overwritten for another graph.
func TestArenaTopologyBuiltOncePerGraph(t *testing.T) {
	g := graph.Cycle(6, graph.UnitWeights())
	other := graph.Cycle(6, graph.UnitWeights())
	arena := new(NetworkArena)
	firstWeight := func(g *graph.Graph) int64 {
		net := NewNetwork(g, func(int) Program { return oneShot{} }, withArena(arena))
		w := net.ctxs[0].Neighbors()[0].Weight
		if _, err := net.Run(10); err != nil {
			t.Fatal(err)
		}
		return w
	}
	firstWeight(g)
	arena.neighbors[0].Weight = -1
	if w := firstWeight(g); w != -1 {
		t.Errorf("second network over the same graph rebuilt the topology")
	}
	if w := firstWeight(other); w != 1 {
		t.Errorf("network over another graph read weight %d from a stale topology, want 1", w)
	}
}

// TestArenaTopologyRebuildsAfterAddEdge grows a graph between two runs
// through one arena: the arena must re-index it, so the new edge accepts
// Send.
func TestArenaTopologyRebuildsAfterAddEdge(t *testing.T) {
	g := graph.Cycle(6, graph.UnitWeights())
	arena := new(NetworkArena)
	runLogged(t, g, arena)
	e := g.AddEdge(0, 3, 1)
	var got []Message
	net := NewNetwork(g, func(v int) Program {
		if v == 0 {
			return edgeSender{edge: e}
		}
		return sink{out: &got}
	}, withArena(arena))
	if _, err := net.Run(10); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Edge != e || got[0].To != 3 {
		t.Fatalf("received %+v, want one message on new edge %d to vertex 3", got, e)
	}
	wantM, want := runLogged(t, g, nil)
	gotM, gotProgs := runLogged(t, g, arena)
	if gotM != wantM || !reflect.DeepEqual(gotProgs, want) {
		t.Errorf("grown graph through arena diverges from a fresh run")
	}
}

// edgeSender sends one message on a fixed edge in Init.
type edgeSender struct{ edge int }

func (s edgeSender) Init(ctx *Context)              { ctx.Send(s.edge, Payload{Kind: 5}) }
func (s edgeSender) Round(*Context, []Message) bool { return true }

// sink records every message it receives and sends nothing.
type sink struct{ out *[]Message }

func (s sink) Init(*Context) {}
func (s sink) Round(_ *Context, inbox []Message) bool {
	*s.out = append(*s.out, inbox...)
	return true
}

// TestArenaTopologyReuseSendToParallelEdges repeats the SendTo tie-break
// check through one arena: runs after the first reuse the cached nbrPort
// chains and must still pick unused parallel edges in ascending ID order.
func TestArenaTopologyReuseSendToParallelEdges(t *testing.T) {
	g := graph.New(2)
	e0 := g.AddEdge(0, 1, 1)
	e1 := g.AddEdge(0, 1, 1)
	e2 := g.AddEdge(0, 1, 1)
	arena := new(NetworkArena)
	for rep := 0; rep < 3; rep++ {
		var got []Message
		net := NewNetwork(g, func(v int) Program {
			if v == 0 {
				return &tripleSender{}
			}
			return &captor{target: 0, out: &got, me: v}
		}, withArena(arena))
		if _, err := net.Run(10); err != nil {
			t.Fatal(err)
		}
		if len(got) != 3 {
			t.Fatalf("rep %d: captured %d messages, want 3", rep, len(got))
		}
		for i, wantEdge := range []int{e0, e1, e2} {
			if got[i].Edge != wantEdge {
				t.Errorf("rep %d: message %d travelled edge %d, want %d", rep, i, got[i].Edge, wantEdge)
			}
		}
	}
}

// runActive is runLogged on the network over g restricted to active.
func runActive(t *testing.T, g *graph.Graph, active []bool, a *NetworkArena) (Metrics, []*logProgram) {
	t.Helper()
	return runLogged(t, g, a, WithActiveEdges(active))
}

// TestActiveEdgesMatchSubgraph runs logProgram on a graph restricted to some
// of its edges and on the subgraph of exactly those edges: the restricted
// network must deliver the same messages (edge IDs mapped back) in the same
// rounds, also when one arena alternates between restricted and full
// networks over the graph, and must refuse a send on an inactive edge.
func TestActiveEdgesMatchSubgraph(t *testing.T) {
	g := graph.Cycle(12, graph.UnitWeights())
	g.AddEdge(0, 6, 1)
	g.AddEdge(3, 9, 1)
	g.AddEdge(3, 9, 1) // parallel edge
	g.AddEdge(2, 8, 1)
	const inactive = 5 // cycle edge {5, 6}
	active := make([]bool, g.M())
	var ids []int
	for id := range active {
		if id != inactive && id != 15 {
			active[id] = true
			ids = append(ids, id)
		}
	}
	sub, orig := g.SubgraphOf(ids)
	wantM, want := runLogged(t, sub, nil)
	for _, p := range want {
		for i := range p.log {
			p.log[i].Edge = orig[p.log[i].Edge]
		}
	}
	fullM, full := runLogged(t, g, nil)
	arena := new(NetworkArena)
	for i, restricted := range []bool{true, false, true, true, false} {
		if !restricted {
			gotM, got := runLogged(t, g, arena)
			if gotM != fullM || !reflect.DeepEqual(got, full) {
				t.Fatalf("run %d: full network diverges after a restricted one", i)
			}
			continue
		}
		gotM, got := runActive(t, g, active, arena)
		if gotM != wantM {
			t.Fatalf("run %d: metrics %+v, subgraph %+v", i, gotM, wantM)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: restricted network's messages differ from the subgraph's", i)
		}
	}

	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on an inactive edge")
		}
	}()
	NewNetwork(g, func(v int) Program {
		if v == 5 {
			return edgeSender{edge: inactive}
		}
		return oneShot{}
	}, WithActiveEdges(active))
}

// TestArenaReleaseDropsNetwork pins that an idle arena holds no pointer to
// the network that last borrowed it, so that network's programs and their
// state can be collected while the arena waits for its next borrower.
func TestArenaReleaseDropsNetwork(t *testing.T) {
	arena := new(NetworkArena)
	runLogged(t, graph.Cycle(6, graph.UnitWeights()), arena)
	for v, ctx := range arena.ctxs {
		if ctx.net != nil {
			t.Fatalf("arena context %d still points at its finished network", v)
		}
	}
}
