package primitives

import (
	"fmt"

	"repro/internal/congest"
	"repro/internal/graph"
	"repro/internal/tree"
)

const kindBcastMany int8 = 30

// bcastManyProgram pipelines a list of items from the root down a tree: in
// every round each vertex forwards to its children the next item it has not
// yet forwarded. Classic O(height + ℓ) pipelining.
type bcastManyProgram struct {
	tr     *tree.Rooted
	buf    []int64 // items known, in arrival order
	sent   int     // prefix of buf already forwarded
	expect int     // total items (known statically; termination condition)
}

func (p *bcastManyProgram) Init(ctx *congest.Context) {
	p.step(ctx)
}

func (p *bcastManyProgram) step(ctx *congest.Context) {
	if p.sent < len(p.buf) {
		item := p.buf[p.sent]
		p.sent++
		for _, c := range p.tr.Children(ctx.Node()) {
			ctx.SendTo(c, congest.Payload{Kind: kindBcastMany, A: item})
		}
	}
}

func (p *bcastManyProgram) Round(ctx *congest.Context, inbox []congest.Message) bool {
	for _, m := range inbox {
		if m.Kind == kindBcastMany {
			p.buf = append(p.buf, m.A)
		}
	}
	p.step(ctx)
	return len(p.buf) == p.expect && p.sent == len(p.buf)
}

// BroadcastMany delivers all items (initially at the root) to every vertex
// by pipelined tree broadcast in height + ℓ + O(1) rounds. Returns the
// items as received at each vertex (in pipeline order, equal to the input
// order).
func BroadcastMany(g *graph.Graph, tr *tree.Rooted, items []int64, opts ...congest.Option) ([][]int64, congest.Metrics, error) {
	progs := make([]*bcastManyProgram, g.N())
	net := congest.NewNetwork(g, func(v int) congest.Program {
		p := &bcastManyProgram{tr: tr, expect: len(items)}
		if v == tr.Root {
			p.buf = append(p.buf, items...)
		}
		progs[v] = p
		return p
	}, opts...)
	m, err := net.Run(tr.Height() + len(items) + 3)
	if err != nil {
		return nil, m, fmt.Errorf("primitives: BroadcastMany did not quiesce: %w", err)
	}
	out := make([][]int64, g.N())
	for v := range out {
		out[v] = progs[v].buf
	}
	return out, m, nil
}
