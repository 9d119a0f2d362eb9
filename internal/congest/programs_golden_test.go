package congest_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/congest"
	"repro/internal/cycles"
	"repro/internal/graph"
	"repro/internal/mst"
	"repro/internal/primitives"
	"repro/internal/segments"
	"repro/internal/tapdist"
	"repro/internal/tree"
)

// programsGolden pins every wrapper that runs one of the production
// Programs: the run's Metrics and a hash of the wrapper's output. The values
// were recorded from the simulator that called Round on every node in every
// round, so the table holds the event-driven simulator, which skips a done
// node until mail arrives, to the same observable behaviour.
//
// Keys are family/n/wrapper/executor. BroadcastValue, the one wrapper
// without an executor option, runs once, on the default executor.
var programsGolden = map[string]string{
	"grid/n=512/aggregate-min/par":   "rounds=71 messages=511 bits=134904 out=003049a9597241e9",
	"grid/n=512/aggregate-min/seq":   "rounds=71 messages=511 bits=134904 out=003049a9597241e9",
	"grid/n=512/aggregate-sum/par":   "rounds=71 messages=511 bits=134904 out=77bca3d56e5ba394",
	"grid/n=512/aggregate-sum/seq":   "rounds=71 messages=511 bits=134904 out=77bca3d56e5ba394",
	"grid/n=512/bfs/par":             "rounds=71 messages=1904 bits=502656 out=abc24a4520518743",
	"grid/n=512/bfs/seq":             "rounds=71 messages=1904 bits=502656 out=abc24a4520518743",
	"grid/n=512/boruvka/par":         "rounds=581 messages=26928 bits=7108992 out=e07ce18a79386a70",
	"grid/n=512/boruvka/seq":         "rounds=581 messages=26928 bits=7108992 out=e07ce18a79386a70",
	"grid/n=512/broadcast/seq":       "rounds=70 messages=511 bits=134904 out=f160139bb73ab325",
	"grid/n=512/broadcastmany/par":   "rounds=106 messages=18907 bits=4991448 out=340a5fc2e9f3a325",
	"grid/n=512/broadcastmany/seq":   "rounds=106 messages=18907 bits=4991448 out=340a5fc2e9f3a325",
	"grid/n=512/incremental/par":     "rounds=84 messages=0 bits=0 out=412b3c4552c3c44d",
	"grid/n=512/incremental/seq":     "rounds=84 messages=0 bits=0 out=412b3c4552c3c44d",
	"grid/n=512/labels/par":          "rounds=71 messages=952 bits=251328 out=0fc251e7621e5569",
	"grid/n=512/labels/seq":          "rounds=71 messages=952 bits=251328 out=0fc251e7621e5569",
	"grid/n=512/leader/par":          "rounds=72 messages=68544 bits=18095616 out=a8c7f832281a39c5",
	"grid/n=512/leader/seq":          "rounds=72 messages=68544 bits=18095616 out=a8c7f832281a39c5",
	"grid/n=512/tapdist/par":         "rounds=299 messages=32535 bits=8589240 out=2b2984af0f40065a",
	"grid/n=512/tapdist/seq":         "rounds=299 messages=32535 bits=8589240 out=2b2984af0f40065a",
	"grid/n=512/upcast/par":          "rounds=67 messages=2447 bits=646008 out=b428ac0db1b91361",
	"grid/n=512/upcast/seq":          "rounds=67 messages=2447 bits=646008 out=b428ac0db1b91361",
	"grid/n=64/aggregate-min/par":    "rounds=15 messages=63 bits=16632 out=003049a9597241e9",
	"grid/n=64/aggregate-min/seq":    "rounds=15 messages=63 bits=16632 out=003049a9597241e9",
	"grid/n=64/aggregate-sum/par":    "rounds=15 messages=63 bits=16632 out=1fc0b02c4c679e0d",
	"grid/n=64/aggregate-sum/seq":    "rounds=15 messages=63 bits=16632 out=1fc0b02c4c679e0d",
	"grid/n=64/bfs/par":              "rounds=15 messages=224 bits=59136 out=ead31283f05aa8ab",
	"grid/n=64/bfs/seq":              "rounds=15 messages=224 bits=59136 out=ead31283f05aa8ab",
	"grid/n=64/boruvka/par":          "rounds=100 messages=1961 bits=517704 out=ac66e64916efecea",
	"grid/n=64/boruvka/seq":          "rounds=100 messages=1961 bits=517704 out=ac66e64916efecea",
	"grid/n=64/broadcast/seq":        "rounds=14 messages=63 bits=16632 out=2108c5ae368d3525",
	"grid/n=64/broadcastmany/par":    "rounds=32 messages=1197 bits=316008 out=4f9d6e0db04ed325",
	"grid/n=64/broadcastmany/seq":    "rounds=32 messages=1197 bits=316008 out=4f9d6e0db04ed325",
	"grid/n=64/incremental/par":      "rounds=18 messages=0 bits=0 out=bbe2fed5c464cc1d",
	"grid/n=64/incremental/seq":      "rounds=18 messages=0 bits=0 out=bbe2fed5c464cc1d",
	"grid/n=64/labels/par":           "rounds=15 messages=112 bits=29568 out=00b126803de744a5",
	"grid/n=64/labels/seq":           "rounds=15 messages=112 bits=29568 out=00b126803de744a5",
	"grid/n=64/leader/par":           "rounds=16 messages=1792 bits=473088 out=a8c7f832281a39c5",
	"grid/n=64/leader/seq":           "rounds=16 messages=1792 bits=473088 out=a8c7f832281a39c5",
	"grid/n=64/tapdist/par":          "rounds=81 messages=1607 bits=424248 out=c57444470b7ce4dd",
	"grid/n=64/tapdist/seq":          "rounds=81 messages=1607 bits=424248 out=c57444470b7ce4dd",
	"grid/n=64/upcast/par":           "rounds=21 messages=161 bits=42504 out=01f53321afe42099",
	"grid/n=64/upcast/seq":           "rounds=21 messages=161 bits=42504 out=01f53321afe42099",
	"harary/n=512/aggregate-min/par": "rounds=129 messages=511 bits=134904 out=003049a9597241e9",
	"harary/n=512/aggregate-min/seq": "rounds=129 messages=511 bits=134904 out=003049a9597241e9",
	"harary/n=512/aggregate-sum/par": "rounds=129 messages=511 bits=134904 out=77bca3d56e5ba394",
	"harary/n=512/aggregate-sum/seq": "rounds=129 messages=511 bits=134904 out=77bca3d56e5ba394",
	"harary/n=512/bfs/par":           "rounds=129 messages=1536 bits=405504 out=91456c70d5f948ee",
	"harary/n=512/bfs/seq":           "rounds=129 messages=1536 bits=405504 out=91456c70d5f948ee",
	"harary/n=512/boruvka/par":       "rounds=1284 messages=28887 bits=7626168 out=d1bbe7dc41a39218",
	"harary/n=512/boruvka/seq":       "rounds=1284 messages=28887 bits=7626168 out=d1bbe7dc41a39218",
	"harary/n=512/broadcast/seq":     "rounds=128 messages=511 bits=134904 out=f160139bb73ab325",
	"harary/n=512/broadcastmany/par": "rounds=164 messages=18907 bits=4991448 out=340a5fc2e9f3a325",
	"harary/n=512/broadcastmany/seq": "rounds=164 messages=18907 bits=4991448 out=340a5fc2e9f3a325",
	"harary/n=512/incremental/par":   "rounds=172 messages=0 bits=0 out=a2cdf5b35ed6cbe0",
	"harary/n=512/incremental/seq":   "rounds=172 messages=0 bits=0 out=a2cdf5b35ed6cbe0",
	"harary/n=512/labels/par":        "rounds=129 messages=768 bits=202752 out=4e92c52bae8b90ef",
	"harary/n=512/labels/seq":        "rounds=129 messages=768 bits=202752 out=4e92c52bae8b90ef",
	"harary/n=512/leader/par":        "rounds=130 messages=100605 bits=26559720 out=a8c7f832281a39c5",
	"harary/n=512/leader/seq":        "rounds=130 messages=100605 bits=26559720 out=a8c7f832281a39c5",
	"harary/n=512/tapdist/par":       "rounds=495 messages=40540 bits=10702560 out=cd20ffa40852dff1",
	"harary/n=512/tapdist/seq":       "rounds=495 messages=40540 bits=10702560 out=cd20ffa40852dff1",
	"harary/n=512/upcast/par":        "rounds=129 messages=9222 bits=2434608 out=b428ac0db1b91361",
	"harary/n=512/upcast/seq":        "rounds=129 messages=9222 bits=2434608 out=b428ac0db1b91361",
	"harary/n=64/aggregate-min/par":  "rounds=17 messages=63 bits=16632 out=003049a9597241e9",
	"harary/n=64/aggregate-min/seq":  "rounds=17 messages=63 bits=16632 out=003049a9597241e9",
	"harary/n=64/aggregate-sum/par":  "rounds=17 messages=63 bits=16632 out=1fc0b02c4c679e0d",
	"harary/n=64/aggregate-sum/seq":  "rounds=17 messages=63 bits=16632 out=1fc0b02c4c679e0d",
	"harary/n=64/bfs/par":            "rounds=17 messages=192 bits=50688 out=e1041f7e38ee15a4",
	"harary/n=64/bfs/seq":            "rounds=17 messages=192 bits=50688 out=e1041f7e38ee15a4",
	"harary/n=64/boruvka/par":        "rounds=169 messages=2315 bits=611160 out=9ec07046293425f9",
	"harary/n=64/boruvka/seq":        "rounds=169 messages=2315 bits=611160 out=9ec07046293425f9",
	"harary/n=64/broadcast/seq":      "rounds=16 messages=63 bits=16632 out=2108c5ae368d3525",
	"harary/n=64/broadcastmany/par":  "rounds=34 messages=1197 bits=316008 out=4f9d6e0db04ed325",
	"harary/n=64/broadcastmany/seq":  "rounds=34 messages=1197 bits=316008 out=4f9d6e0db04ed325",
	"harary/n=64/incremental/par":    "rounds=22 messages=0 bits=0 out=a03ec81be7f01af6",
	"harary/n=64/incremental/seq":    "rounds=22 messages=0 bits=0 out=a03ec81be7f01af6",
	"harary/n=64/labels/par":         "rounds=17 messages=96 bits=25344 out=943caa67710d24f9",
	"harary/n=64/labels/seq":         "rounds=17 messages=96 bits=25344 out=943caa67710d24f9",
	"harary/n=64/leader/par":         "rounds=18 messages=1821 bits=480744 out=a8c7f832281a39c5",
	"harary/n=64/leader/seq":         "rounds=18 messages=1821 bits=480744 out=a8c7f832281a39c5",
	"harary/n=64/tapdist/par":        "rounds=86 messages=1776 bits=468864 out=2d16f04155d6c176",
	"harary/n=64/tapdist/seq":        "rounds=86 messages=1776 bits=468864 out=2d16f04155d6c176",
	"harary/n=64/upcast/par":         "rounds=17 messages=199 bits=52536 out=01f53321afe42099",
	"harary/n=64/upcast/seq":         "rounds=17 messages=199 bits=52536 out=01f53321afe42099",
	"random/n=512/aggregate-min/par": "rounds=7 messages=511 bits=134904 out=003049a9597241e9",
	"random/n=512/aggregate-min/seq": "rounds=7 messages=511 bits=134904 out=003049a9597241e9",
	"random/n=512/aggregate-sum/par": "rounds=7 messages=511 bits=134904 out=77bca3d56e5ba394",
	"random/n=512/aggregate-sum/seq": "rounds=7 messages=511 bits=134904 out=77bca3d56e5ba394",
	"random/n=512/bfs/par":           "rounds=7 messages=3072 bits=811008 out=c1e4dee309ac3692",
	"random/n=512/bfs/seq":           "rounds=7 messages=3072 bits=811008 out=c1e4dee309ac3692",
	"random/n=512/boruvka/par":       "rounds=284 messages=31427 bits=8296728 out=369854834cb68aba",
	"random/n=512/boruvka/seq":       "rounds=284 messages=31427 bits=8296728 out=369854834cb68aba",
	"random/n=512/broadcast/seq":     "rounds=6 messages=511 bits=134904 out=f160139bb73ab325",
	"random/n=512/broadcastmany/par": "rounds=42 messages=18907 bits=4991448 out=340a5fc2e9f3a325",
	"random/n=512/broadcastmany/seq": "rounds=42 messages=18907 bits=4991448 out=340a5fc2e9f3a325",
	"random/n=512/incremental/par":   "rounds=9 messages=0 bits=0 out=ea053510f9051389",
	"random/n=512/incremental/seq":   "rounds=9 messages=0 bits=0 out=ea053510f9051389",
	"random/n=512/labels/par":        "rounds=7 messages=1536 bits=405504 out=1f3d7b77064213be",
	"random/n=512/labels/seq":        "rounds=7 messages=1536 bits=405504 out=1f3d7b77064213be",
	"random/n=512/leader/par":        "rounds=8 messages=14824 bits=3913536 out=a8c7f832281a39c5",
	"random/n=512/leader/seq":        "rounds=8 messages=14824 bits=3913536 out=a8c7f832281a39c5",
	"random/n=512/tapdist/par":       "rounds=106 messages=28891 bits=7627224 out=28133ea54cf45b14",
	"random/n=512/tapdist/seq":       "rounds=106 messages=28891 bits=7627224 out=28133ea54cf45b14",
	"random/n=512/upcast/par":        "rounds=34 messages=646 bits=170544 out=b428ac0db1b91361",
	"random/n=512/upcast/seq":        "rounds=34 messages=646 bits=170544 out=b428ac0db1b91361",
	"random/n=64/aggregate-min/par":  "rounds=5 messages=63 bits=16632 out=003049a9597241e9",
	"random/n=64/aggregate-min/seq":  "rounds=5 messages=63 bits=16632 out=003049a9597241e9",
	"random/n=64/aggregate-sum/par":  "rounds=5 messages=63 bits=16632 out=1fc0b02c4c679e0d",
	"random/n=64/aggregate-sum/seq":  "rounds=5 messages=63 bits=16632 out=1fc0b02c4c679e0d",
	"random/n=64/bfs/par":            "rounds=5 messages=384 bits=101376 out=6b72740642c3d619",
	"random/n=64/bfs/seq":            "rounds=5 messages=384 bits=101376 out=6b72740642c3d619",
	"random/n=64/boruvka/par":        "rounds=104 messages=2415 bits=637560 out=bf2fe4bf9302be5d",
	"random/n=64/boruvka/seq":        "rounds=104 messages=2415 bits=637560 out=bf2fe4bf9302be5d",
	"random/n=64/broadcast/seq":      "rounds=4 messages=63 bits=16632 out=2108c5ae368d3525",
	"random/n=64/broadcastmany/par":  "rounds=22 messages=1197 bits=316008 out=4f9d6e0db04ed325",
	"random/n=64/broadcastmany/seq":  "rounds=22 messages=1197 bits=316008 out=4f9d6e0db04ed325",
	"random/n=64/incremental/par":    "rounds=6 messages=0 bits=0 out=b8177035c1f6121c",
	"random/n=64/incremental/seq":    "rounds=6 messages=0 bits=0 out=b8177035c1f6121c",
	"random/n=64/labels/par":         "rounds=5 messages=192 bits=50688 out=f604daeafd3c77ed",
	"random/n=64/labels/seq":         "rounds=5 messages=192 bits=50688 out=f604daeafd3c77ed",
	"random/n=64/leader/par":         "rounds=6 messages=1226 bits=323664 out=a8c7f832281a39c5",
	"random/n=64/leader/seq":         "rounds=6 messages=1226 bits=323664 out=a8c7f832281a39c5",
	"random/n=64/tapdist/par":        "rounds=45 messages=1675 bits=442200 out=2cca07318881e083",
	"random/n=64/tapdist/seq":        "rounds=45 messages=1675 bits=442200 out=2cca07318881e083",
	"random/n=64/upcast/par":         "rounds=6 messages=50 bits=13200 out=01f53321afe42099",
	"random/n=64/upcast/seq":         "rounds=6 messages=50 bits=13200 out=01f53321afe42099",
}

// goldenFamilies are the generator families of the table: a sparse random
// graph, a high-diameter grid and a circulant, all with random weights.
var goldenFamilies = []struct {
	name  string
	build func(n int, rng *rand.Rand) *graph.Graph
}{
	{"random", func(n int, rng *rand.Rand) *graph.Graph {
		return graph.RandomKConnected(n, 2, 2*n, rng, graph.RandomWeights(rng, 1000))
	}},
	{"grid", func(n int, rng *rand.Rand) *graph.Graph {
		return graph.Grid(8, n/8, graph.RandomWeights(rng, 1000))
	}},
	{"harary", func(n int, rng *rand.Rand) *graph.Graph {
		return graph.Harary(3, n, graph.RandomWeights(rng, 1000))
	}},
}

// outHash hashes a wrapper's output: a sequence of integers.
type outHash struct{ buf []byte }

func (h *outHash) add(xs ...int64) {
	for _, x := range xs {
		h.buf = binary.LittleEndian.AppendUint64(h.buf, uint64(x))
	}
}

func (h *outHash) ints(xs []int) {
	for _, x := range xs {
		h.add(int64(x))
	}
}

func (h *outHash) line(m congest.Metrics) string {
	f := fnv.New64a()
	f.Write(h.buf)
	return fmt.Sprintf("rounds=%d messages=%d bits=%d out=%016x", m.Rounds, m.Messages, m.Bits, f.Sum64())
}

// goldenRuns runs every wrapper on g and returns its table lines, keyed
// by wrapper/executor.
func goldenRuns(t *testing.T, g *graph.Graph) map[string]string {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	out := map[string]string{}
	n := g.N()
	mstIDs, _ := mst.Kruskal(g)
	mstTree, err := tree.FromEdges(g, mstIDs, 0)
	must(err)
	inMST := mstTree.IsTreeEdge()
	dec, err := segments.Decompose(g, mstTree, segments.DefaultTarget(n))
	must(err)
	covered := map[int]bool{}
	for i, id := range mstTree.EdgeIDs() {
		covered[id] = i%3 == 0
	}
	var base, later []int
	for id := 0; id < g.M(); id++ {
		switch {
		case inMST[id] || id%3 == 0:
			base = append(base, id)
		case id%3 == 1:
			later = append(later, id)
		}
	}

	values := make([]int64, n)
	items := make([][]int64, n)
	for v := range values {
		values[v] = int64(v*7919%1009 - 500)
		if v%5 == 0 {
			items[v] = []int64{int64(v % 37), int64(v % 11)}
		}
	}

	for _, ex := range []struct {
		name string
		exec congest.Executor
	}{{"seq", congest.SequentialExecutor{}}, {"par", congest.ParallelExecutor{}}} {
		opt := congest.WithExecutor(ex.exec)
		var h outHash

		mres, err := mst.DistributedBoruvka(g, opt)
		must(err)
		h.ints(mres.EdgeIDs)
		h.add(mres.Weight, int64(mres.Phases))
		out["boruvka/"+ex.name] = h.line(mres.Metrics)

		h = outHash{}
		tr, m, err := primitives.BuildBFSTree(g, 0, opt)
		must(err)
		h.ints(tr.Parent)
		h.ints(tr.ParentEdge)
		out["bfs/"+ex.name] = h.line(m)

		h = outHash{}
		leader, m, err := primitives.ElectLeader(g, opt)
		must(err)
		h.add(int64(leader))
		out["leader/"+ex.name] = h.line(m)

		h = outHash{}
		lab, err := cycles.ComputeLabels(g, tr, 48, rand.New(rand.NewSource(7)), opt)
		must(err)
		for id := 0; id < g.M(); id++ {
			h.add(int64(lab.Phi[id]))
		}
		out["labels/"+ex.name] = h.line(lab.Metrics)

		h = outHash{}
		inc, err := cycles.NewIncremental(g, base, 48, rand.New(rand.NewSource(8)), opt)
		must(err)
		inc.AddEdges(later)
		rounds, err := inc.RelabelScan(opt)
		must(err)
		for id := 0; id < g.M(); id++ {
			h.add(int64(inc.Phi(id)))
		}
		inc.Release()
		// RelabelScan reports its rounds alone.
		out["incremental/"+ex.name] = h.line(congest.Metrics{Rounds: int(rounds)})

		h = outHash{}
		ce, err := tapdist.ComputeCe(g, dec, covered, nil, opt)
		must(err)
		for id := 0; id < g.M(); id++ {
			if c, ok := ce.Ce[id]; ok {
				h.add(int64(id), c)
			}
		}
		out["tapdist/"+ex.name] = h.line(ce.Metrics)

		h = outHash{}
		sum, m, err := primitives.Aggregate(g, tr, values, primitives.Sum, opt)
		must(err)
		h.add(sum)
		out["aggregate-sum/"+ex.name] = h.line(m)

		h = outHash{}
		lo, m, err := primitives.Aggregate(g, tr, values, primitives.Min, opt)
		must(err)
		h.add(lo)
		out["aggregate-min/"+ex.name] = h.line(m)

		h = outHash{}
		up, m, err := primitives.Upcast(g, tr, items, opt)
		must(err)
		h.add(up...)
		out["upcast/"+ex.name] = h.line(m)

		h = outHash{}
		many, m, err := primitives.BroadcastMany(g, tr, up, opt)
		must(err)
		for _, list := range many {
			h.add(int64(len(list)))
			h.add(list...)
		}
		out["broadcastmany/"+ex.name] = h.line(m)
	}

	tr, _, err := primitives.BuildBFSTree(g, 0)
	must(err)
	var h outHash
	got, m, err := primitives.BroadcastValue(g, tr, 424242)
	must(err)
	h.add(got...)
	out["broadcast/seq"] = h.line(m)
	return out
}

// TestProgramsGolden checks every wrapper's Metrics and output hash
// against the recorded table.
func TestProgramsGolden(t *testing.T) {
	seen := map[string]bool{}
	for _, fam := range goldenFamilies {
		for _, n := range []int{64, 512} {
			g := fam.build(n, rand.New(rand.NewSource(int64(n))))
			runs := goldenRuns(t, g)
			keys := make([]string, 0, len(runs))
			for k := range runs {
				keys = append(keys, k)
			}
			slices.Sort(keys)
			for _, k := range keys {
				key := fmt.Sprintf("%s/n=%d/%s", fam.name, n, k)
				seen[key] = true
				if want, got := programsGolden[key], runs[k]; got != want {
					t.Errorf("%s:\n got  %q\n want %q", key, got, want)
				}
			}
		}
	}
	for key := range programsGolden {
		if !seen[key] {
			t.Errorf("table entry %s was not run", key)
		}
	}
}
