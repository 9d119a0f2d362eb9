package main

import (
	"fmt"
	"sort"
	"time"
)

// phaseNames lists every solver phase core.PhaseEvent reports (see
// internal/core/phase.go). A traced run prints self time and share for
// each, 0 for phases the workload never runs.
var phaseNames = []string{
	"validate", "base", "base-label", "mst", "tap", "cut-enum", "ks-sweep",
	"ks-materialise", "augment", "rebalance", "audit", "correction",
}

// perLayer is every metric a traced run prints, with its unit. Metrics of
// layers a workload does not exercise are printed as 0.
var perLayer = func() map[string]string {
	m := map[string]string{
		"core.cut-enum.items":          "count",
		"core.augment.iterations":      "count",
		"core.mst.rounds":              "rounds",
		"core.mst.messages":            "count",
		"core.tap.iterations":          "count",
		"congest.messages":             "count",
		"kecss.pool.self_ms":           "ms",
		"graph.validate_ms":            "ms",
		"solve.wall_ms":                "ms",
		"solve.unclaimed_share":        "ratio",
		"solve.covered_share":          "ratio",
		"server.admission_ms":          "ms",
		"journal.accept_ms":            "ms",
		"journal.fsync_ms":             "ms",
		"journal.fsyncs_per_miss":      "count",
		"queue.enqueue_ms":             "ms",
		"queue.wait_ms":                "ms",
		"store.get_ms":                 "ms",
		"server.solve_ms":              "ms",
		"store.put_ms":                 "ms",
		"server.frontend_store_put_ms": "ms",
		"server.http_unclaimed_ms":     "ms",
		"server.hit_ratio":             "ratio",
		"server.throttled":             "count",
		"queue.redeliveries":           "count",
		"wire.decode_us":               "us",
		"wire.digest_us":               "us",
		"loadgen.late_p99_ms":          "ms",
		"trace.overhead_ratio":         "ratio",
		"trace.solves":                 "count",
	}
	for _, p := range phaseNames {
		m["core."+p+".self_ms"] = "ms"
		m["core."+p+".share"] = "ratio"
	}
	return m
}()

// fillPerLayer adds every per-layer metric the run did not measure, as 0.
func fillPerLayer(m map[string]metric) {
	for name, unit := range perLayer {
		if _, ok := m[name]; !ok {
			m[name] = metric{0, unit}
		}
	}
}

// interval is one timed span, in nanoseconds on a clock shared by all
// intervals of one solve.
type interval struct {
	name       string
	start, end int64
}

// selfTimes charges each interval its duration minus the part covered by
// the intervals nested inside it, adding the result to self by name, and
// returns the measure of the union of all intervals. Solver phases nest
// (ks-sweep and ks-materialise run inside cut-enum, rebalance inside
// augment), so summing raw durations double counts; summed self times
// instead equal the union, which never exceeds the enclosing solve.
func selfTimes(ivs []interval, self map[string]int64) int64 {
	sort.SliceStable(ivs, func(a, b int) bool {
		if ivs[a].start != ivs[b].start {
			return ivs[a].start < ivs[b].start
		}
		return ivs[a].end > ivs[b].end
	})
	own := make([]int64, len(ivs))
	var stack []int // indices of the open enclosing intervals
	var union, coveredTo int64
	for i, iv := range ivs {
		own[i] = iv.end - iv.start
		for len(stack) > 0 && ivs[stack[len(stack)-1]].end <= iv.start {
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			p := stack[len(stack)-1]
			own[p] -= min(iv.end, ivs[p].end) - iv.start
		}
		stack = append(stack, i)
		if iv.end > coveredTo {
			union += iv.end - max(iv.start, coveredTo)
			coveredTo = iv.end
		}
	}
	for i, iv := range ivs {
		self[iv.name] += max(own[i], 0)
	}
	return union
}

// solveBreakdown accumulates traced solves into the per-layer metrics
// shared by every workload: phase self times and shares, the pool's own
// time, and how much of the solve wall the named layers cover.
type solveBreakdown struct {
	solves   int
	wall     int64            // summed solve wall, ns
	claimed  int64            // summed union of phase intervals, ns
	self     map[string]int64 // phase → summed self time, ns
	counters map[string]float64
	// validate is the standalone capped-Dinic time of one pre-validation
	// of the workload's average graph, charged to every solve whose pool
	// sweep validates before solving (the pool does so outside any phase).
	validate time.Duration
}

func newSolveBreakdown() *solveBreakdown {
	return &solveBreakdown{self: map[string]int64{}, counters: map[string]float64{}}
}

// phaseRecord is one reported solver phase: its interval and the counters
// core.PhaseEvent carries.
type phaseRecord struct {
	interval
	rounds, messages  int64
	iterations, items int64
}

// nested marks the phases reported inside another phase, whose simulator
// messages the enclosing phase already counts.
var nested = map[string]bool{"ks-sweep": true, "ks-materialise": true, "rebalance": true}

// add records one solve: its wall time and its phase records.
func (b *solveBreakdown) add(wall int64, phases []phaseRecord) {
	b.solves++
	b.wall += wall
	ivs := make([]interval, len(phases))
	for i, p := range phases {
		ivs[i] = p.interval
		switch p.name {
		case "cut-enum":
			b.counters["core.cut-enum.items"] += float64(p.items)
		case "augment":
			b.counters["core.augment.iterations"] += float64(p.iterations)
		case "mst":
			b.counters["core.mst.rounds"] += float64(p.rounds)
			b.counters["core.mst.messages"] += float64(p.messages)
		case "tap":
			b.counters["core.tap.iterations"] += float64(p.iterations)
		}
		if !nested[p.name] {
			b.counters["congest.messages"] += float64(p.messages)
		}
	}
	b.claimed += selfTimes(ivs, b.self)
}

// metrics renders the breakdown, with times and counters per solve.
func (b *solveBreakdown) metrics() map[string]metric {
	m := map[string]metric{}
	n := float64(max(b.solves, 1))
	wall := float64(max(b.wall, 1))
	for _, p := range phaseNames {
		m["core."+p+".self_ms"] = metric{float64(b.self[p]) / 1e6 / n, "ms"}
		m["core."+p+".share"] = metric{float64(b.self[p]) / wall, "ratio"}
	}
	for name, v := range b.counters {
		m[name] = metric{v / n, perLayer[name]}
	}
	validate := float64(b.validate.Nanoseconds()) * float64(b.solves)
	unclaimed := max(float64(b.wall-b.claimed)-validate, 0)
	m["kecss.pool.self_ms"] = metric{float64(b.wall-b.claimed) / 1e6 / n, "ms"}
	m["graph.validate_ms"] = metric{ms(b.validate), "ms"}
	m["solve.wall_ms"] = metric{float64(b.wall) / 1e6 / n, "ms"}
	m["solve.unclaimed_share"] = metric{unclaimed / wall, "ratio"}
	m["solve.covered_share"] = metric{1 - unclaimed/wall, "ratio"}
	m["trace.solves"] = metric{float64(b.solves), "count"}
	return m
}

// notes names the blocking layer of the traced solves and whether the
// named layers cover at least 90% of the solve wall.
func (b *solveBreakdown) notes() []string {
	best, bestSelf := "", int64(-1)
	var claimed int64
	for _, p := range phaseNames {
		claimed += b.self[p]
		if b.self[p] > bestSelf {
			best, bestSelf = p, b.self[p]
		}
	}
	m := b.metrics()
	covered := m["solve.covered_share"].Value
	verdict := "meets"
	if covered < 0.9 {
		verdict = "misses"
	}
	return []string{
		fmt.Sprintf("traced %d solves: dominant phase %s (%.1f%% of solve wall); phase self times sum to %.1f%% of solve wall",
			b.solves, best, 100*m["core."+best+".share"].Value, 100*float64(claimed)/float64(max(b.wall, 1))),
		fmt.Sprintf("named layers cover %.1f%% of solve wall (%s the 90%% target)", 100*covered, verdict),
	}
}
