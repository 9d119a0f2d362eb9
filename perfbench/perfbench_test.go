package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// spec is the part of BENCHMARK.json the self-test checks against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// runTiny runs one workload at tiny size and returns its parsed result and
// its result-digest line.
func runTiny(t *testing.T, workload, trace string) (result, string) {
	t.Helper()
	var out bytes.Buffer
	args := []string{"--workload", workload, "--seed", "5", "--seconds", "0.4", "--trace", trace, "--tiny"}
	if err := run(args, &out); err != nil {
		t.Fatalf("%s trace %s: %v", workload, trace, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result object: %v", workload, err)
	}
	var digest string
	for _, l := range lines {
		if strings.Contains(l, "result_digest") {
			digest = l
		}
	}
	return res, digest
}

// TestEveryWorkloadEmitsEveryMetric runs each workload at tiny size, plain
// and traced, and checks the printed metrics against BENCHMARK.json.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(s.Workloads), len(workloads))
	}
	if len(s.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the benchmark prints %d", len(s.PerLayer), len(perLayer))
	}
	for _, w := range s.Workloads {
		plain, digest := runTiny(t, w.Name, "0")
		if !plain.Correct || plain.Failed != 0 || plain.Attempted < 1 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d", w.Name, plain.Correct, plain.Failed, plain.Attempted)
		}
		if len(plain.Metrics) != len(s.EndToEnd) {
			t.Errorf("%s: %d end-to-end metrics printed, BENCHMARK.json lists %d", w.Name, len(plain.Metrics), len(s.EndToEnd))
		}
		for _, m := range s.EndToEnd {
			got, ok := plain.Metrics[m.Name]
			if !ok || got.Unit != m.Unit || got.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %+v (present %v), want unit %s and a positive value", w.Name, m.Name, got, ok, m.Unit)
			}
		}
		traced, tracedDigest := runTiny(t, w.Name, "1")
		if !traced.Correct || len(traced.Metrics) != len(s.PerLayer) {
			t.Errorf("%s traced: correct=%v with %d metrics, want %d", w.Name, traced.Correct, len(traced.Metrics), len(s.PerLayer))
		}
		for _, m := range s.PerLayer {
			if got, ok := traced.Metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("%s: per-layer metric %s = %+v (present %v), want unit %s", w.Name, m.Name, got, ok, m.Unit)
			}
		}
		if share := traced.Metrics["solve.unclaimed_share"].Value; share < 0 || share > 1 {
			t.Errorf("%s: solve.unclaimed_share = %v, want within [0, 1]", w.Name, share)
		}
		if digest == "" || digest != tracedDigest {
			t.Errorf("%s: result digest differs between runs of one seed: %q vs %q", w.Name, digest, tracedDigest)
		}
	}
}

// TestSelfTimesNested checks that nested phases are charged once: the
// children's time leaves the parent, and the self times sum to the union.
func TestSelfTimesNested(t *testing.T) {
	self := map[string]int64{}
	union := selfTimes([]interval{
		{"augment", 100, 150},
		{"cut-enum", 0, 100},
		{"ks-materialise", 60, 90},
		{"ks-sweep", 10, 60},
		{"rebalance", 110, 120},
	}, self)
	want := map[string]int64{"cut-enum": 20, "ks-sweep": 50, "ks-materialise": 30, "augment": 40, "rebalance": 10}
	for name, v := range want {
		if self[name] != v {
			t.Errorf("self[%s] = %d, want %d", name, self[name], v)
		}
	}
	if union != 150 {
		t.Errorf("union = %d, want 150", union)
	}
}
