// benchjson converts `go test -bench` output (stdin) into a JSON report and
// optionally enforces allocation ceilings, for the CI bench-smoke step:
//
//	go test -run '^$' -bench '...' -benchtime 200ms . | \
//	    go run ./cmd/benchjson -out BENCH_cuts.json \
//	        -max-allocs 'BenchmarkMicro_EnumerateMinCuts=4096'
//
// Each -max-allocs (-max-bytes, -max-ns) entry is substring=ceiling; every
// parsed benchmark whose name contains the substring must report allocs/op
// (bytes/op, ns/op) <= ceiling or the tool exits non-zero (after still
// writing the report, so the artifact survives for debugging). The
// allocation ceilings pin a warm path's behaviour: a regression that
// reintroduces per-trial or per-iteration allocations trips them
// immediately. The ns/op ceilings are the coarse guard for the opt-in
// large-bench smoke, where a single n=10^4 solve at -benchtime 1x is the
// whole measurement.
//
// Report names drop the -N suffix that `go test` appends when GOMAXPROCS is
// not 1, so one benchmark has one name on every machine.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

type benchResult struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
}

type ceiling struct {
	substr string
	max    float64
}

type ceilingList []ceiling

func (c *ceilingList) String() string { return fmt.Sprint(*c) }

// Set splits at the last '=', since sub-benchmark names contain '=' too
// (BenchmarkX/size=3=5e9).
func (c *ceilingList) Set(v string) error {
	i := strings.LastIndexByte(v, '=')
	if i < 0 {
		return fmt.Errorf("want substring=ceiling, got %q", v)
	}
	sub, maxStr := v[:i], v[i+1:]
	max, err := strconv.ParseFloat(maxStr, 64)
	if err != nil {
		return fmt.Errorf("bad ceiling in %q: %v", v, err)
	}
	*c = append(*c, ceiling{substr: sub, max: max})
	return nil
}

// parseLine parses one benchmark result line, e.g.
//
//	BenchmarkFoo/case=1-8   	 100	 123456 ns/op	 789 B/op	 12 allocs/op
//
// into a result named BenchmarkFoo/case=1.
func parseLine(line string) (benchResult, bool) {
	if !strings.HasPrefix(line, "Benchmark") {
		return benchResult{}, false
	}
	fields := strings.Fields(line)
	if len(fields) < 4 || fields[3] != "ns/op" {
		return benchResult{}, false
	}
	iters, err1 := strconv.ParseInt(fields[1], 10, 64)
	ns, err2 := strconv.ParseFloat(fields[2], 64)
	if err1 != nil || err2 != nil {
		return benchResult{}, false
	}
	r := benchResult{Name: stripProcs(fields[0]), Iterations: iters, NsPerOp: ns}
	for i := 4; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "B/op":
			r.BytesPerOp = v
		case "allocs/op":
			r.AllocsPerOp = v
		}
	}
	return r, true
}

// stripProcs removes the trailing -N (GOMAXPROCS) that the testing package
// appends to a benchmark name. A sub-benchmark whose own name ended in
// -digits would lose them too, so sub-benchmark names avoid that shape.
func stripProcs(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 || i == len(name)-1 {
		return name
	}
	for _, c := range name[i+1:] {
		if c < '0' || c > '9' {
			return name
		}
	}
	return name[:i]
}

func main() {
	out := flag.String("out", "", "write the JSON report to this file (default stdout)")
	var ceilings, byteCeilings, nsCeilings ceilingList
	flag.Var(&ceilings, "max-allocs", "substring=ceiling; fail if a matching benchmark exceeds ceiling allocs/op (repeatable)")
	flag.Var(&byteCeilings, "max-bytes", "substring=ceiling; fail if a matching benchmark exceeds ceiling bytes/op (repeatable)")
	flag.Var(&nsCeilings, "max-ns", "substring=ceiling; fail if a matching benchmark exceeds ceiling ns/op (repeatable; a coarse wall-clock guard for the opt-in large benches — set it with several-x headroom over the measured baseline, since CI machines vary)")
	flag.Parse()

	var results []benchResult
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		// Pass the raw output through for the build log — on stderr, so the
		// stdout-default mode still emits a single parseable JSON document.
		fmt.Fprintln(os.Stderr, line)
		if r, ok := parseLine(line); ok {
			results = append(results, r)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: reading stdin: %v\n", err)
		os.Exit(1)
	}
	if len(results) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark results on stdin")
		os.Exit(1)
	}
	blob, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	blob = append(blob, '\n')
	if *out == "" {
		os.Stdout.Write(blob)
	} else if err := os.WriteFile(*out, blob, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}

	failed := false
	check := func(cs ceilingList, unit string, value func(benchResult) float64) {
		for _, c := range cs {
			matched := false
			for _, r := range results {
				if !strings.Contains(r.Name, c.substr) {
					continue
				}
				matched = true
				if v := value(r); v > c.max {
					fmt.Fprintf(os.Stderr, "benchjson: %s %s %.0f exceeds ceiling %.0f\n",
						r.Name, unit, v, c.max)
					failed = true
				}
			}
			if !matched {
				fmt.Fprintf(os.Stderr, "benchjson: ceiling %q matched no benchmark\n", c.substr)
				failed = true
			}
		}
	}
	check(ceilings, "allocs/op", func(r benchResult) float64 { return r.AllocsPerOp })
	check(byteCeilings, "bytes/op", func(r benchResult) float64 { return r.BytesPerOp })
	check(nsCeilings, "ns/op", func(r benchResult) float64 { return r.NsPerOp })
	if failed {
		os.Exit(1)
	}
}
