// Command perfbench is the repository's benchmark: four named workloads run
// against the public solver API (kecss.Pool and its options) and the
// serving stack (internal/server over loopback HTTP). Every operation's
// output is checked; the last line of standard output is one JSON object
// with the end-to-end metrics (--trace 0) or the per-layer breakdown
// (--trace 1).
//
// Run it from the repository root through its build script:
//
//	bash perfbench/run.sh --workload kecss-cuts --seed 1 --seconds 15 --trace 0
//
// Workloads, their generator parameters and the layer each one stresses are
// described in perfbench/WORKLOADS.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// setupRepeats is how many times a run builds its workload from scratch;
// setup_s reports the median, and only the last build is measured.
const setupRepeats = 3

// config is the parsed command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// tiny shrinks every workload to a few small solves (the self-test).
	tiny bool
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload's measured or traced run hands back.
type outcome struct {
	attempted, failed int64
	// digest identifies every checked output of the run; two runs of the
	// same code and seed print the same digest.
	digest  string
	metrics map[string]metric
	// notes are human-readable lines printed before the JSON result.
	notes []string
}

// env is one built workload, ready to measure for the run's --seconds.
type env interface {
	measure() *outcome
	traced() (*outcome, error)
	close()
}

// workload names one benchmark workload and how to build it.
type workload struct {
	name  string
	build func(cfg config) (env, error)
}

var workloads = []workload{
	{"kecss-cuts", func(c config) (env, error) { return newLibEnv(kecssCuts(c.tiny), c.seed, c.seconds) }},
	{"3ecss-label", func(c config) (env, error) { return newLibEnv(threeLabel(c.tiny), c.seed, c.seconds) }},
	{"2ecss-congest", func(c config) (env, error) { return newLibEnv(twoCongest(c.tiny), c.seed, c.seconds) }},
	{"serve-mix", func(c config) (env, error) { return newServeEnv(serveMix(c.tiny), c.seed, c.seconds) }},
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed: every input is generated from it")
	fs.Float64Var(&cfg.seconds, "seconds", 15, "length of the measured window")
	fs.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer metrics")
	fs.BoolVar(&cfg.tiny, "tiny", false, "shrink every workload to a few small solves (self-test)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	cfg.trace = trace == 1
	var w *workload
	for i := range workloads {
		if workloads[i].name == cfg.workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if cfg.seconds <= 0 {
		return errors.New("--seconds must be positive")
	}

	var (
		e      env
		setups []float64
	)
	repeats := setupRepeats
	if cfg.trace {
		repeats = 1 // a traced run reports no set-up time
	}
	for i := 0; i < repeats; i++ {
		if e != nil {
			e.close()
		}
		start := time.Now()
		var err error
		if e, err = w.build(cfg); err != nil {
			return fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer e.close()

	var (
		out *outcome
		err error
	)
	if cfg.trace {
		out, err = e.traced()
	} else {
		out = e.measure()
		out.metrics["setup_s"] = metric{median(setups), "s"}
		out.metrics["rss_peak_mb"] = metric{peakRSSMB(), "MB"}
		out.metrics["ok_ratio"] = metric{float64(out.attempted-out.failed) / float64(max(out.attempted, 1)), "ratio"}
	}
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	if out.attempted < 1 {
		return fmt.Errorf("%s: no operation completed", w.name)
	}
	for _, n := range out.notes {
		fmt.Fprintln(stdout, n)
	}
	fmt.Fprintf(stdout, "workload %s seed %d result_digest %s\n", w.name, cfg.seed, out.digest)
	names := make([]string, 0, len(out.metrics))
	for name, m := range out.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("%s: metric %s is not a number", w.name, name)
		}
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(stdout, "%-32s %14.6g %s\n", name, out.metrics[name].Value, out.metrics[name].Unit)
	}
	line, err := json.Marshal(result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// callers is the number of concurrent clients and pool workers: one per
// CPU, so the load comes from one process without oversubscribing it.
func callers() int { return runtime.NumCPU() }

// allocMeter measures heap bytes allocated across a window.
type allocMeter struct{ start uint64 }

func startAllocMeter() allocMeter {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return allocMeter{start: ms.TotalAlloc}
}

// mbPerOp is the heap allocated since start, in MB per operation.
func (a allocMeter) mbPerOp(ops int64) float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc-a.start) / (1 << 20) / float64(max(ops, 1))
}

// peakRSSMB is the process's peak resident set (VmHWM), falling back to the
// Go runtime's total obtained memory where /proc is unavailable.
func peakRSSMB() float64 {
	if raw, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			var kb float64
			if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// percentile returns the nearest-rank p-quantile (0 <= p <= 1) of xs,
// sorting a copy; 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// trimmedMean is the mean of xs without its lowest and highest value.
// serve-mix's per-window statistics are combined with it: one stalled
// window is dropped, and averaging the rest gave about half the
// seed-to-seed spread of their median.
func trimmedMean(xs []float64) float64 {
	if len(xs) < 3 {
		return median(xs)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var sum float64
	for _, x := range s[1 : len(s)-1] {
		sum += x
	}
	return sum / float64(len(s)-2)
}

// windows is how many equal time windows a measured run is split into.
const windows = 7

// windowsOf splits items into windows equal slices of [0, span) by their
// offset; offsets at or past span land in the last window.
func windowsOf[T any](items []T, offset func(T) time.Duration, span time.Duration) [windows][]T {
	var out [windows][]T
	for _, it := range items {
		w := int(int64(offset(it)) * windows / max(int64(span), 1))
		w = min(max(w, 0), windows-1)
		out[w] = append(out[w], it)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
