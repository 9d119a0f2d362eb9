package main

import "testing"

// TestCeilingSetSubBenchmarkName: the substring may itself contain '=', as
// sub-benchmark names do; the ceiling is what follows the last '='.
func TestCeilingSetSubBenchmarkName(t *testing.T) {
	var c ceilingList
	if err := c.Set("BenchmarkMicro_EnumerateMinCuts/size=3/n=2000=5000000000"); err != nil {
		t.Fatal(err)
	}
	if c[0].substr != "BenchmarkMicro_EnumerateMinCuts/size=3/n=2000" || c[0].max != 5e9 {
		t.Fatalf("got %+v", c[0])
	}
	for _, bad := range []string{"NoCeiling", "Name=", "Name=x"} {
		if err := c.Set(bad); err == nil {
			t.Fatalf("Set(%q) accepted", bad)
		}
	}
}

// TestParseLineStripsProcs: the GOMAXPROCS suffix is not part of the
// reported name, and names without one pass through unchanged.
func TestParseLineStripsProcs(t *testing.T) {
	for line, want := range map[string]string{
		"BenchmarkMicro_EdgeConnectivityUpTo/k=4/n=512-2 \t 300\t 3968245 ns/op\t 0 B/op\t 0 allocs/op": "BenchmarkMicro_EdgeConnectivityUpTo/k=4/n=512",
		"BenchmarkMicro_Solve3ECSSEndToEnd/n=64 \t 198\t 1148478 ns/op":                                 "BenchmarkMicro_Solve3ECSSEndToEnd/n=64",
		"BenchmarkAblation_ExecutorSequential-16 \t 1\t 5000 ns/op":                                     "BenchmarkAblation_ExecutorSequential",
		"BenchmarkX/mode=a-b \t 1\t 5 ns/op":                                                            "BenchmarkX/mode=a-b",
	} {
		r, ok := parseLine(line)
		if !ok || r.Name != want {
			t.Errorf("parseLine(%q) = %q, %v; want %q", line, r.Name, ok, want)
		}
	}
}
