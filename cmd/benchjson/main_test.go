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
