package wire

import (
	"bytes"
	"encoding/json"
	"maps"
	"reflect"
	"slices"
	"testing"
)

// FuzzGraphJSON feeds arbitrary bytes through the request path of the HTTP
// API: JSON decode into a SolveRequest, Validate, then ToGraph. Bad input
// must return an error and never panic; an accepted graph must round-trip
// through GraphToJSON unchanged. Seeds: a request for every generator
// family, plus the malformed bodies in testdata/fuzz/FuzzGraphJSON.
func FuzzGraphJSON(f *testing.F) {
	families := generatorFamilies()
	for _, name := range slices.Sorted(maps.Keys(families)) {
		raw, err := json.Marshal(SolveRequest{Graph: GraphToJSON(families[name]), SolveSpec: SolveSpec{Solver: "kecss", K: 3, Seed: 1}})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		var req SolveRequest
		if err := json.Unmarshal(raw, &req); err != nil {
			return
		}
		if err := req.Validate(); err != nil {
			return
		}
		g, err := req.Graph.ToGraph()
		if err != nil {
			return
		}
		back := GraphToJSON(g)
		if back.N != req.Graph.N || len(back.Edges) != len(req.Graph.Edges) ||
			(len(back.Edges) > 0 && !reflect.DeepEqual(back.Edges, req.Graph.Edges)) {
			t.Fatalf("accepted graph does not round-trip: %+v -> %+v", req.Graph, back)
		}
	})
}

// FuzzDecodeGraph feeds arbitrary bytes to the binary decoder. Bad input
// must return an error and never panic; accepted input must be canonical,
// re-encoding to exactly the bytes it was decoded from. Seeds: every
// generator family's encoding and the malformed encodings of
// malformedBinary.
func FuzzDecodeGraph(f *testing.F) {
	families := generatorFamilies()
	for _, name := range slices.Sorted(maps.Keys(families)) {
		f.Add(EncodeGraph(families[name]))
	}
	malformed := malformedBinary()
	for _, name := range slices.Sorted(maps.Keys(malformed)) {
		f.Add(malformed[name])
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		g, err := DecodeGraph(b)
		if err != nil {
			return
		}
		if re := EncodeGraph(g); !bytes.Equal(re, b) {
			t.Fatalf("accepted input is not canonical:\n  in  %x\n  out %x", b, re)
		}
	})
}
