package wire

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
)

// generatorFamilies builds one representative of every generator family in
// internal/graph/generators.go, deterministically.
func generatorFamilies() map[string]*graph.Graph {
	rng := func(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
	unit := graph.UnitWeights()
	return map[string]*graph.Graph{
		"cycle":       graph.Cycle(17, unit),
		"circulant":   graph.Circulant(16, 3, unit),
		"harary":      graph.Harary(4, 15, graph.RandomWeights(rng(2), 50)),
		"random":      graph.RandomKConnected(30, 3, 40, rng(3), graph.RandomWeights(rng(4), 100)),
		"grid":        graph.Grid(4, 6, unit),
		"cliquechain": graph.CliqueChain(4, 5, 3, unit),
		"geometric":   graph.RandomGeometric(40, 0.3, 2, rng(5)),
		"chunglu":     graph.ChungLu(36, 2.5, 6, 2, rng(6), unit),
		"fattree":     graph.FatTree(4, unit),
		"figure2":     graph.PaperFigure2Graph(),
	}
}

// goldenDigests pins the content digest of every family's representative
// under a fixed spec. These values must never change for a given
// wire.DigestVersion: they freeze the version byte, the canonical binary
// encoding and the generators' outputs. If a digest moves, either the
// pre-image layout or a generator changed — both invalidate every store
// entry and recorded comparison in the wild, and the layout case requires
// a DigestVersion bump (recorded under version 0x01).
var goldenDigests = map[string]string{
	"chunglu":     "fca0e0f1e2c6719fd4a500e553b27788fdcd5a14356aaa14c94545194ed41f9b",
	"circulant":   "daaea34748d4061af52e61327060b0c6fc2364a601f5178965f820d6bf534157",
	"cliquechain": "639fd9cfe9eea457c5c747e2782e3c0be336923d584af45f23e71f11313b59aa",
	"cycle":       "024fa4fc0dad2f961318f01b83ebc6c916286b34eb232b98b8230c79324877fc",
	"fattree":     "3aed0e6a7a11c651bb23bf373e0a84a6d8415daedec8dd4c67e8e9b7b44855c3",
	"figure2":     "bed5d33dc073f812fc972a047b353250dbaa7166e0ae13aecabfb2e52abdc474",
	"geometric":   "0df33f161100e4e66e8c15dcb13e6643a67ed3405292c43efcb787f1e3cfcbc0",
	"grid":        "5ae93abc4ed73161025a83e01af8106d6fad3db104dcaa52a41beda77ba7fe88",
	"harary":      "4332c53b54930ad38eba2b663dd568a73e327cb8811f67304659512057317055",
	"random":      "b9ebc73aed9e9b446ee4df34638bbb2c2719833d35d238e71b04c50f0afa32aa",
}

func graphsEqual(a, b *graph.Graph) bool {
	if a.N() != b.N() || a.M() != b.M() {
		return false
	}
	return reflect.DeepEqual(a.Edges(), b.Edges())
}

func TestRoundTripEveryFamily(t *testing.T) {
	spec := SolveSpec{Solver: "kecss", K: 3, Seed: 42}
	for name, g := range generatorFamilies() {
		// Graph → JSON → Graph.
		gj := GraphToJSON(g)
		raw, err := json.Marshal(gj)
		if err != nil {
			t.Fatalf("%s: marshal: %v", name, err)
		}
		var gj2 GraphJSON
		if err := json.Unmarshal(raw, &gj2); err != nil {
			t.Fatalf("%s: unmarshal: %v", name, err)
		}
		fromJSON, err := gj2.ToGraph()
		if err != nil {
			t.Fatalf("%s: ToGraph: %v", name, err)
		}
		if !graphsEqual(g, fromJSON) {
			t.Fatalf("%s: JSON round trip changed the graph", name)
		}
		// Graph → binary → Graph.
		fromBinary, err := DecodeGraph(EncodeGraph(g))
		if err != nil {
			t.Fatalf("%s: DecodeGraph: %v", name, err)
		}
		if !graphsEqual(g, fromBinary) {
			t.Fatalf("%s: binary round trip changed the graph", name)
		}
		// JSON-decoded and binary-decoded copies digest identically to the
		// original — the property the server's cache keys rely on.
		d0 := Digest(g, spec)
		if d1 := Digest(fromJSON, spec); d1 != d0 {
			t.Fatalf("%s: JSON round trip changed the digest: %s vs %s", name, d1, d0)
		}
		if d2 := Digest(fromBinary, spec); d2 != d0 {
			t.Fatalf("%s: binary round trip changed the digest: %s vs %s", name, d2, d0)
		}
	}
}

func TestGoldenDigestsStable(t *testing.T) {
	spec := SolveSpec{Solver: "kecss", K: 3, Seed: 42}
	families := generatorFamilies()
	if len(families) != len(goldenDigests) {
		t.Fatalf("have %d families but %d golden digests", len(families), len(goldenDigests))
	}
	for name, g := range families {
		want, ok := goldenDigests[name]
		if !ok {
			t.Fatalf("no golden digest recorded for family %q (got %s)", name, Digest(g, spec))
		}
		if got := Digest(g, spec); got != want {
			t.Errorf("family %q digest drifted:\n  got  %s\n  want %s", name, got, want)
		}
	}
}

// TestDigestPreImageLayout pins the digest pre-image byte-for-byte:
// version byte | EncodeGraph | canonical spec rendering. A digest built by
// hand from those parts must equal Digest — this is what lets a future
// schema change prove it bumped DigestVersion instead of silently
// reshuffling the pre-image under the same version.
func TestDigestPreImageLayout(t *testing.T) {
	g := graph.Harary(3, 12, graph.UnitWeights())
	spec := SolveSpec{Solver: "kecss", K: 3, Seed: 7, VoteDenom: 4}
	pre := []byte{DigestVersion}
	pre = append(pre, EncodeGraph(g)...)
	pre = append(pre, []byte("|solver=kecss|k=3|seed=7|mst=false|vote=4|bits=0|phase=0")...)
	sum := sha256.Sum256(pre)
	if want := hex.EncodeToString(sum[:]); Digest(g, spec) != want {
		t.Fatalf("Digest = %s, want hand-built pre-image digest %s", Digest(g, spec), want)
	}
	if DigestVersion != 0x01 {
		t.Fatalf("DigestVersion = %#x; bumping it requires re-recording goldenDigests", DigestVersion)
	}
}

func TestDigestSensitivity(t *testing.T) {
	g := graph.Harary(3, 12, graph.UnitWeights())
	base := SolveSpec{Solver: "kecss", K: 3, Seed: 7}
	d0 := Digest(g, base)

	variants := []SolveSpec{
		{Solver: "3ecss", K: 3, Seed: 7},
		{Solver: "kecss", K: 4, Seed: 7},
		{Solver: "kecss", K: 3, Seed: 8},
		{Solver: "kecss", K: 3, Seed: 7, SimulateMST: true},
		{Solver: "kecss", K: 3, Seed: 7, VoteDenom: 4},
		{Solver: "kecss", K: 3, Seed: 7, LabelBits: 32},
		{Solver: "kecss", K: 3, Seed: 7, PhaseLen: 2},
	}
	for i, v := range variants {
		if Digest(g, v) == d0 {
			t.Errorf("variant %d (%+v) collided with the base spec", i, v)
		}
	}
	// A different graph with the same spec must differ too.
	g2 := graph.Harary(3, 12, graph.UnitWeights())
	g2.AddEdge(0, 6, 1)
	if Digest(g2, base) == d0 {
		t.Error("adding an edge did not change the digest")
	}
	// And an equal graph built independently must collide (content address).
	g3 := graph.Harary(3, 12, graph.UnitWeights())
	if Digest(g3, base) != d0 {
		t.Error("identical graphs digested differently")
	}
}

func TestDecodeGraphRejectsMalformed(t *testing.T) {
	g := graph.Harary(2, 8, graph.UnitWeights())
	enc := EncodeGraph(g)
	if _, err := DecodeGraph(enc[:len(enc)-1]); err == nil {
		t.Error("truncated encoding accepted")
	}
	if _, err := DecodeGraph(append(append([]byte{}, enc...), 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
	if _, err := DecodeGraph([]byte("nope")); err == nil {
		t.Error("bad magic accepted")
	}
	for name, b := range malformedBinary() {
		if _, err := DecodeGraph(b); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// malformedBinary holds binary encodings that must be rejected before any
// per-vertex allocation: a vertex count the edges cannot connect (n = 2^62
// and n = 2^30 with m = 0; the old decoder allocated for the latter), an
// edge count the input cannot hold, and a padded varint.
func malformedBinary() map[string][]byte {
	enc := func(xs ...uint64) []byte {
		b := []byte(binaryMagic)
		for _, x := range xs {
			b = binary.AppendUvarint(b, x)
		}
		return b
	}
	return map[string][]byte{
		"n=2^62 m=0":        enc(1<<62, 0),
		"n=2^30 m=0":        enc(1<<30, 0),
		"n=4 m=1":           enc(4, 1, 0, 1, 1),
		"m=2^40 in 3 bytes": enc(2, 1<<40, 0, 1, 1),
		"padded varint":     append(enc(2, 1, 0), 0x81, 0x00, 1),
	}
}

func TestGraphJSONRejectsMalformed(t *testing.T) {
	bad := []GraphJSON{
		{N: -1},
		{N: 4, Edges: [][3]int64{{0, 4, 1}}},            // endpoint out of range
		{N: 4, Edges: [][3]int64{{2, 2, 1}}},            // self-loop
		{N: 4, Edges: [][3]int64{{0, 1, -5}}},           // negative weight
		{N: 1 << 62},                                    // n far beyond m+1
		{N: 1 << 30},                                    // n far beyond m+1
		{N: 4, Edges: [][3]int64{{0, 1, 1}, {1, 2, 1}}}, // n = m+2
	}
	for i, gj := range bad {
		if _, err := gj.ToGraph(); err == nil {
			t.Errorf("malformed graph %d accepted", i)
		}
	}
}

func TestResultDigestMatchesPinnedFormat(t *testing.T) {
	lines := []ResultLine{
		{Task: 0, Edges: []int{3, 1, 2}, Weight: 10, Rounds: 99},
		{Task: 1, Err: "boom"},
	}
	// Golden value pins the "%d|%v|%d|%d|%v\n" line format (with "<nil>"
	// for success) that cmd/kecss-bench -compare has used since PR 2.
	const want = "fc3854e1d692bb96"
	if got := ResultDigest(lines); got != want {
		t.Errorf("ResultDigest = %s, want %s", got, want)
	}
	if SolveResultDigest([]int{3, 1, 2}, 10, 99) != ResultDigest(lines[:1]) {
		t.Error("SolveResultDigest disagrees with ResultDigest on the same line")
	}
	if ResultDigest(lines) == ResultDigest(lines[:1]) {
		t.Error("dropping a line did not change the digest")
	}
}
