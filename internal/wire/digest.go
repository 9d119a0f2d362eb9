package wire

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/internal/graph"
)

// SolveSpec is every solver-visible knob of a solve request, excluding the
// graph itself. Together with the graph it fully determines the result
// bytes: executors and worker counts are deliberately absent because
// they never change results (the PR-1/PR-2 determinism contract).
//
// The zero value of each optional field means "library default". The digest
// hashes every field including zeros, so "default by omission" and "default
// spelled out as 0" produce the same bytes by construction.
type SolveSpec struct {
	// Solver is the algorithm's short name: "2ecss", "kecss", "3ecss" or
	// "3ecss-weighted" (the cmd/kecss-bench scenario vocabulary).
	Solver string `json:"solver"`
	// K is the target connectivity for "kecss" (ignored otherwise).
	K int `json:"k,omitempty"`
	// Seed is passed to kecss.WithSeed.
	Seed int64 `json:"seed"`
	// SimulateMST selects kecss.WithSimulatedMST.
	SimulateMST bool `json:"simulate_mst,omitempty"`
	// VoteDenom overrides the TAP vote denominator when > 0.
	VoteDenom int64 `json:"vote_denom,omitempty"`
	// LabelBits overrides the cycle-space label width when > 0.
	LabelBits int `json:"label_bits,omitempty"`
	// PhaseLen overrides the Aug_k activation phase length when > 0.
	PhaseLen int `json:"phase_len,omitempty"`
}

// DigestVersion is the format-version byte prefixed to every digest
// pre-image. Digests are durable now (they key result-store entries on
// disk), so the pre-image layout must be able to evolve without silently
// colliding with entries written under the old layout: when the solve-spec
// schema grows a new knob, bump this byte and every old digest becomes
// unreachable — stored entries are cleanly orphaned (and GC-able) instead
// of wrongly served for a spec they do not describe.
const DigestVersion = 0x01

// Digest returns the content key of solving g under spec: the hex SHA-256
// of the version byte, the canonical binary graph encoding, and a
// canonical rendering of every spec field. Identical digests guarantee
// byte-identical results. The pre-image layout is pinned by the golden
// tests in this package.
func Digest(g *graph.Graph, spec SolveSpec) string {
	h := sha256.New()
	h.Write([]byte{DigestVersion})
	h.Write(EncodeGraph(g))
	fmt.Fprintf(h, "|solver=%s|k=%d|seed=%d|mst=%t|vote=%d|bits=%d|phase=%d",
		spec.Solver, spec.K, spec.Seed, spec.SimulateMST,
		spec.VoteDenom, spec.LabelBits, spec.PhaseLen)
	return hex.EncodeToString(h.Sum(nil))
}

// ResultLine is one solve outcome as seen by ResultDigest: the task's index
// in its batch, the solved edge-ID set, the total weight and round count,
// and the error text ("" for success).
type ResultLine struct {
	Task   int
	Edges  []int
	Weight int64
	Rounds int64
	Err    string
}

// ResultDigest hashes a batch's visible outcome. It is the single
// byte-identity check used by cmd/kecss-bench -compare, the server's
// result_digest field, and cmd/kecss-load's end-to-end verification.
//
// The line format (including "<nil>" for success) is pinned by the golden
// tests in this package; changing it invalidates recorded digests.
func ResultDigest(lines []ResultLine) string {
	h := sha256.New()
	for _, l := range lines {
		errText := l.Err
		if errText == "" {
			errText = "<nil>"
		}
		fmt.Fprintf(h, "%d|%v|%d|%d|%v\n", l.Task, l.Edges, l.Weight, l.Rounds, errText)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// SolveResultDigest is ResultDigest for a single successful solve, the form
// served in SolveResponse.ResultDigest and recomputed by kecss-load against
// direct in-process solves.
func SolveResultDigest(edges []int, weight, rounds int64) string {
	return ResultDigest([]ResultLine{{Task: 0, Edges: edges, Weight: weight, Rounds: rounds}})
}
