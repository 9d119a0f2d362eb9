// Package core implements the paper's contribution: the Aug_k covering
// framework (§2.1, Claim 2.1), the weighted k-ECSS algorithm (§4), the
// weighted 2-ECSS algorithm (MST + weighted TAP, §3 / Theorem 1.1) and the
// unweighted 3-ECSS algorithm via cycle space sampling (§5 / Theorem 1.3).
//
// # Minimum-cut enumeration
//
// Every Aug_k level must cover every minimum cut of its current subgraph H
// (Definition 2.1). EnumerateMinCuts produces them as canonical vertex
// bipartitions. Sizes 1–3 are enumerated exactly: bridges, cut pairs, and
// for size 3 the cycle-space labels of §5 (cutlabels.go) — every 3-edge
// cut XORs to 0 under random labels, so one table lookup per (tree edge,
// edge) pair finds every candidate triple, and a component scan confirms
// each one. Size >= 4 runs recursive Karger–Stein contraction — contract
// to floor(n/√2) supernodes (see ksTarget for why the analysis' ⌈1+n/√2⌉
// is deliberately rounded down), recurse twice on the shared prefix, and
// at <= 6 supernodes enumerate every bipartition of the contracted graph
// exactly. A fixed minimum cut survives one such trial with probability
// Ω(1/log n), so Θ(log²n) trials enumerate all minimum cuts w.h.p., versus
// the Θ(n²·log n) flat contractions of EnumerateMinCutsReference (retained
// as the testing oracle).
//
// # Per-trial seeds
//
// Size >= 3 enumeration draws one Int63 from the caller's RNG, after the
// λ check. Size 3 seeds its labels with it; the labels decide only the
// running time, never the output. Contraction trial t draws from a private
// RNG seeded baseSeed XOR t, where baseSeed is that draw. The found cuts
// are sorted canonically, so the output depends only on the graph, the cut
// size and that one draw, and Aug's sampling consumes the same stream
// whichever enumerator ran.
//
// # Arena ownership
//
// All Karger–Stein trial scratch (per-level union-find, relabelling and
// contracted edge buffers, side-bitset buffers, the per-trial RNG and
// intern tables) lives in a cutArena recycled through a package sync.Pool. An arena is owned by
// exactly one goroutine at a time; materialised cut bitsets are carved
// from blocks that the arena detaches on reset, so cuts returned to
// callers keep sole ownership of their memory after the arena is recycled.
// Warm trials allocate only when they discover a never-before-seen
// bipartition.
//
// Cut identity is 64-bit FNV-1a hashed and resolved by intern tables that
// compare the underlying data on hash collision — inside trials over the
// sorted crossing-edge signature (O(λ) per probe; for a minimum cut the λ
// crossing edges determine the bipartition), in the size-2 exact
// enumerator over the bipartition bitset. The size-3 enumerator needs no
// dedup: distinct confirmed triples are distinct bipartitions. Aug's coverage
// bookkeeping then works on dense cut indices (covered bitmaps, candidate
// cut-index lists) — no string keys on any hot path.
//
// # Output-sensitive candidate scans
//
// Both covering loops avoid rescanning their candidate pools. Aug keeps a
// cut→candidate transpose of the candidate cut lists: each cut that flips
// to covered decrements the cached cover count of exactly the candidates
// crossing it, so the per-iteration Lines 1–2 selection reads one cached
// integer per candidate and total maintenance is O(Σ|Ce|) over the run.
// The 3-ECSS loop goes further, since its cover counts live in the
// cycle-space labeling rather than an explicit cut list: a
// cycles.CoverIndex maintains every unselected candidate's |Ce| under
// label updates (heavy-path Fenwick path sums plus a small same-label
// pair correction; see that type's docs), reporting exactly the
// candidates whose count may have changed, and an exponent-bucket
// structure (expBuckets) turns "max rounded cost-effectiveness + pool
// attaining it" into an O(pool + stale) pop — iterations touch candidates
// proportional to what changed, not to m. The pool a bucket pop yields is
// re-sorted to ascending edge ID, so RNG consumption and results are
// bit-identical to the legacy full scans (pinned by the equivalence
// corpus).
//
// ThreeECSSOptions.Rebalance adds the §5 mitigation for Θ(n)-height
// labeling trees: when the tree grows past 4·⌈log n⌉ and a BFS probe of
// H ∪ A shows at least a 2x height reduction, the engine is rebuilt on the
// current selection, charging the measured rebuild rounds and emitting a
// "rebalance" PhaseEvent.
//
//kecss:deterministic
package core
