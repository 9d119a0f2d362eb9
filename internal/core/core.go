// Package core implements the paper's contribution: the Aug_k covering
// framework (§2.1, Claim 2.1), the weighted k-ECSS algorithm (§4), the
// weighted 2-ECSS algorithm (MST + weighted TAP, §3 / Theorem 1.1) and the
// unweighted 3-ECSS algorithm via cycle space sampling (§5 / Theorem 1.3).
//
// # Minimum-cut enumeration
//
// Every Aug_k level must cover every minimum cut of its current subgraph H
// (Definition 2.1). EnumerateMinCuts produces them as canonical vertex
// bipartitions, exactly at every size. Sizes 1 and 2 take the bridges and
// graph.CutPairs and read each side off one DFS spanning tree rooted at
// vertex 0: the side without vertex 0 is the XOR of the subtrees below the
// cut's tree edges, at most two preorder intervals. Sizes 3 and up run the
// unit-flow engine of graph.EachMinCut. For t = 1..n−1 the engine pushes
// unit paths from the merged source {0..t−1} to t; each minimum cut is a
// minimum {0..t−1}–t cut for exactly one t, the smallest vertex of its far
// side, and the minimum cuts at that t are the closed sets of the residual
// graph (Picard–Queyranne), which it lists by branching on one free vertex
// at a time. The same pass computes λ, so the enumeration checks its own
// precondition. There is no Monte Carlo step and no "rerun with another
// seed": every level, and with it every solve, is exact for every seed.
//
// # Seeds
//
// Size >= 3 enumeration draws one Int63 from the caller's RNG and discards
// it, where the enumerators the flow engine replaced drew their seeds:
// size 3 whenever λ >= 3 (the cycle-space labels), size >= 4 only when
// λ equals the size (the Karger–Stein trials). So Aug's sampling consumes
// the same stream as before, and every result is the one those
// enumerators gave whenever they found every cut. The found cuts are
// sorted canonically, so the output depends only on the graph and the cut
// size. Sizes 1 and 2 draw nothing.
//
// # Scratch ownership
//
// The flow engine's scratch (arc arrays, residual capacities, search marks
// and the closed-set branching state) comes from a package sync.Pool in
// internal/graph and is owned by one call at a time. Materialised cut
// bitsets are carved from blocks of a cutStore that detaches them on
// reset, so cuts returned to callers keep sole ownership of their memory.
// A warm enumeration allocates only the cuts it returns, plus the
// spanning tree at sizes 1–2.
//
// No size needs a dedup: a minimum cut's edge set is determined by its
// side, so distinct bridges, distinct cut pairs and distinct closed sets
// are distinct bipartitions. Aug's coverage bookkeeping then works on
// dense cut indices (covered bitmaps, candidate cut-index lists) — no
// string keys on any hot path.
//
// # One activation schedule
//
// Aug_k and the 3-ECSS loop draw their activations from one sampler: p_i
// starts at 1/2^⌈log m⌉, doubles every PhaseLen·(⌈log n⌉+1) iterations and
// restarts whenever the maximum rounded cost-effectiveness drops; each
// candidate at that maximum activates with probability p_i, one draw per
// candidate in ascending edge ID. Each loop keeps its own Line 4 (Aug's
// MST filter, the 3-ECSS loop's direct add) and its own cover counting.
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
// bit-identical to a full per-iteration rescan with a from-scratch label
// scan (the test-side reference the equivalence corpus pins it to).
//
//kecss:deterministic
package core
