package cycles

import (
	"math/rand"
	"testing"
)

// TestCoverIndexMatchesCoverCount pins the index's decomposed cover counts
// against Incremental.CoverCount, bit for bit, across randomized AddEdges
// sequences — including narrow labels, where collisions force the
// same-label pair term and the shared-count term to cancel exactly the way
// the direct per-path histogram does.
func TestCoverIndexMatchesCoverCount(t *testing.T) {
	for _, tc := range []struct {
		n, extra int
		bits     int
		seed     int64
	}{
		{12, 18, 48, 1},
		{24, 40, 48, 2},
		{24, 40, 4, 3}, // 4-bit labels: collisions everywhere
		{40, 60, 2, 4}, // 2-bit labels: heavy collisions, big multi set
		{60, 80, 48, 5},
	} {
		g, base, cands := spanning2EC(tc.n, tc.extra, tc.seed)
		inc, err := NewIncremental(g, base, tc.bits, rand.New(rand.NewSource(tc.seed*31)))
		if err != nil {
			t.Fatal(err)
		}
		cx := NewCoverIndex(inc, cands)
		selected := make([]bool, len(cands))
		check := func(step string) {
			cx.Refresh(func(int, int64) {})
			for i, id := range cands {
				if selected[i] {
					continue
				}
				e := g.Edge(id)
				if got, want := cx.Ce(i), inc.CoverCount(e.U, e.V); got != want {
					t.Fatalf("n=%d bits=%d seed=%d %s: cand %d (edge %d): index %d, engine %d",
						tc.n, tc.bits, tc.seed, step, i, id, got, want)
				}
			}
		}
		check("initial")
		rng := rand.New(rand.NewSource(tc.seed * 97))
		remaining := make([]int, len(cands))
		for i := range remaining {
			remaining[i] = i
		}
		for len(remaining) > 0 {
			k := 1 + rng.Intn(3)
			if k > len(remaining) {
				k = len(remaining)
			}
			batch := make([]int, 0, k)
			for j := 0; j < k; j++ {
				pick := rng.Intn(len(remaining))
				ci := remaining[pick]
				remaining[pick] = remaining[len(remaining)-1]
				remaining = remaining[:len(remaining)-1]
				selected[ci] = true
				cx.Deactivate(ci)
				batch = append(batch, cands[ci])
			}
			inc.AddEdges(batch)
			check("after AddEdges")
			// A reference rescan must leave the index equivalent via reset().
			if len(remaining)%5 == 0 {
				if _, err := inc.RelabelScan(); err != nil {
					t.Fatal(err)
				}
				check("after RelabelScan")
			}
		}
	}
}

// TestCoverIndexDirtySetIsSound verifies the output-sensitivity contract
// from the other side: candidates the index does NOT dirty really cannot
// have changed — after each update, cached counts (without any recompute of
// clean candidates) equal the engine's direct recomputation. Implied by
// the test above but stated separately so a dirty-tracking regression fails
// with a pointed message.
func TestCoverIndexDirtySetIsSound(t *testing.T) {
	g, base, cands := spanning2EC(30, 50, 11)
	inc, err := NewIncremental(g, base, 48, rand.New(rand.NewSource(13)))
	if err != nil {
		t.Fatal(err)
	}
	cx := NewCoverIndex(inc, cands)
	cx.Refresh(func(int, int64) {})
	for step, ci := range []int{3, 17, 40, 8} {
		cx.Deactivate(ci)
		inc.AddEdges([]int{cands[ci]})
		// Read caches of clean candidates BEFORE Refresh: they must already
		// be correct, or the dirty set under-approximated.
		for i, id := range cands {
			if i == 3 || i == 17 || i == 40 || i == 8 || cx.dirty[i] {
				continue
			}
			e := g.Edge(id)
			if got, want := cx.Ce(i), inc.CoverCount(e.U, e.V); got != want {
				t.Fatalf("step %d: clean candidate %d stale: cached %d, engine %d", step, i, got, want)
			}
		}
		cx.Refresh(func(int, int64) {})
	}
}
