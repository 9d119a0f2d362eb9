package core

// nExpBuckets spans every value tap.RoundedExp can return (−62..63, at
// indices 0..125) plus the infExp sentinel at index 126.
const nExpBuckets = 127

func expBucketIdx(exp int) int {
	if exp == infExp {
		return 126
	}
	return exp + 62
}

// expBuckets maintains the candidate set of the 3-ECSS loop bucketed by
// rounded cost-effectiveness exponent, so each iteration's "max exponent +
// pool of candidates attaining it" (Lines 1–2) costs O(pool + stale
// entries) instead of a full candidate rescan. Deletion is lazy: cur[] is
// authoritative, list entries are dropped when their bucket is next
// inspected, and every exponent change appends at most one entry — so the
// total compaction work is bounded by the total number of cover-count
// updates the CoverIndex reports.
type expBuckets struct {
	lists [nExpBuckets][]int32
	cur   []int8  // authoritative bucket index per candidate, -1 = none
	stamp []int32 // per-candidate round mark, dedupes re-entered candidates
	round int32
	max   int // highest possibly-nonempty bucket, -1 when all empty
}

func newExpBuckets(n int) *expBuckets {
	b := &expBuckets{
		cur:   make([]int8, n),
		stamp: make([]int32, n),
		max:   -1,
	}
	for i := range b.cur {
		b.cur[i] = -1
	}
	return b
}

// update moves candidate ci to the bucket of exp.
func (b *expBuckets) update(ci int, exp int) {
	idx := expBucketIdx(exp)
	if int(b.cur[ci]) == idx {
		return
	}
	b.cur[ci] = int8(idx)
	b.lists[idx] = append(b.lists[idx], int32(ci))
	if idx > b.max {
		b.max = idx
	}
}

// remove drops candidate ci (selected, or cover count fell to zero).
func (b *expBuckets) remove(ci int) { b.cur[ci] = -1 }

// pool appends to dst the edge IDs of every candidate in the highest
// non-empty bucket (compacting stale entries as it descends) and returns
// the extended slice with the bucket's exponent. dst order is list order —
// callers needing the legacy ascending-ID order sort it. An empty dst with
// exp 0 means no candidate has a positive cover count.
func (b *expBuckets) pool(dst []int, candIDs []int) ([]int, int) {
	b.round++
	for b.max >= 0 {
		l := b.lists[b.max]
		kept := l[:0]
		for _, ci := range l {
			if int(b.cur[ci]) != b.max || b.stamp[ci] == b.round {
				continue
			}
			b.stamp[ci] = b.round
			kept = append(kept, ci)
			dst = append(dst, candIDs[ci])
		}
		b.lists[b.max] = kept
		if len(kept) > 0 {
			exp := b.max - 62
			if b.max == 126 {
				exp = infExp
			}
			return dst, exp
		}
		b.max--
	}
	return dst, 0
}
