package cluster

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
)

// jumpIndex answers "first index whose key is ≥ h" over a sorted []uint64
// in expected O(1): a bucket table on the top bits of h — one bucket per
// key, rounded up to a power of two — names the first candidate, and a
// short forward scan over that one bucket finishes. Ring positions and
// window arcs are hash outputs, so buckets hold about one key each. It
// serves the router's per-op ring lookups and dual-read window tests in
// place of a binary search.
type jumpIndex struct {
	keys  []uint64 // sorted ascending
	start []int32  // start[b] is the first i with keys[i]>>shift ≥ b
	shift uint
}

func newJumpIndex(keys []uint64) jumpIndex {
	n := 1
	for n < len(keys) {
		n <<= 1
	}
	// A one-bucket table shifts by 64, which Go defines as 0 for uint64.
	j := jumpIndex{keys: keys, start: make([]int32, n), shift: uint(64 - bits.TrailingZeros(uint(n)))}
	i := 0
	for b := range j.start {
		for i < len(keys) && keys[i]>>j.shift < uint64(b) {
			i++
		}
		j.start[b] = int32(i)
	}
	return j
}

// ceil returns the first index whose key is ≥ h, or len(keys) if none is.
// Every key before start[h>>shift] sits in a lower bucket, so below h; the
// scan stops inside h's own bucket.
func (j *jumpIndex) ceil(h uint64) int {
	i := int(j.start[h>>j.shift])
	for i < len(j.keys) && j.keys[i] < h {
		i++
	}
	return i
}

// arcIndex answers arcsContain(arcs, h) in expected O(1). The arcs are cut
// into sorted, disjoint inclusive spans [lo, hi] — a wrapping arc splits at
// zero, a degenerate from == to arc covers the whole circle, overlapping or
// touching spans merge — and a jumpIndex over the span ends finds the only
// span that can hold h.
type arcIndex struct {
	hi jumpIndex // span ends, ascending
	lo []uint64  // lo[i] starts the span that ends at hi.keys[i]
}

func newArcIndex(arcs [][2]uint64) arcIndex {
	type span struct{ lo, hi uint64 }
	spans := make([]span, 0, len(arcs)+1)
	for _, a := range arcs {
		from, to := a[0], a[1]
		switch {
		case from < to:
			spans = append(spans, span{from + 1, to})
		case from == to:
			spans = append(spans, span{0, math.MaxUint64})
		default: // (from, max] ∪ [0, to]
			if from < math.MaxUint64 {
				spans = append(spans, span{from + 1, math.MaxUint64})
			}
			spans = append(spans, span{0, to})
		}
	}
	slices.SortFunc(spans, func(a, b span) int { return cmp.Compare(a.lo, b.lo) })
	var lo, hi []uint64
	for _, s := range spans {
		if n := len(hi); n > 0 && (hi[n-1] == math.MaxUint64 || s.lo <= hi[n-1]+1) {
			hi[n-1] = max(hi[n-1], s.hi)
			continue
		}
		lo = append(lo, s.lo)
		hi = append(hi, s.hi)
	}
	return arcIndex{hi: newJumpIndex(hi), lo: lo}
}

// contains reports whether some arc covers ring position h.
func (a *arcIndex) contains(h uint64) bool {
	i := a.hi.ceil(h)
	return i < len(a.lo) && a.lo[i] <= h
}
