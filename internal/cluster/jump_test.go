package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestRingCeilMatchesBinarySearch: the jump-index ceil agrees with the
// sort.Search lookup it replaced, on seeded random positions and at every
// point's edges, over rings small and large, sparse and dense.
func TestRingCeilMatchesBinarySearch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, members := range []int{0, 1, 3, 17} {
		for _, vnodes := range []int{1, 64} {
			r := NewRing(testSeed, vnodes, ringMembers(members))
			pos := r.points.keys
			ref := func(h uint64) int {
				i := sort.Search(len(pos), func(i int) bool { return pos[i] >= h })
				if i == len(pos) {
					return 0
				}
				return i
			}
			probes := []uint64{0, math.MaxUint64}
			for _, p := range pos {
				probes = append(probes, p-1, p, p+1)
			}
			for i := 0; i < 100000; i++ {
				probes = append(probes, rng.Uint64())
			}
			for _, h := range probes {
				if got, want := r.ceil(h), ref(h); got != want {
					t.Fatalf("%d members × %d vnodes: ceil(%#x) = %d, sort.Search says %d", members, vnodes, h, got, want)
				}
			}
		}
	}
}

// TestArcIndexMatchesArcsContain: the window arc index agrees with the
// linear arcsContain scan on seeded random arc sets — wrapping, degenerate,
// overlapping and touching arcs among them — and on the arcs Plan emits for
// a join and for a leave.
func TestArcIndexMatchesArcsContain(t *testing.T) {
	check := func(name string, arcs [][2]uint64, probes []uint64) {
		t.Helper()
		idx := newArcIndex(arcs)
		// The spans must come out sorted, disjoint and apart, or the jump
		// index over their ends would not be over a sorted list.
		for i, lo := range idx.lo {
			if hi := idx.hi.keys[i]; lo > hi || (i > 0 && idx.hi.keys[i-1] >= lo-1) {
				t.Fatalf("%s: arcs %v: spans %v / %v not sorted and disjoint", name, arcs, idx.lo, idx.hi.keys)
			}
		}
		probes = append(probes, 0, 1, math.MaxUint64-1, math.MaxUint64)
		for _, a := range arcs {
			for _, e := range a {
				probes = append(probes, e-1, e, e+1)
			}
		}
		for _, h := range probes {
			if got, want := idx.contains(h), arcsContain(arcs, h); got != want {
				t.Fatalf("%s: arcs %v: contains(%#x) = %v, arcsContain says %v", name, arcs, h, got, want)
			}
		}
	}

	rng := rand.New(rand.NewSource(2))
	// A small universe at both ends of the circle makes arcs overlap, touch
	// and wrap often; full-width endpoints cover the sparse case.
	small := func() uint64 {
		if v := uint64(rng.Intn(64)); rng.Intn(2) == 0 {
			return v
		} else {
			return math.MaxUint64 - v
		}
	}
	for trial := 0; trial < 3000; trial++ {
		end := rng.Uint64
		if trial%2 == 0 {
			end = small
		}
		arcs := make([][2]uint64, rng.Intn(6))
		for i := range arcs {
			from := end()
			to := end()
			if rng.Intn(10) == 0 {
				to = from // degenerate: the whole circle
			}
			arcs[i] = [2]uint64{from, to}
		}
		var probes []uint64
		for i := 0; i < 64; i++ {
			probes = append(probes, end(), rng.Uint64())
		}
		check(fmt.Sprintf("trial %d", trial), arcs, probes)
	}

	members := ringMembers(5)
	four := NewRing(testSeed, 64, members[:4])
	five := NewRing(testSeed, 64, members)
	for _, replicas := range []int{1, 2} {
		for _, change := range []struct {
			name      string
			old, next *Ring
		}{{"join", four, five}, {"leave", five, four}} {
			transfers := Plan(change.old, change.next, replicas)
			if len(transfers) == 0 {
				t.Fatalf("%s plan at replicas=%d is empty", change.name, replicas)
			}
			for _, tr := range transfers {
				probes := make([]uint64, 10000)
				for i := range probes {
					probes[i] = rng.Uint64()
				}
				check(fmt.Sprintf("%s replicas=%d dest %s", change.name, replicas, tr.Dest), tr.Arcs, probes)
			}
		}
	}
}
