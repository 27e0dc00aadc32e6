package lru

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"github.com/p4lru/p4lru/internal/perm"
)

// flatWidths are the unit capacities with a flat core.
var flatWidths = []int{2, 3, 4}

// newGenericArray builds the generic oracle array for a unit capacity.
func newGenericArray(unitCap, units int, seed uint64, merge MergeFunc[uint64]) *Array[uint64] {
	switch unitCap {
	case 2:
		return NewArray(units, seed, func() UnitCache[uint64] { return NewUnit2[uint64](merge) })
	case 4:
		return NewArray(units, seed, func() UnitCache[uint64] { return NewUnit4[uint64](merge) })
	default:
		return NewArray3[uint64](units, seed, merge)
	}
}

// genericState returns an encoded generic unit's cache-state code in the
// FlatArray.UnitState layout: Unit2.State, Unit3.State, or Unit4.StatePair
// packed as s3 | v4<<3.
func genericState(u UnitCache[uint64]) uint8 {
	switch g := u.(type) {
	case *Unit2[uint64]:
		return g.State()
	case *Unit3[uint64]:
		return g.State()
	case *Unit4[uint64]:
		s3, v4 := g.StatePair()
		return s3 | v4<<3
	}
	panic(fmt.Sprintf("no state code for %T", u))
}

// checkFlatEquivalence asserts that a FlatArray and the generic oracle
// array agree on every observable: total occupancy, per-unit occupancy,
// per-unit LRU key order, per-unit encoded state, and the value mapping.
func checkFlatEquivalence(t *testing.T, flat *FlatArray, gen *Array[uint64]) {
	t.Helper()
	if flat.Len() != gen.Len() {
		t.Fatalf("len diverged: flat %d generic %d", flat.Len(), gen.Len())
	}
	for u := 0; u < flat.Units(); u++ {
		gu := gen.units[u]
		if flat.UnitLen(u) != gu.Len() {
			t.Fatalf("unit %d occupancy diverged: flat %d generic %d", u, flat.UnitLen(u), gu.Len())
		}
		if fs, gs := flat.UnitState(u), genericState(gu); fs != gs {
			t.Fatalf("unit %d state diverged: flat %d generic %d", u, fs, gs)
		}
		for i := 0; i < gu.Len(); i++ {
			if fk, gk := flat.UnitKeyAt(u, i), gu.KeyAt(i); fk != gk {
				t.Fatalf("unit %d key[%d] diverged: flat %d generic %d", u, i, fk, gk)
			}
			k := gu.KeyAt(i)
			fv, fok := flat.Lookup(k)
			gv, gok := gen.Lookup(k)
			if fok != gok || fv != gv {
				t.Fatalf("lookup(%d) diverged: flat (%d,%v) generic (%d,%v)", k, fv, fok, gv, gok)
			}
		}
	}
}

// applyDifferentialOp drives one decoded op through both arrays and fails on
// any divergence in the returned Result.
func applyDifferentialOp(t *testing.T, flat *FlatArray, gen *Array[uint64], kind uint8, k, v uint64) {
	t.Helper()
	var fr, gr Result[uint64]
	switch kind % 3 {
	case 0, 1: // Update is twice as likely — it is the hot path.
		fr = flat.Update(k, v)
		gr = gen.Update(k, v)
	case 2:
		fr = flat.InsertTail(k, v)
		gr = gen.InsertTail(k, v)
	}
	if fr != gr {
		t.Fatalf("op %d on key %d diverged: flat %+v generic %+v", kind%3, k, fr, gr)
	}
}

// flatDifferential replays long random op streams (Update, InsertTail,
// Lookup) through a width-n FlatArray and the generic Array of the encoded
// width-n unit with the same seed, with and without a merge function, and
// requires identical hit/evict results and identical unit states
// throughout. keysPerUnit sets the key space relative to the unit count:
// few distinct keys per unit, so hits, merges and full-unit evictions all
// occur often.
func flatDifferential(t *testing.T, n, keysPerUnit int) {
	add := func(old, in uint64) uint64 { return old + in }
	for _, tc := range []struct {
		name  string
		merge MergeFunc[uint64]
	}{
		{"replace", nil},
		{"merge-add", add},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 5; seed++ {
				const units = 64
				flat := NewFlatArray(n, units, uint64(seed), tc.merge)
				gen := newGenericArray(n, units, uint64(seed), tc.merge)
				r := rand.New(rand.NewSource(seed))
				keySpace := int64(units * keysPerUnit)
				for step := 0; step < 50000; step++ {
					k := uint64(r.Int63n(keySpace)) + 1
					applyDifferentialOp(t, flat, gen, uint8(r.Intn(3)), k, uint64(step+1))
					if step%500 == 0 {
						checkFlatEquivalence(t, flat, gen)
					}
				}
				checkFlatEquivalence(t, flat, gen)
			}
		})
	}
}

// TestFlatVsGenericDifferential holds the 3-wide core to Array+Unit3 — the
// property that lets every figure in results/ run on the flat core
// unchanged. TestFlat2VsGenericDifferential and
// TestFlat4VsGenericDifferential do the same for Unit2 (the one-bit state)
// and Unit4 (the (s3, v4) pair).
func TestFlatVsGenericDifferential(t *testing.T)  { flatDifferential(t, 3, 5) }
func TestFlat2VsGenericDifferential(t *testing.T) { flatDifferential(t, 2, 4) }
func TestFlat4VsGenericDifferential(t *testing.T) { flatDifferential(t, 4, 6) }

// fuzzFlatVsGeneric decodes the fuzz input as a stream of (op, key, value)
// records and differentially executes it against a width-n FlatArray and
// its generic oracle. The fuzzer explores op interleavings the random
// streams may miss.
func fuzzFlatVsGeneric(t *testing.T, data []byte, n int) {
	const units = 8
	flat := NewFlatArray(n, units, 7, nil)
	gen := newGenericArray(n, units, 7, nil)
	for len(data) >= 3 {
		kind := data[0]
		k := uint64(data[1]%32) + 1 // small key space forces collisions
		v := uint64(data[2])
		data = data[3:]
		if len(data) >= 8 { // occasionally take a full-width key
			if kind&0x80 != 0 {
				k = binary.LittleEndian.Uint64(data)%64 + 1
				data = data[8:]
			}
		}
		applyDifferentialOp(t, flat, gen, kind, k, v)
	}
	checkFlatEquivalence(t, flat, gen)
}

func addFlatFuzzSeeds(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add([]byte{2, 0, 0, 0, 2, 0, 0, 1, 2, 0, 0, 2, 2, 0, 0, 3})
}

func FuzzFlatVsGeneric(f *testing.F) {
	addFlatFuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) { fuzzFlatVsGeneric(t, data, 3) })
}

func FuzzFlat2VsGeneric(f *testing.F) {
	addFlatFuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) { fuzzFlatVsGeneric(t, data, 2) })
}

func FuzzFlat4VsGeneric(f *testing.F) {
	addFlatFuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) { fuzzFlatVsGeneric(t, data, 4) })
}

// TestFlatTransitionsExhaustive covers the whole finite transition space of
// each width's table: a breadth-first search from the empty one-unit
// FlatArray reaches every (state, occupancy) pair, and from each applies
// every operation — an Update hit at each position, the insert or the
// full-miss eviction, and InsertTail of each resident and of a new key —
// against the permutation-based Unit. After every operation the keys in LRU
// order, the value each key maps to, the Result and the full state
// permutation must agree.
func TestFlatTransitionsExhaustive(t *testing.T) {
	type step struct {
		tail bool // InsertTail instead of Update
		pos  int  // LRU position of the resident key to touch; -1 = a new key
	}
	for _, n := range flatWidths {
		t.Run(fmt.Sprintf("width=%d", n), func(t *testing.T) {
			add := func(old, in uint64) uint64 { return old + in }
			// replay rebuilds the pair a path of steps reaches from empty,
			// checking every step on the way.
			replay := func(path []step) (*FlatArray, *Unit[uint64]) {
				flat := NewFlatArray(n, 1, 1, add)
				gen := NewUnit[uint64](n, add)
				for i, s := range path {
					k := uint64(1000 + i) // a key neither unit holds
					if s.pos >= 0 {
						k = gen.KeyAt(s.pos)
					}
					v := uint64(1) << i // distinct bits, so a sum names its writes
					var fr, gr Result[uint64]
					if s.tail {
						fr, gr = flat.InsertTail(k, v), gen.InsertTail(k, v)
					} else {
						fr, gr = flat.Update(k, v), gen.Update(k, v)
					}
					if fr != gr {
						t.Fatalf("path %v: result %+v, want %+v", path[:i+1], fr, gr)
					}
					if flat.UnitLen(0) != gen.Len() {
						t.Fatalf("path %v: occupancy %d, want %d", path[:i+1], flat.UnitLen(0), gen.Len())
					}
					for j := 0; j < gen.Len(); j++ {
						k := gen.KeyAt(j)
						if fk := flat.UnitKeyAt(0, j); fk != k {
							t.Fatalf("path %v: key[%d] = %d, want %d", path[:i+1], j, fk, k)
						}
						fv, fok := flat.Lookup(k)
						gv, _ := gen.Lookup(k)
						if !fok || fv != gv {
							t.Fatalf("path %v: key %d maps to (%d,%v), want %d", path[:i+1], k, fv, fok, gv)
						}
					}
					state := gen.State()
					for j := 0; j < n; j++ {
						if got := flat.tab.valPos[flat.UnitState(0)][j]; int(got) != state.Apply(j) {
							t.Fatalf("path %v: state code %d sends position %d to slot %d, want %v",
								path[:i+1], flat.UnitState(0), j, got, state)
						}
					}
				}
				return flat, gen
			}

			seen := map[[2]int]bool{{int(flatTables[n].initial), 0}: true}
			queue := [][]step{nil}
			full := 0 // states reached with the unit full
			for len(queue) > 0 {
				path := queue[0]
				queue = queue[1:]
				_, gen := replay(path)
				var next []step
				for pos := 0; pos < gen.Len(); pos++ {
					next = append(next, step{false, pos}, step{true, pos})
				}
				next = append(next, step{false, -1}, step{true, -1})
				for _, s := range next {
					p := append(append([]step(nil), path...), s)
					flat, _ := replay(p)
					key := [2]int{int(flat.UnitState(0)), flat.UnitLen(0)}
					if !seen[key] {
						seen[key] = true
						if key[1] == n {
							full++
						}
						queue = append(queue, p)
					}
				}
			}
			if want := perm.Factorial(n); full != want {
				t.Fatalf("reached %d full-unit states, want all %d", full, want)
			}
		})
	}
}

// TestFlatBatchMatchesScalar pins QueryBatch/UpdateBatch of the 3-wide
// array to the scalar paths: a batch walk must be exactly equivalent to
// the loop of single-key calls it replaces.
func TestFlatBatchMatchesScalar(t *testing.T) { flatBatchMatchesScalar(t, 3) }

// TestFlat24BatchMatchesScalar does the same for the 2- and 4-wide arrays.
func TestFlat24BatchMatchesScalar(t *testing.T) {
	for _, n := range []int{2, 4} {
		t.Run(fmt.Sprintf("width=%d", n), func(t *testing.T) { flatBatchMatchesScalar(t, n) })
	}
}

func flatBatchMatchesScalar(t *testing.T, n int) {
	const units = 128
	batched := NewFlatArray(n, units, 3, nil)
	scalar := NewFlatArray(n, units, 3, nil)
	r := rand.New(rand.NewSource(9))

	for round := 0; round < 50; round++ {
		m := r.Intn(200) + 1
		keys := make([]uint64, m)
		vals := make([]uint64, m)
		for i := range keys {
			keys[i] = uint64(r.Int63n(units*4)) + 1
			vals[i] = uint64(r.Int63())
		}

		wantHits, wantEv := 0, 0
		for i := range keys {
			res := scalar.Update(keys[i], vals[i])
			if res.Hit {
				wantHits++
			}
			if res.Evicted {
				wantEv++
			}
		}
		hits, ev := batched.UpdateBatch(keys, vals)
		if hits != wantHits || ev != wantEv {
			t.Fatalf("round %d: UpdateBatch (%d hits, %d ev) != scalar (%d hits, %d ev)",
				round, hits, ev, wantHits, wantEv)
		}

		gotV := make([]uint64, m)
		gotOK := make([]bool, m)
		batched.QueryBatch(keys, gotV, gotOK)
		for i, k := range keys {
			wv, wok := scalar.Lookup(k)
			if gotV[i] != wv || gotOK[i] != wok {
				t.Fatalf("round %d: QueryBatch[%d] key %d = (%d,%v), want (%d,%v)",
					round, i, k, gotV[i], gotOK[i], wv, wok)
			}
		}
	}

	// Same end state.
	for u := 0; u < units; u++ {
		if batched.UnitState(u) != scalar.UnitState(u) || batched.UnitLen(u) != scalar.UnitLen(u) {
			t.Fatalf("unit %d diverged after batched rounds", u)
		}
	}
}

// TestFlatZeroAlloc pins the zero-allocation contract of the 3-wide
// array's hot paths: Update, Lookup, InsertTail and the steady-state batch
// walks.
func TestFlatZeroAlloc(t *testing.T) { flatZeroAlloc(t, 3) }

// TestFlat24ZeroAlloc does the same for the 2- and 4-wide arrays.
func TestFlat24ZeroAlloc(t *testing.T) {
	for _, n := range []int{2, 4} {
		t.Run(fmt.Sprintf("width=%d", n), func(t *testing.T) { flatZeroAlloc(t, n) })
	}
}

func flatZeroAlloc(t *testing.T, n int) {
	a := NewFlatArray(n, 1<<10, 1, nil)
	keys := make([]uint64, 256)
	vals := make([]uint64, 256)
	oks := make([]bool, 256)
	r := rand.New(rand.NewSource(2))
	for i := range keys {
		keys[i] = uint64(r.Int63n(1 << 12))
	}

	var k uint64
	if allocs := testing.AllocsPerRun(1000, func() {
		k++
		a.Update(k&0xfff, k)
	}); allocs != 0 {
		t.Errorf("Update allocates %v/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		k++
		a.Lookup(k & 0xfff)
	}); allocs != 0 {
		t.Errorf("Lookup allocates %v/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		k++
		a.InsertTail(k&0xfff, k)
	}); allocs != 0 {
		t.Errorf("InsertTail allocates %v/op, want 0", allocs)
	}

	a.UpdateBatch(keys, vals) // grow the batch scratch once
	if allocs := testing.AllocsPerRun(100, func() {
		a.UpdateBatch(keys, vals)
	}); allocs != 0 {
		t.Errorf("UpdateBatch allocates %v/batch, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		a.QueryBatch(keys, vals, oks)
	}); allocs != 0 {
		t.Errorf("QueryBatch allocates %v/batch, want 0", allocs)
	}
}

// validFlatState reports whether s is a width-n state code: the State2
// bit, a Table 1 code, or a Table 1 code with any V4 index in bits 3–4.
func validFlatState(n int, s uint8) bool {
	switch n {
	case 2:
		return s <= 1
	case 3:
		return s <= 5
	default:
		return s&7 <= 5
	}
}

// TestFlatInvariants runs the structural invariant checks of
// invariants_test.go over the flat array's units at every width.
func TestFlatInvariants(t *testing.T) {
	for _, n := range flatWidths {
		t.Run(fmt.Sprintf("width=%d", n), func(t *testing.T) {
			const units = 16
			a := NewFlatArray(n, units, 5, nil)
			r := rand.New(rand.NewSource(13))
			for step := 0; step < 20000; step++ {
				k := uint64(r.Int63n(int64(units*2*n))) + 1
				if r.Intn(4) == 0 {
					a.InsertTail(k, uint64(step))
				} else {
					a.Update(k, uint64(step))
				}
			}
			total := 0
			for u := 0; u < units; u++ {
				size := a.UnitLen(u)
				total += size
				if size > n {
					t.Fatalf("unit %d occupancy %d > %d", u, size, n)
				}
				if s := a.UnitState(u); !validFlatState(n, s) {
					t.Fatalf("unit %d invalid state %d", u, s)
				}
				seen := map[uint64]bool{}
				for i := 0; i < size; i++ {
					k := a.UnitKeyAt(u, i)
					if seen[k] {
						t.Fatalf("unit %d holds duplicate key %d", u, k)
					}
					seen[k] = true
					if a.UnitIndex(k) != u {
						t.Fatalf("key %d stored in unit %d but hashes to %d", k, u, a.UnitIndex(k))
					}
					if _, ok := a.Lookup(k); !ok {
						t.Fatalf("resident key %d not found by Lookup", k)
					}
				}
			}
			if total != a.Len() {
				t.Fatalf("Len() %d != summed occupancy %d", a.Len(), total)
			}
			count := 0
			a.Range(func(k, v uint64) bool { count++; return true })
			if count != total {
				t.Fatalf("Range visited %d pairs, want %d", count, total)
			}
		})
	}
}
