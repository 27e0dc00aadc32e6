package btree

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestEmpty(t *testing.T) {
	tr := New()
	if tr.Len() != 0 || tr.Height() != 1 {
		t.Fatalf("empty: len=%d height=%d", tr.Len(), tr.Height())
	}
	if _, _, ok := tr.Get(5); ok {
		t.Error("Get on empty tree found a key")
	}
	if tr.Delete(5) {
		t.Error("Delete on empty tree returned true")
	}
	if err := tr.check(); err != nil {
		t.Error(err)
	}
}

func TestPutGet(t *testing.T) {
	tr := New()
	for k := uint64(0); k < 1000; k++ {
		if !tr.Put(k, k*2) {
			t.Fatalf("Put(%d) not inserted", k)
		}
	}
	if tr.Len() != 1000 {
		t.Fatalf("len = %d", tr.Len())
	}
	for k := uint64(0); k < 1000; k++ {
		v, nodes, ok := tr.Get(k)
		if !ok || v != k*2 {
			t.Fatalf("Get(%d) = %d,%v", k, v, ok)
		}
		if nodes != tr.Height() {
			t.Fatalf("Get(%d) visited %d nodes, height is %d", k, nodes, tr.Height())
		}
	}
	if _, _, ok := tr.Get(1000); ok {
		t.Error("found absent key")
	}
	if err := tr.check(); err != nil {
		t.Error(err)
	}
}

func TestPutReplace(t *testing.T) {
	tr := New()
	tr.Put(7, 1)
	if tr.Put(7, 2) {
		t.Error("replace reported as insert")
	}
	if v, _, _ := tr.Get(7); v != 2 {
		t.Errorf("value = %d, want 2", v)
	}
	if tr.Len() != 1 {
		t.Errorf("len = %d", tr.Len())
	}
}

func TestHeightGrowth(t *testing.T) {
	tr := New()
	if tr.Height() != 1 {
		t.Fatal("fresh height")
	}
	for k := uint64(0); k < 100000; k++ {
		tr.Put(k, k)
	}
	h := tr.Height()
	if h < 4 || h > 7 {
		t.Errorf("height for 1e5 keys = %d, want 4–7 (degree %d)", h, degree)
	}
	if err := tr.check(); err != nil {
		t.Error(err)
	}
}

func TestDelete(t *testing.T) {
	tr := New()
	const n = 5000
	for k := uint64(0); k < n; k++ {
		tr.Put(k, k)
	}
	// Delete every other key.
	for k := uint64(0); k < n; k += 2 {
		if !tr.Delete(k) {
			t.Fatalf("Delete(%d) = false", k)
		}
		if tr.Delete(k) {
			t.Fatalf("second Delete(%d) = true", k)
		}
	}
	if tr.Len() != n/2 {
		t.Fatalf("len = %d", tr.Len())
	}
	if err := tr.check(); err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < n; k++ {
		_, _, ok := tr.Get(k)
		if want := k%2 == 1; ok != want {
			t.Fatalf("Get(%d) ok=%v, want %v", k, ok, want)
		}
	}
	// Delete the rest, in random order.
	keys := make([]uint64, 0, n/2)
	for k := uint64(1); k < n; k += 2 {
		keys = append(keys, k)
	}
	r := rand.New(rand.NewSource(1))
	r.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	for _, k := range keys {
		if !tr.Delete(k) {
			t.Fatalf("Delete(%d) = false", k)
		}
	}
	if tr.Len() != 0 || tr.Height() != 1 {
		t.Errorf("after deleting all: len=%d height=%d", tr.Len(), tr.Height())
	}
	if err := tr.check(); err != nil {
		t.Error(err)
	}
}

func TestRandomOpsAgainstMap(t *testing.T) {
	tr := New()
	ref := map[uint64]uint64{}
	r := rand.New(rand.NewSource(2))
	for op := 0; op < 50000; op++ {
		k := uint64(r.Intn(2000))
		switch r.Intn(3) {
		case 0:
			v := uint64(r.Int63())
			_, exists := ref[k]
			if got := tr.Put(k, v); got != !exists {
				t.Fatalf("op %d: Put(%d) inserted=%v, want %v", op, k, got, !exists)
			}
			ref[k] = v
		case 1:
			_, exists := ref[k]
			if got := tr.Delete(k); got != exists {
				t.Fatalf("op %d: Delete(%d) = %v, want %v", op, k, got, exists)
			}
			delete(ref, k)
		case 2:
			want, exists := ref[k]
			got, _, ok := tr.Get(k)
			if ok != exists || (ok && got != want) {
				t.Fatalf("op %d: Get(%d) = %d,%v want %d,%v", op, k, got, ok, want, exists)
			}
		}
		if tr.Len() != len(ref) {
			t.Fatalf("op %d: len %d vs ref %d", op, tr.Len(), len(ref))
		}
	}
	if err := tr.check(); err != nil {
		t.Fatal(err)
	}
}

func TestRange(t *testing.T) {
	tr := New()
	for k := uint64(0); k < 100; k += 2 { // evens 0..98
		tr.Put(k, k+1)
	}
	var got []uint64
	tr.Range(10, 20, func(k, v uint64) bool {
		if v != k+1 {
			t.Fatalf("Range value mismatch at %d", k)
		}
		got = append(got, k)
		return true
	})
	want := []uint64{10, 12, 14, 16, 18, 20}
	if len(got) != len(want) {
		t.Fatalf("Range = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Range = %v, want %v", got, want)
		}
	}
	// Early stop.
	count := 0
	tr.Range(0, 98, func(k, v uint64) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Errorf("early-stop visited %d", count)
	}
	// Full scan is sorted and complete.
	var all []uint64
	tr.Range(0, ^uint64(0), func(k, v uint64) bool {
		all = append(all, k)
		return true
	})
	if len(all) != tr.Len() || !sort.SliceIsSorted(all, func(i, j int) bool { return all[i] < all[j] }) {
		t.Errorf("full scan broken: %d keys", len(all))
	}
}

// Property: any insert sequence yields a tree containing exactly those keys,
// passing invariant checks.
func TestPutProperty(t *testing.T) {
	f := func(keys []uint64) bool {
		tr := New()
		ref := map[uint64]bool{}
		for _, k := range keys {
			tr.Put(k, k)
			ref[k] = true
		}
		if tr.Len() != len(ref) {
			return false
		}
		if err := tr.check(); err != nil {
			return false
		}
		for k := range ref {
			if _, _, ok := tr.Get(k); !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: interleaved insert/delete keeps invariants.
func TestMixedProperty(t *testing.T) {
	f := func(ops []int64) bool {
		tr := New()
		ref := map[uint64]bool{}
		for _, op := range ops {
			k := uint64(op) % 64
			if op%2 == 0 {
				tr.Put(k, k)
				ref[k] = true
			} else {
				tr.Delete(k)
				delete(ref, k)
			}
		}
		if tr.Len() != len(ref) {
			return false
		}
		return tr.check() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestGetNodeCountReflectsHeight(t *testing.T) {
	tr := New()
	for k := uint64(0); k < 1_000_000; k++ {
		tr.Put(k, k)
	}
	_, nodes, ok := tr.Get(999_999)
	if !ok {
		t.Fatal("key missing")
	}
	if nodes != tr.Height() {
		t.Errorf("walk touched %d nodes, height %d", nodes, tr.Height())
	}
	if tr.Height() < 5 {
		t.Errorf("height %d for 1e6 keys — index walk too cheap to matter", tr.Height())
	}
}

// diffTrees reports the first place a and b differ node for node: keys,
// vals, fanout, and where each leaf's chain link points.
func diffTrees(a, b *Tree) error {
	if a.Len() != b.Len() || a.Height() != b.Height() {
		return fmt.Errorf("len/height %d/%d vs %d/%d", a.Len(), a.Height(), b.Len(), b.Height())
	}
	twin := map[*node]*node{}
	var walk func(x, y *node, depth int) error
	walk = func(x, y *node, depth int) error {
		twin[x] = y
		switch {
		case x.leaf() != y.leaf() || len(x.children) != len(y.children):
			return fmt.Errorf("depth %d: fanout %d vs %d", depth, len(x.children), len(y.children))
		case !slices.Equal(x.keys, y.keys):
			return fmt.Errorf("depth %d: keys %v vs %v", depth, x.keys, y.keys)
		case !slices.Equal(x.vals, y.vals):
			return fmt.Errorf("depth %d: vals %v vs %v", depth, x.vals, y.vals)
		}
		for i := range x.children {
			if err := walk(x.children[i], y.children[i], depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(a.root, b.root, 0); err != nil {
		return err
	}
	for x, y := range twin {
		if x.leaf() && twin[x.next] != y.next {
			return fmt.Errorf("leaf %v: chain link differs", x.keys)
		}
	}
	return nil
}

// buildPair builds the same n ascending keys (gapped, so later Puts land
// between them) with BuildAscending and with a Put loop.
func buildPair(n int) (built, put *Tree) {
	kv := func(i int) (k, v uint64) { return uint64(i)*3 + 1, uint64(i) * 0x9e3779b97f4a7c15 }
	put = New()
	for i := 0; i < n; i++ {
		put.Put(kv(i))
	}
	return BuildAscending(n, kv), put
}

// matchesPut checks BuildAscending(n) against the ascending-Put tree, then
// drives both through the same seeded Put/Delete mix and checks again: the
// built tree must keep behaving exactly like the Put-built one.
func matchesPut(n int, ops int, seed int64) error {
	built, put := buildPair(n)
	same := func(stage string) error {
		err := built.check()
		if err == nil {
			err = diffTrees(built, put)
		}
		if err != nil {
			return fmt.Errorf("n=%d %s: %w", n, stage, err)
		}
		return nil
	}
	if err := same("after build"); err != nil {
		return err
	}
	r := rand.New(rand.NewSource(seed))
	span := 3*n + 16
	for op := 0; op < ops; op++ {
		k := uint64(r.Intn(span))
		if r.Intn(2) == 0 {
			v := r.Uint64()
			if built.Put(k, v) != put.Put(k, v) {
				return fmt.Errorf("n=%d op %d: Put(%d) disagrees", n, op, k)
			}
		} else if built.Delete(k) != put.Delete(k) {
			return fmt.Errorf("n=%d op %d: Delete(%d) disagrees", n, op, k)
		}
	}
	return same("after mix")
}

func TestBuildAscendingMatchesPut(t *testing.T) {
	for n := 0; n <= 5000; n += 7 {
		if err := matchesPut(n, 2*n+64, int64(n)); err != nil {
			t.Fatal(err)
		}
	}
	if err := matchesPut(1_000_000, 200_000, 1); err != nil {
		t.Fatal(err)
	}
	f := func(n uint16, seed int64) bool {
		err := matchesPut(int(n)%20_000, 1000, seed)
		if err != nil {
			t.Log(err)
		}
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestBuildAscendingPanicsOnUnsorted(t *testing.T) {
	for name, keys := range map[string][]uint64{
		"duplicate":  {1, 2, 2},
		"descending": {5, 4},
		"late":       append(seq(40), 3),
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("BuildAscending accepted unsorted keys")
				}
			}()
			BuildAscending(len(keys), func(i int) (k, v uint64) { return keys[i], 0 })
		})
	}
}

// TestBuildAscendingAllocs pins BuildAscending to a few slab chunks: one
// allocation per node and array would be about 25,000 at this size.
func TestBuildAscendingAllocs(t *testing.T) {
	const n = 1 << 16
	allocs := testing.AllocsPerRun(5, func() { sinkTree = BuildAscending(n, identity) })
	if allocs > 40 {
		t.Errorf("BuildAscending(%d) made %.0f allocations, want at most 40", n, allocs)
	}
}

// TestBuiltTreeRanges: Range walks a bulk-built tree's leaf chain across
// slab chunks, before and after Puts split its slab-carved leaves.
func TestBuiltTreeRanges(t *testing.T) {
	const n = 3 * slabChunk * degree
	tr := BuildAscending(n, func(i int) (k, v uint64) { return uint64(2 * i), uint64(i) })
	want := make([]uint64, 0, n)
	for i := range n {
		want = append(want, uint64(2*i))
	}
	keys := func() []uint64 {
		var got []uint64
		tr.Range(0, ^uint64(0), func(k, v uint64) bool {
			got = append(got, k)
			return true
		})
		return got
	}
	if got := keys(); !slices.Equal(got, want) {
		t.Fatalf("Range over the built tree: %d keys, want %d in order", len(got), len(want))
	}
	// Fill every gap under the first slabChunk*degree keys: the slab-built
	// leaves there fill their windows and split, and Range must see the new
	// heap-allocated nodes in order among the slab-carved ones.
	for k := uint64(1); k < slabChunk*degree; k += 2 {
		tr.Put(k, k)
		want = append(want, k)
	}
	slices.Sort(want)
	if got := keys(); !slices.Equal(got, want) {
		t.Fatalf("Range after Puts: %d keys, want %d in order", len(got), len(want))
	}
	if err := tr.check(); err != nil {
		t.Fatal(err)
	}
}

func seq(n int) []uint64 {
	s := make([]uint64, n)
	for i := range s {
		s[i] = uint64(i)
	}
	return s
}

func identity(i int) (k, v uint64) { return uint64(i), uint64(i) }

// BenchmarkBTreeBuild prices building a 1M-key index: how=bulk is
// BuildAscending, how=put the ascending Put loop it replaces.
func BenchmarkBTreeBuild(b *testing.B) {
	const n = 1_000_000
	b.Run("how=bulk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkTree = BuildAscending(n, identity)
		}
	})
	b.Run("how=put", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr := New()
			for j := 0; j < n; j++ {
				tr.Put(identity(j))
			}
			sinkTree = tr
		}
	})
}

var sinkTree *Tree

func BenchmarkGet(b *testing.B) {
	tr := BuildAscending(1_000_000, identity)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Get(uint64(i) % 1_000_000)
	}
}

func BenchmarkPut(b *testing.B) {
	tr := New()
	for i := 0; i < b.N; i++ {
		tr.Put(uint64(i), uint64(i))
	}
}
