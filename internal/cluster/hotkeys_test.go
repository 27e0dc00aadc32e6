package cluster

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

// warmUpTouches draws the keys a cluster warm-up touches: n Zipf draws over
// a million keys, as many as the benchmark's 200,000 operations read.
func warmUpTouches(seed int64, n int) []uint64 {
	z := rand.NewZipf(rand.New(rand.NewSource(seed)), 1.01, 1, 999_999)
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = z.Uint64() + 1
	}
	return keys
}

// exactTop returns the k most touched keys, ties by key.
func exactTop(keys []uint64, k int) []uint64 {
	counts := map[uint64]int{}
	for _, key := range keys {
		counts[key]++
	}
	all := make([]uint64, 0, len(counts))
	for key := range counts {
		all = append(all, key)
	}
	slices.SortFunc(all, func(a, b uint64) int {
		return cmp.Or(counts[b]-counts[a], cmp.Compare(a, b))
	})
	return all[:k]
}

// published feeds keys to a fresh tracker for k and returns its set, sorted.
func published(k int, keys []uint64) []uint64 {
	h := newHotKeys(k, 0xc1a5)
	for _, key := range keys {
		h.Touch(key)
	}
	out := h.Keys()
	slices.Sort(out)
	return out
}

// TestHotKeysFindTheTopKeys: on warm-up streams the tracker publishes the
// exact top 4 at K = 4, and at K = 128 at least 85% of the exact top 128
// (sampling 1 touch in 8 blurs the tail of the set), and one touch sequence
// gives one set.
func TestHotKeysFindTheTopKeys(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		keys := warmUpTouches(seed, 190_000)
		top4 := exactTop(keys, 4)
		slices.Sort(top4)
		if got := published(4, keys); !slices.Equal(got, top4) {
			t.Errorf("seed %d: K=4 published %v, want the exact top 4 %v", seed, got, top4)
		}
		got := published(128, keys)
		if again := published(128, keys); !slices.Equal(got, again) {
			t.Errorf("seed %d: one touch sequence published two sets", seed)
		}
		held := 0
		for _, key := range exactTop(keys, 128) {
			if _, ok := slices.BinarySearch(got, key); ok {
				held++
			}
		}
		if len(got) != 128 || held < 109 {
			t.Errorf("seed %d: K=128 published %d keys holding %d of the exact top 128, want 128 and at least 109", seed, len(got), held)
		}
	}
}

// TestHotKeysDecayInSampledTouches: once the stream moves to new keys, the
// old top keys cool off, counted in sampled touches: after 2^22 touches of
// keys 1–4, 2^20 of keys 101–104 publish the new keys, which without decay
// would still count a quarter of the old ones'.
func TestHotKeysDecayInSampledTouches(t *testing.T) {
	h := newHotKeys(4, 1)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1<<22; i++ {
		h.Touch(uint64(rng.Intn(4) + 1))
	}
	for i := 0; i < 1<<20; i++ {
		h.Touch(uint64(rng.Intn(4) + 101))
	}
	got := h.Keys()
	slices.Sort(got)
	if want := []uint64{101, 102, 103, 104}; !slices.Equal(got, want) {
		t.Fatalf("published %v after the stream moved, want %v", got, want)
	}
}

// TestHotTouchDoesNotAllocate: touching, publishing included, and Hot
// allocate nothing.
func TestHotTouchDoesNotAllocate(t *testing.T) {
	h := newHotKeys(128, 1)
	keys := warmUpTouches(1, 1<<16)
	i := 0
	if n := testing.AllocsPerRun(1<<17, func() {
		h.Touch(keys[i%len(keys)])
		h.Hot(keys[i%len(keys)])
		i++
	}); n != 0 {
		t.Fatalf("%v allocs per touch, want 0", n)
	}
}
