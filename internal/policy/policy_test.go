package policy

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

func allKinds() []Kind {
	return []Kind{KindP4LRU1, KindP4LRU2, KindP4LRU3, KindP4LRU4,
		KindIdeal, KindTimeout, KindElastic, KindCoco}
}

// TestInterfaceContract drives every policy through the common protocol.
func TestInterfaceContract(t *testing.T) {
	for _, kind := range allKinds() {
		c := NewForMemory(kind, 64*1024, Options{Seed: 1})
		if c.Name() == "" {
			t.Errorf("%s: empty name", kind)
		}
		if c.Len() != 0 {
			t.Errorf("%s: fresh Len = %d", kind, c.Len())
		}
		if c.Capacity() <= 0 {
			t.Errorf("%s: capacity = %d", kind, c.Capacity())
		}

		// A fresh cache admits the first key (all policies admit into an
		// empty bucket).
		res := c.Update(42, 100, 0, 0)
		if res.Hit {
			t.Errorf("%s: first update hit", kind)
		}
		v, flag, ok := c.Query(42)
		if !ok || v != 100 {
			t.Errorf("%s: Query after insert = %d,%v", kind, v, ok)
		}
		res = c.Update(42, 200, flag, time.Millisecond)
		if !res.Hit {
			t.Errorf("%s: re-update not a hit", kind)
		}
		if v, _, _ := c.Query(42); v != 200 {
			t.Errorf("%s: value after hit = %d", kind, v)
		}
		if c.Len() != 1 {
			t.Errorf("%s: Len = %d, want 1", kind, c.Len())
		}
	}
}

// TestQueryReadOnly: Query must never change subsequent behaviour.
func TestQueryReadOnly(t *testing.T) {
	for _, kind := range allKinds() {
		a := NewForMemory(kind, 8*1024, Options{Seed: 2})
		b := NewForMemory(kind, 8*1024, Options{Seed: 2})
		r := rand.New(rand.NewSource(3))
		for i := 0; i < 5000; i++ {
			k := uint64(r.Intn(2000))
			// a gets spurious queries interleaved; b does not.
			a.Query(k ^ 0xdead)
			ra := a.Update(k, uint64(i), 0, time.Duration(i))
			rb := b.Update(k, uint64(i), 0, time.Duration(i))
			if ra != rb {
				t.Fatalf("%s: step %d diverged: %+v vs %+v", kind, i, ra, rb)
			}
		}
	}
}

// TestMergeSemantics: write-cache accumulation must work for every policy.
func TestMergeSemantics(t *testing.T) {
	add := func(old, in uint64) uint64 { return old + in }
	for _, kind := range allKinds() {
		c := NewForMemory(kind, 64*1024, Options{Seed: 4, Merge: add})
		c.Update(7, 10, 0, 0)
		c.Update(7, 5, 0, 0)
		if v, _, _ := c.Query(7); v != 15 {
			t.Errorf("%s: merged value = %d, want 15", kind, v)
		}
	}
}

func TestTimeoutPolicy(t *testing.T) {
	c := NewTimeout(1, 100*time.Millisecond, 1, nil)
	c.Update(1, 10, 0, 0)
	// Fresh resident: colliding key not admitted.
	res := c.Update(2, 20, 0, 50*time.Millisecond)
	if res.Hit || res.Evicted {
		t.Fatalf("fresh collision: %+v", res)
	}
	if _, _, ok := c.Query(2); ok {
		t.Fatal("non-admitted key present")
	}
	// Expired resident: replaced.
	res = c.Update(2, 20, 0, 200*time.Millisecond)
	if !res.Evicted || res.EvictedKey != 1 || res.EvictedValue != 10 {
		t.Fatalf("expired collision: %+v", res)
	}
	if _, _, ok := c.Query(1); ok {
		t.Fatal("evicted key still present")
	}
	// Hits refresh the timestamp.
	c.Update(2, 21, 0, 250*time.Millisecond)
	res = c.Update(3, 30, 0, 320*time.Millisecond) // only 70ms since refresh
	if res.Evicted {
		t.Fatalf("refresh ignored: %+v", res)
	}
}

func TestElasticPolicy(t *testing.T) {
	c := NewElastic(1, 8, 1, nil)
	c.Update(1, 10, 0, 0)
	// 7 collisions: resident survives (votes 7 < 8×1).
	for i := 0; i < 7; i++ {
		if res := c.Update(2, 20, 0, 0); res.Evicted {
			t.Fatalf("evicted after %d negative votes", i+1)
		}
	}
	// 8th collision evicts.
	res := c.Update(2, 20, 0, 0)
	if !res.Evicted || res.EvictedKey != 1 {
		t.Fatalf("8th collision: %+v", res)
	}
	// Hits strengthen the resident: now 2 positive votes → 16 collisions needed.
	c.Update(2, 20, 0, 0)
	for i := 0; i < 15; i++ {
		if res := c.Update(3, 30, 0, 0); res.Evicted {
			t.Fatalf("evicted after %d/16 negative votes", i+1)
		}
	}
	if res := c.Update(3, 30, 0, 0); !res.Evicted {
		t.Fatal("16th collision did not evict")
	}
}

func TestCocoPolicyStatistics(t *testing.T) {
	// With a single bucket and alternating keys, coco replacement is
	// probabilistic 1/counter; over many trials the newcomer takes over a
	// plausible fraction of the time.
	replaced := 0
	const trials = 2000
	for s := 0; s < trials; s++ {
		c := NewCoco(1, uint64(s), nil)
		c.Update(1, 10, 0, 0)
		if res := c.Update(2, 20, 0, 0); res.Evicted {
			replaced++
		}
	}
	// Second access has counter=2 ⇒ P(replace) = 1/2.
	frac := float64(replaced) / trials
	if frac < 0.42 || frac > 0.58 {
		t.Errorf("coco replacement fraction = %.3f, want ≈0.5", frac)
	}
}

func TestCocoFrequencyBias(t *testing.T) {
	// A heavy flow should end up owning its bucket far more often than a
	// light one.
	heavyWins := 0
	const trials = 500
	for s := 0; s < trials; s++ {
		c := NewCoco(1, uint64(s), nil)
		r := rand.New(rand.NewSource(int64(s)))
		for i := 0; i < 200; i++ {
			if r.Intn(10) == 0 { // light flow: 10%
				c.Update(2, 2, 0, 0)
			} else { // heavy flow: 90%
				c.Update(1, 1, 0, 0)
			}
		}
		if _, _, ok := c.Query(1); ok {
			heavyWins++
		}
	}
	if frac := float64(heavyWins) / trials; frac < 0.75 {
		t.Errorf("heavy flow owns bucket %.2f of trials, want ≥0.75", frac)
	}
}

// TestLRUOrderingOnSkewedStream reproduces the evaluation's headline
// ordering at equal memory: ideal ≥ p4lru3 ≥ p4lru2 ≥ p4lru1 hit rate, and
// p4lru3 above the LFU-ish baselines, on a recency-friendly stream.
func TestLRUOrderingOnSkewedStream(t *testing.T) {
	const mem = 32 * 1024
	// Working set slides: key popularity is Zipf but the hot set drifts,
	// rewarding recency over frequency.
	run := func(kind Kind) float64 {
		c := NewForMemory(kind, mem, Options{Seed: 5, TimeoutThreshold: 2 * time.Millisecond})
		r := rand.New(rand.NewSource(6))
		zipf := rand.NewZipf(r, 1.2, 1, 1<<14)
		hits, total := 0, 0
		for i := 0; i < 300000; i++ {
			drift := uint64(i / 3000 * 97)
			k := zipf.Uint64() + drift
			total++
			if res := c.Update(k, 1, 0, time.Duration(i)*time.Microsecond); res.Hit {
				hits++
			}
		}
		return float64(hits) / float64(total)
	}
	rates := map[Kind]float64{}
	for _, k := range []Kind{KindIdeal, KindP4LRU3, KindP4LRU2, KindP4LRU1, KindElastic, KindCoco} {
		rates[k] = run(k)
	}
	if !(rates[KindIdeal] >= rates[KindP4LRU3]) {
		t.Errorf("ideal %.4f < p4lru3 %.4f", rates[KindIdeal], rates[KindP4LRU3])
	}
	if !(rates[KindP4LRU3] > rates[KindP4LRU1]) {
		t.Errorf("p4lru3 %.4f not above p4lru1 %.4f", rates[KindP4LRU3], rates[KindP4LRU1])
	}
	if !(rates[KindP4LRU2] > rates[KindP4LRU1]) {
		t.Errorf("p4lru2 %.4f not above p4lru1 %.4f", rates[KindP4LRU2], rates[KindP4LRU1])
	}
	if !(rates[KindP4LRU3] > rates[KindElastic]) {
		t.Errorf("p4lru3 %.4f not above elastic %.4f", rates[KindP4LRU3], rates[KindElastic])
	}
	if !(rates[KindP4LRU3] > rates[KindCoco]) {
		t.Errorf("p4lru3 %.4f not above coco %.4f", rates[KindP4LRU3], rates[KindCoco])
	}
}

func TestSeriesPolicy(t *testing.T) {
	c := NewSeries(4, 16, 1, nil)
	if c.Name() != "series4" {
		t.Errorf("name = %s", c.Name())
	}
	// Protocol: query miss → update with flag 0 inserts.
	_, flag, ok := c.Query(9)
	if ok || flag != 0 {
		t.Fatalf("fresh query: flag=%d ok=%v", flag, ok)
	}
	c.Update(9, 90, flag, 0)
	v, flag, ok := c.Query(9)
	if !ok || flag != 1 || v != 90 {
		t.Fatalf("after insert: v=%d flag=%d ok=%v", v, flag, ok)
	}
	c.Update(9, 91, flag, 0)
	if v, _, _ := c.Query(9); v != 91 {
		t.Errorf("after promote: v=%d", v)
	}
	if c.Capacity() != 4*16*3 {
		t.Errorf("capacity = %d", c.Capacity())
	}
}

// TestSeriesTreatsUnknownLevelAsMiss hands both series policies tokens
// that name no level, as a forged cached_flag on the wire would. Each must
// be applied as NoToken — insert at level 1 and cascade — through Update and
// the batch paths alike, instead of reaching the lru series' range panic.
func TestSeriesTreatsUnknownLevelAsMiss(t *testing.T) {
	const levels = 4
	for _, newCache := range []func() Cache{
		func() Cache { return NewSeries(levels, 16, 1, nil) },
		func() Cache { return NewFlatSeries(3, levels, 16, 1, nil) },
	} {
		for _, tok := range []Token{levels + 1, 255} {
			c, ref := newCache(), newCache()
			name := fmt.Sprintf("%T token %d", c, tok)
			for k := uint64(1); k <= 400; k++ {
				if got, want := c.Update(k, k, tok, 0), ref.Update(k, k, NoToken, 0); got != want {
					t.Fatalf("%s: Update(%d) = %+v, want %+v", name, k, got, want)
				}
			}
			if v, lvl, ok := c.Query(400); !ok || v != 400 || lvl != 1 {
				t.Fatalf("%s: Query(400) = (%d, %d, %v), want (400, 1, true)", name, v, lvl, ok)
			}
			fs, ok := c.(*FlatSeries)
			if !ok {
				continue // the generic series has no batch paths
			}
			ops := []Op{{Key: 1000, Value: 1, Token: tok}, {Key: 1001, Value: 2, Token: tok}}
			fs.UpdateBatch(ops[:1])
			fs.UpdateBatchEvict(ops[1:], func(uint64, uint64) {})
			for _, op := range ops {
				if v, lvl, ok := c.Query(op.Key); !ok || v != op.Value || lvl != 1 {
					t.Fatalf("%s: batched Query(%d) = (%d, %d, %v), want (%d, 1, true)",
						name, op.Key, v, lvl, ok, op.Value)
				}
			}
		}
	}
}

func TestNewForMemoryValidation(t *testing.T) {
	for name, fn := range map[string]func(){
		"tiny":    func() { NewForMemory(KindP4LRU3, 4, Options{}) },
		"unknown": func() { NewForMemory(Kind("nope"), 1024, Options{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestMemorySizing(t *testing.T) {
	// Equal memory ⇒ p4lru3 holds slightly fewer entries than the plain
	// hash table (state overhead), timeout fewer still (timestamps).
	mem := 12000
	p1 := NewForMemory(KindP4LRU1, mem, Options{Seed: 1})
	p3 := NewForMemory(KindP4LRU3, mem, Options{Seed: 1})
	to := NewForMemory(KindTimeout, mem, Options{Seed: 1})
	if p1.Capacity() != 1500 {
		t.Errorf("p4lru1 capacity = %d, want 1500", p1.Capacity())
	}
	if got := p3.Capacity(); got != 3*(mem/25) {
		t.Errorf("p4lru3 capacity = %d, want %d", got, 3*(mem/25))
	}
	if to.Capacity() != 1000 {
		t.Errorf("timeout capacity = %d, want 1000", to.Capacity())
	}
}

func TestConstructorPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"timeout": func() { NewTimeout(0, time.Second, 1, nil) },
		"elastic": func() { NewElastic(0, 8, 1, nil) },
		"coco":    func() { NewCoco(0, 1, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func BenchmarkP4LRU3Policy(b *testing.B) {
	c := NewForMemory(KindP4LRU3, 1<<20, Options{Seed: 1})
	r := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(r, 1.1, 1, 1<<20)
	keys := make([]uint64, 1<<16)
	for i := range keys {
		keys[i] = zipf.Uint64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Update(keys[i&(1<<16-1)], 1, 0, time.Duration(i))
	}
}

func TestSeriesUnitCapVariants(t *testing.T) {
	for _, cap := range []int{1, 2, 3, 4, 5} {
		c := NewSeriesUnitCap(cap, 2, 8, 1, nil)
		if got := c.Capacity(); got != 2*8*cap {
			t.Errorf("cap %d: capacity %d, want %d", cap, got, 2*8*cap)
		}
		// Basic protocol works for every unit size.
		_, flag, ok := c.Query(5)
		if ok {
			t.Fatalf("cap %d: fresh hit", cap)
		}
		c.Update(5, 50, flag, 0)
		if v, _, ok := c.Query(5); !ok || v != 50 {
			t.Errorf("cap %d: Query = %d,%v", cap, v, ok)
		}
	}
}

func TestCacheRangeImplementations(t *testing.T) {
	for _, kind := range allKinds() {
		c := NewForMemory(kind, 16*1024, Options{Seed: 9})
		for k := uint64(1); k <= 40; k++ {
			c.Update(k, k*3, 0, 0)
		}
		count := 0
		c.Range(func(k, v uint64) bool {
			got, _, ok := c.Query(k)
			if !ok || got != v {
				t.Fatalf("%s: Range pair (%d,%d) not confirmed (%d,%v)", kind, k, v, got, ok)
			}
			count++
			return true
		})
		if count != c.Len() {
			t.Errorf("%s: Range visited %d, Len %d", kind, count, c.Len())
		}
		// Early stop.
		visited := 0
		c.Range(func(k, v uint64) bool {
			visited++
			return false
		})
		if c.Len() > 0 && visited != 1 {
			t.Errorf("%s: early stop visited %d", kind, visited)
		}
	}
}

func TestSeriesRangeViaPolicy(t *testing.T) {
	c := NewSeries(3, 4, 1, nil)
	for k := uint64(1); k <= 30; k++ {
		_, flag, _ := c.Query(k)
		c.Update(k, k, flag, 0)
	}
	count := 0
	c.Range(func(k, v uint64) bool {
		count++
		return true
	})
	if count != c.Len() {
		t.Errorf("series Range visited %d, Len %d", count, c.Len())
	}
}
