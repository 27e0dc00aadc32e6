package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/p4lru/p4lru/internal/obs"
	"github.com/p4lru/p4lru/internal/policy"
)

func newTestEngine(t testing.TB, cfg Config) *Engine {
	t.Helper()
	if cfg.NewCache == nil {
		cfg.NewCache = func(i int) policy.Cache {
			return policy.MustFromSpec(policy.Spec{
				Kind: policy.KindP4LRU3, MemBytes: 64 * 1024, Seed: uint64(i) + 1,
			})
		}
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

func TestShardRoutingDeterministic(t *testing.T) {
	a := newTestEngine(t, Config{Shards: 8, Seed: 42})
	b := newTestEngine(t, Config{Shards: 8, Seed: 42})
	other := newTestEngine(t, Config{Shards: 8, Seed: 43})
	differs := false
	for k := uint64(0); k < 10_000; k++ {
		sa, sb := a.ShardFor(k), b.ShardFor(k)
		if sa != sb {
			t.Fatalf("key %d: shard %d vs %d across identically-seeded engines", k, sa, sb)
		}
		if sa < 0 || sa >= 8 {
			t.Fatalf("key %d: shard %d out of range", k, sa)
		}
		if other.ShardFor(k) != sa {
			differs = true
		}
	}
	if !differs {
		t.Error("routing identical under a different seed — seed is ignored")
	}
}

func TestShardRoutingCoversAllShards(t *testing.T) {
	e := newTestEngine(t, Config{Shards: 8, Seed: 1})
	var counts [8]int
	for k := uint64(0); k < 8000; k++ {
		counts[e.ShardFor(k)]++
	}
	for i, c := range counts {
		// Uniform would be 1000; require at least a quarter of that.
		if c < 250 {
			t.Errorf("shard %d got %d/8000 keys — routing badly skewed", i, c)
		}
	}
}

func TestSubmitQueryEndToEnd(t *testing.T) {
	e := newTestEngine(t, Config{Shards: 4, Seed: 1, Block: true})
	const n = 20_000
	sub := e.NewSubmitter()
	for k := uint64(1); k <= n; k++ {
		sub.Submit(Op{Key: k, Value: k * 3})
	}
	sub.Flush()
	e.Flush()

	// The most recently inserted keys must be resident with their values.
	miss := 0
	for k := uint64(n - 100); k <= n; k++ {
		v, _, ok := e.Query(k)
		if !ok {
			miss++
			continue
		}
		if v != k*3 {
			t.Fatalf("key %d: value %d, want %d", k, v, k*3)
		}
	}
	if miss > 30 {
		t.Errorf("%d/101 recent keys missing — far beyond unit-collision losses", miss)
	}
	if e.Len() == 0 || e.Len() > e.Capacity() {
		t.Errorf("Len() = %d, Capacity() = %d", e.Len(), e.Capacity())
	}

	// All ops accounted: submitted == applied, nothing dropped.
	var submitted, applied uint64
	for _, s := range e.Stats() {
		submitted += s.Submitted
		applied += s.Applied
	}
	if submitted != n || applied != n {
		t.Errorf("accounting: submitted=%d applied=%d, want %d", submitted, applied, n)
	}
	if d := e.Dropped(); d != 0 {
		t.Errorf("%d drops in block mode", d)
	}
}

func TestApplyIsSynchronous(t *testing.T) {
	e := newTestEngine(t, Config{Shards: 4, Seed: 1})
	res := e.Apply(Op{Key: 7, Value: 99})
	if !res.Admitted {
		t.Errorf("first Apply: %+v, want admission", res)
	}
	if v, _, ok := e.Query(7); !ok || v != 99 {
		t.Fatalf("Query(7) = %d,%v immediately after Apply", v, ok)
	}
}

// slowCache delays every Update so queue backpressure is reachable and one
// shard's writer can be pinned mid-batch.
type slowCache struct {
	policy.Cache
	delay   time.Duration
	updates atomic.Int64
}

func (s *slowCache) Update(k, v uint64, tok policy.Token, now time.Duration) policy.Result {
	if s.delay > 0 {
		time.Sleep(s.delay)
	}
	s.updates.Add(1)
	return s.Cache.Update(k, v, tok, now)
}

func TestBackpressureDropAccounting(t *testing.T) {
	slow := make([]*slowCache, 2)
	e := newTestEngine(t, Config{
		Shards: 2, Seed: 1, QueueDepth: 2, BatchSize: 4, Block: false,
		NewCache: func(i int) policy.Cache {
			slow[i] = &slowCache{
				Cache: policy.MustFromSpec(policy.Spec{Kind: policy.KindP4LRU3, MemBytes: 16 * 1024, Seed: uint64(i)}),
				delay: 2 * time.Millisecond,
			}
			return slow[i]
		},
	})

	const n = 4000
	sub := e.NewSubmitter()
	for k := uint64(0); k < n; k++ {
		sub.Submit(Op{Key: k, Value: k})
	}
	sub.Flush()

	if sub.Dropped() == 0 {
		t.Fatal("no drops despite 2-deep queues over a 2ms/op cache")
	}
	e.Flush()
	var applied, dropped uint64
	for _, s := range e.Stats() {
		applied += s.Applied
		dropped += s.Dropped
	}
	if dropped != sub.Dropped() {
		t.Errorf("engine counted %d drops, submitter %d", dropped, sub.Dropped())
	}
	if applied+dropped != n {
		t.Errorf("applied %d + dropped %d != submitted %d", applied, dropped, n)
	}
	if got := slow[0].updates.Load() + slow[1].updates.Load(); uint64(got) != applied {
		t.Errorf("caches saw %d updates, engine applied %d", got, applied)
	}
}

func TestSlowShardDoesNotBlockOtherShardQueries(t *testing.T) {
	var caches []*slowCache
	var mu sync.Mutex
	e := newTestEngine(t, Config{
		Shards: 4, Seed: 1, Block: true, BatchSize: 1,
		NewCache: func(i int) policy.Cache {
			c := &slowCache{
				Cache: policy.MustFromSpec(policy.Spec{Kind: policy.KindP4LRU3, MemBytes: 16 * 1024, Seed: uint64(i)}),
				delay: 50 * time.Millisecond,
			}
			mu.Lock()
			caches = append(caches, c)
			mu.Unlock()
			return c
		},
	})

	// Pin shard s0 in a slow Update, then query keys on other shards: they
	// must complete while the victim shard is still busy.
	victim := e.ShardFor(1)
	e.Submit(Op{Key: 1, Value: 1})
	time.Sleep(5 * time.Millisecond) // let the writer enter the slow Update

	done := make(chan struct{})
	go func() {
		defer close(done)
		for k := uint64(2); k < 2000; k++ {
			if e.ShardFor(k) != victim {
				e.Query(k)
			}
		}
	}()
	select {
	case <-done:
		// Other shards made progress while the victim writer slept — the
		// global-mutex behaviour would have serialized them behind it.
	case <-time.After(45 * time.Millisecond):
		t.Fatal("cross-shard queries stalled behind one slow shard")
	}
	e.Flush()
}

func TestRaceHammer(t *testing.T) {
	// Submit/Apply/Query/Range/Len from GOMAXPROCS goroutines; run with
	// -race this is the engine's memory-safety proof.
	e := newTestEngine(t, Config{Shards: 4, Seed: 3, Block: true})
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	const perWorker = 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sub := e.NewSubmitter()
			for i := 0; i < perWorker; i++ {
				k := uint64(w*perWorker + i)
				switch i % 5 {
				case 0, 1:
					sub.Submit(Op{Key: k, Value: k})
				case 2:
					e.Query(k)
				case 3:
					e.Apply(Op{Key: k, Value: k ^ 0xff})
				case 4:
					if i%500 == 4 {
						n := 0
						e.Range(func(_, _ uint64) bool { n++; return n < 64 })
						_ = e.Len()
					} else {
						e.Query(k / 2)
					}
				}
			}
			sub.Flush()
		}(w)
	}
	wg.Wait()
	e.Flush()
	var applied, submitted uint64
	for _, s := range e.Stats() {
		applied += s.Applied
		submitted += s.Submitted
	}
	if applied != submitted {
		t.Errorf("after Flush: applied=%d submitted=%d", applied, submitted)
	}
}

func TestCloseDrainsAndRejects(t *testing.T) {
	e, err := New(Config{Shards: 2, Seed: 1, Block: true,
		NewCache: func(i int) policy.Cache {
			return policy.MustFromSpec(policy.Spec{Kind: policy.KindP4LRU3, MemBytes: 16 * 1024, Seed: uint64(i)})
		}})
	if err != nil {
		t.Fatal(err)
	}
	sub := e.NewSubmitter()
	const n = 1000
	for k := uint64(0); k < n; k++ {
		sub.Submit(Op{Key: k, Value: k})
	}
	sub.Flush()
	e.Close()
	e.Close() // idempotent

	var applied uint64
	for _, s := range e.Stats() {
		applied += s.Applied
	}
	if applied != n {
		t.Errorf("Close lost ops: applied %d/%d", applied, n)
	}
	if e.Submit(Op{Key: 1, Value: 1}) {
		t.Error("Submit accepted after Close")
	}
}

func TestNewFromSpecSplitsMemory(t *testing.T) {
	spec := policy.Spec{Kind: policy.KindP4LRU3, MemBytes: 400 * 1024, Seed: 5}
	e, err := NewFromSpec(spec, Config{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	single := policy.MustFromSpec(spec)
	// Eight shards of mem/8 ≈ one cache of mem (rounding loses <8 units).
	if got, want := e.Capacity(), single.Capacity(); got > want || got < want*9/10 {
		t.Errorf("sharded capacity %d vs unsharded %d", got, want)
	}
	if _, err := NewFromSpec(policy.Spec{Kind: "bogus"}, Config{}); err == nil {
		t.Error("bad spec accepted")
	}
}

func TestObsInstrumentation(t *testing.T) {
	reg := obs.NewRegistry()
	e := newTestEngine(t, Config{Shards: 2, Seed: 1, Block: true, Obs: reg})
	sub := e.NewSubmitter()
	for k := uint64(0); k < 500; k++ {
		sub.Submit(Op{Key: k, Value: k})
	}
	sub.Flush()
	e.Flush()
	for k := uint64(0); k < 100; k++ {
		e.Query(k)
	}
	if got := reg.CounterValue("engine_queries_total"); got != 100 {
		t.Errorf("engine_queries_total = %d, want 100", got)
	}
	perShard := reg.SumCounters("engine_ops_total")
	if perShard != 500 {
		t.Errorf("sum engine_ops_total{shard=*} = %d, want 500", perShard)
	}
	snap := reg.Snapshot()
	foundOcc, foundDepth := false, false
	for name := range snap.Gauges {
		switch {
		case name == `engine_occupancy{shard="0"}`:
			foundOcc = true
		case name == `engine_queue_depth{shard="1"}`:
			foundDepth = true
		}
	}
	if !foundOcc || !foundDepth {
		t.Errorf("per-shard gauges missing from snapshot (occ=%v depth=%v)", foundOcc, foundDepth)
	}
}

// lockFreeCache advertises concurrent-read safety (it wraps reads in its own
// mutex so the race detector stays quiet) to exercise the lock-free path.
type lockFreeCache struct {
	mu sync.Mutex
	policy.Cache
}

func (c *lockFreeCache) ConcurrentQuery() bool { return true }
func (c *lockFreeCache) Query(k uint64) (uint64, policy.Token, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.Cache.Query(k)
}
func (c *lockFreeCache) Update(k, v uint64, tok policy.Token, now time.Duration) policy.Result {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.Cache.Update(k, v, tok, now)
}

func TestConcurrentReaderSkipsLock(t *testing.T) {
	e := newTestEngine(t, Config{
		Shards: 2, Seed: 1, Block: true,
		NewCache: func(i int) policy.Cache {
			return &lockFreeCache{Cache: policy.MustFromSpec(policy.Spec{Kind: policy.KindP4LRU3, MemBytes: 16 * 1024, Seed: uint64(i)})}
		},
	})
	// A cache that already reports ConcurrentQuery must be installed as-is
	// (no Synchronized wrapping): the shard queries it directly.
	if _, ok := e.shards[0].cache.(*lockFreeCache); !ok {
		t.Fatalf("ConcurrentReader cache was wrapped: shard holds %T", e.shards[0].cache)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := uint64(w*2000 + i)
				e.Submit(Op{Key: k, Value: k})
				e.Query(k)
			}
		}(w)
	}
	wg.Wait()
	e.Flush()
}

// TestNonConcurrentCacheGetsSynchronized pins the other half of the
// lock-free query contract: a policy without ConcurrentQuery is wrapped in
// policy.Synchronized at construction (so the engine can query it with no
// lock of its own), and the wrapper preserves the cache's batch
// capabilities for the shard writer.
func TestNonConcurrentCacheGetsSynchronized(t *testing.T) {
	e := newTestEngine(t, Config{
		Shards: 1, Seed: 1, Block: true,
		NewCache: func(i int) policy.Cache {
			return policy.NewP4LRU(3, 256, uint64(i), nil) // generic core: no ConcurrentQuery
		},
	})
	s := e.shards[0]
	if _, ok := s.cache.(*policy.Synchronized); !ok {
		t.Fatalf("non-concurrent cache not wrapped: shard holds %T", s.cache)
	}
	if s.batch == nil || s.evictBatch == nil {
		t.Fatal("Synchronized wrapper does not forward batch capabilities")
	}
	for i := uint64(0); i < 1000; i++ {
		e.Submit(Op{Key: i, Value: i})
	}
	e.Flush()
	if _, _, ok := e.Query(999); !ok {
		t.Fatal("wrapped cache lost writes")
	}
}

// TestApplyBatchIsSynchronousAcrossShards checks the batched synchronous
// entry point: every op lands on its home shard immediately (the reply path
// must observe its own writes before forwarding), the per-shard op counters
// advance, and results match the per-op Apply path on a twin engine.
func TestApplyBatchIsSynchronousAcrossShards(t *testing.T) {
	batched := newTestEngine(t, Config{Shards: 8, Seed: 21})
	perOp := newTestEngine(t, Config{Shards: 8, Seed: 21})

	const n = 3 * applyChunkMax // force multiple chunks
	ops := make([]Op, n)
	for i := range ops {
		k := uint64(i + 1)
		ops[i] = Op{Key: k, Value: k * 7}
	}
	batched.ApplyBatch(ops)
	for _, op := range ops {
		perOp.Apply(op)
	}

	for k := uint64(1); k <= n; k++ {
		bv, _, bok := batched.Query(k)
		pv, _, pok := perOp.Query(k)
		if bok != pok || bv != pv {
			t.Fatalf("key %d: ApplyBatch gave %d,%v; Apply gave %d,%v", k, bv, bok, pv, pok)
		}
	}
	if batched.Len() != perOp.Len() {
		t.Fatalf("occupancy diverged: batched %d vs per-op %d", batched.Len(), perOp.Len())
	}
}

// TestApplyBatchSingleShardAndEmpty covers the degenerate shapes: an empty
// slice is a no-op and a one-shard engine takes the direct path.
func TestApplyBatchSingleShardAndEmpty(t *testing.T) {
	e := newTestEngine(t, Config{Shards: 1, Seed: 3})
	e.ApplyBatch(nil)
	e.ApplyBatch([]Op{})
	ops := []Op{{Key: 1, Value: 10}, {Key: 2, Value: 20}, {Key: 3, Value: 30}}
	e.ApplyBatch(ops)
	for _, op := range ops {
		if v, _, ok := e.Query(op.Key); !ok || v != op.Value {
			t.Fatalf("Query(%d) = %d,%v after ApplyBatch", op.Key, v, ok)
		}
	}
}

// TestApplyBatchOnEvict checks the eviction hook still fires through the
// batched synchronous path once a shard overflows.
func TestApplyBatchOnEvict(t *testing.T) {
	var evicted atomic.Int64
	e := newTestEngine(t, Config{
		Shards: 2, Seed: 5,
		OnEvict: func(k, v uint64) { evicted.Add(1) },
		NewCache: func(i int) policy.Cache {
			return policy.MustFromSpec(policy.Spec{
				Kind: policy.KindP4LRU3, MemBytes: 2 * 1024, Seed: uint64(i) + 1,
			})
		},
	})
	ops := make([]Op, 4096)
	for i := range ops {
		ops[i] = Op{Key: uint64(i + 1), Value: uint64(i)}
	}
	e.ApplyBatch(ops)
	if evicted.Load() == 0 {
		t.Fatal("no evictions surfaced through ApplyBatch on an overflowing cache")
	}
}

// BenchmarkApplyBatch measures the synchronous batched apply the network
// reply path sits on; the bench harness gates it zero-alloc.
func BenchmarkApplyBatch(b *testing.B) {
	e := newTestEngine(b, Config{Shards: 4, Seed: 1})
	const batch = 64
	ops := make([]Op, batch)
	for i := range ops {
		ops[i] = Op{Key: uint64(i + 1), Value: uint64(i)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += batch {
		e.ApplyBatch(ops)
	}
}

// TestNowRunsOnlyForTimePolicies: the write clock runs only when a shard's
// policy reads update time. The timeout policy does, and reaches the engine
// through the Synchronized wrapper. A flat P4LRU core and the wrapped ideal
// LRU do not, so writers to them stamp 0.
func TestNowRunsOnlyForTimePolicies(t *testing.T) {
	for _, kind := range []policy.Kind{policy.KindP4LRU3, policy.KindIdeal} {
		e, err := NewFromSpec(policy.Spec{Kind: kind, MemBytes: 64 << 10}, Config{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
		if got := e.Now(); got != 0 {
			t.Errorf("%s engine: Now() = %v, want 0", kind, got)
		}
		e.Close()
	}
	e, err := NewFromSpec(policy.Spec{Kind: policy.KindTimeout, MemBytes: 64 << 10}, Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	time.Sleep(time.Millisecond)
	a := e.Now()
	time.Sleep(time.Millisecond)
	if b := e.Now(); a < time.Millisecond || b <= a {
		t.Fatalf("timeout engine: Now() read %v then %v, want a clock running since New", a, b)
	}
}
