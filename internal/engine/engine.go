// Package engine is the sharded, concurrency-safe serving layer that turns
// any policy.Cache into a multi-core engine.
//
// The paper's parallel connection (§1.2) makes line-rate caching possible by
// giving every flow-key hash bucket an independent P4LRU unit: units never
// interact, so the pipeline can process one packet per clock regardless of
// how many units exist. This package is the software transplant of that
// observation: the key space is split across N shards by the same seeded
// flow-key hash family (internal/hashing), each shard owns a private
// policy.Cache, and cross-shard coordination is never needed because no key
// can live in two shards.
//
// Concurrency model, per shard:
//
//   - One single-writer goroutine applies all replacement-state mutations,
//     fed by a bounded queue of fixed-size op batches (batching amortizes
//     channel overhead; the queue bound gives explicit backpressure). With
//     Block=false a full queue drops the batch and counts it — the
//     data-plane behaviour, where a congested pipe sheds load rather than
//     stall the line. With Block=true Submit blocks — the server behaviour.
//   - Query takes no engine lock on any path. The default flat seqlock
//     caches (policy.ConcurrentReader) are wait-free against the shard
//     writer — readers of different shards never interact, and readers of
//     one shard never serialize against its writer at all. Any other policy
//     is wrapped in policy.Synchronized at construction, whose internal
//     read-write lock carries the same contract.
//   - Apply performs one synchronous mutation under the shard mutator lock,
//     bypassing the queue — for reply paths that must observe their own
//     write (the netproto switch) and for tests.
//
// Resilience (the software analogue of a pipeline that never stalls, §2):
// shard writers are supervised — a panic inside a batch apply is recovered,
// counted, and the writer keeps consuming its queue, so one poisoned op
// cannot deadlock Submit or take the shard dark. A watchdog flags shards
// whose queue holds work the writer hasn't advanced within a stall window.
// An optional resilience.Shedder gates admission by queue fullness and
// latency pressure, shedding lowest-priority work first. Drain stops intake
// and flushes the writers; Snapshot/RestoreSnapshot round-trip the cache
// contents so a restart does not mean a cold cache.
//
// The engine deliberately does not implement policy.Cache: Update's
// synchronous Result has no meaning once mutations are queued. Callers that
// need the Result use Apply.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/p4lru/p4lru/internal/hashing"
	"github.com/p4lru/p4lru/internal/obs"
	"github.com/p4lru/p4lru/internal/obs/span"
	"github.com/p4lru/p4lru/internal/policy"
	"github.com/p4lru/p4lru/internal/resilience"
)

// routeSalt decorrelates the shard-routing hash from the per-shard cache
// index hashes, which are seeded from the same base seed.
const routeSalt = 0x5ead1e55c0ffee

// batchSpanSample traces 1 in this many batches (power of two). A batch
// span costs a few hundred ns (three timestamps plus histogram updates) on
// the shard writer, which is the pipeline bottleneck under sustained write
// load; sampling keeps the traced batch path within the 5% throughput
// budget the bench-smoke gate enforces while queue-wait distributions stay
// statistically representative.
const batchSpanSample = 8

// Op is one queued mutation: the (key, value, token, time) quadruple of
// policy.Cache.Update. It is policy.Op itself, so a queued batch can be
// handed to a policy.BatchUpdater cache without conversion or copying.
type Op = policy.Op

// Config parameterizes New.
type Config struct {
	// Shards is the number of independent cache shards (0 = GOMAXPROCS).
	Shards int
	// QueueDepth bounds each shard's submission queue, measured in batches
	// (0 = 256).
	QueueDepth int
	// BatchSize is the number of ops a Submitter accumulates before handing
	// the batch to the shard (0 = 64). The shard writer also applies a whole
	// batch per lock acquisition, so BatchSize bounds writer lock hold time.
	BatchSize int
	// Seed seeds the shard-routing hash (and, by convention, the per-shard
	// caches built by NewCache).
	Seed uint64
	// NewCache builds the cache owned by shard i. Required. The engine owns
	// the returned caches; nothing else may touch them.
	NewCache func(shard int) policy.Cache
	// Block selects backpressure semantics when a shard queue is full:
	// true blocks the submitter, false drops the batch and counts it.
	Block bool
	// OnEvict, when non-nil, is invoked for every eviction a queued batch
	// or Apply performs — the hook the write-behind drain hangs off. It
	// runs on the shard writer goroutine (or the Apply caller) under the
	// shard write lock, so it must be fast and non-blocking
	// (backing.WriteBehind.Offer qualifies: bounded queue, sheds on
	// overflow). Setting it routes batches through the cache's
	// policy.EvictBatchUpdater when available, else a per-op Update loop —
	// evictions cannot be observed through the eviction-blind batch walk.
	OnEvict func(key, val uint64)
	// Obs, when non-nil, receives per-shard counters and gauges
	// (engine_ops_total, engine_drops_total, engine_occupancy,
	// engine_queue_depth), global query counters and the batch-size
	// histogram. nil costs nothing on the hot path.
	Obs *obs.Registry
	// Shedder, when non-nil, gates admission on the submit path: each batch
	// asks Admit with its priority and the destination shard's queue
	// fraction, and a shed batch is dropped and counted (per-priority in the
	// shedder, per-shard in the engine drop counters). nil admits everything.
	Shedder *resilience.Shedder
	// StallWindow tunes the shard watchdog: a shard whose queue holds work
	// but whose writer has not applied anything for this long is flagged
	// stalled (obs gauge engine_shard_stalled, Stats.Stalled, Healthy).
	// 0 = 2s; negative disables the watchdog.
	StallWindow time.Duration
	// Span, when non-nil and enabled, traces the serving stages: queued
	// batches carry their enqueue timestamp so each writer dequeue emits a
	// KindBatch record decomposing queue wait vs batch apply, shed
	// submissions emit KindShed records, and QuerySpanned attributes read
	// latency. When the tracer is disabled (or nil) the only hot-path cost
	// is one nil check plus one atomic load per batch.
	Span *span.Tracer
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 64
	}
	if c.StallWindow == 0 {
		c.StallWindow = 2 * time.Second
	}
	return c
}

// queued is one batch in flight to a shard writer, stamped with its enqueue
// time (tracer clock; 0 when tracing is off) so the writer can attribute
// queue wait separately from apply time.
type queued struct {
	ops []Op
	enq int64
}

// shard is one independent serving unit: a private cache, the mutator lock
// that serializes its writers, and the bounded batch queue its writer
// goroutine consumes. The query path takes no shard lock: every cache here
// reports policy.ConcurrentQuery — the flat cores via their per-unit
// seqlocks, everything else because New wraps it in policy.Synchronized,
// which read-locks internally.
type shard struct {
	mu         sync.Mutex // serializes mutators (writer goroutine, Apply); queries take no lock
	cache      policy.Cache
	batch      policy.BatchUpdater      // non-nil when cache applies whole batches
	evictBatch policy.EvictBatchUpdater // non-nil when batches can report evictions

	queue     chan queued
	submitted atomic.Uint64 // ops handed to the queue
	applied   atomic.Uint64 // ops the writer has applied
	drops     atomic.Uint64 // ops shed on a full queue, by the shedder, or lost to a panic
	failed    atomic.Uint64 // ops lost to recovered writer panics (subset of drops)
	panics    atomic.Uint64 // writer panics recovered
	stalled   atomic.Bool   // watchdog verdict: queued work, writer not advancing

	ops        *obs.Counter
	dropped    *obs.Counter
	panicCount *obs.Counter
	stallGauge *obs.Gauge
}

// Engine routes every key to its home shard by flow-key hash.
type Engine struct {
	cfg    Config
	route  hashing.Hash
	shards []*shard
	pool   sync.Pool // []Op batch buffers, cap = BatchSize
	// spanTick samples batch spans 1-in-batchSpanSample at enqueue, so the
	// shard writers — the throughput bottleneck under sustained write load —
	// pay the span cost on a fraction of batches instead of all of them.
	spanTick atomic.Uint64

	// start is the write clock's origin; clocked says whether any shard's
	// policy reads update time (policy.TimeReader). Both are fixed by New.
	start   time.Time
	clocked bool

	lifeMu   sync.RWMutex
	closed   bool
	draining atomic.Bool
	wg       sync.WaitGroup

	watchdogStop chan struct{}
	watchdogDone chan struct{}

	queries   *obs.Counter
	hits      *obs.Counter
	batchSize *obs.Histogram
}

// New builds and starts an engine: cfg.Shards caches, one writer goroutine
// each. The engine serves until Close.
func New(cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	if cfg.NewCache == nil {
		return nil, fmt.Errorf("engine: Config.NewCache is required")
	}
	e := &Engine{
		cfg:    cfg,
		route:  hashing.New(cfg.Seed ^ routeSalt),
		shards: make([]*shard, cfg.Shards),
		start:  time.Now(),
	}
	e.pool.New = func() any { return make([]Op, 0, cfg.BatchSize) }
	if r := cfg.Obs; r != nil {
		e.queries = r.Counter("engine_queries_total")
		e.hits = r.Counter("engine_hits_total")
		e.batchSize = r.Histogram("engine_batch_ops", batchBuckets(cfg.BatchSize))
		r.GaugeFunc("engine_shards", func() float64 { return float64(cfg.Shards) })
	}
	for i := range e.shards {
		c := cfg.NewCache(i)
		if c == nil {
			return nil, fmt.Errorf("engine: NewCache(%d) returned nil", i)
		}
		// Every shard cache must be queryable with no engine-level lock:
		// caches that already report ConcurrentQuery (the flat seqlock
		// cores) pass through Synchronize unchanged, and anything else is
		// wrapped so its own read-write lock carries the contract. Batch
		// capabilities are detected on the wrapped cache — Synchronized
		// forwards them — so the writer's batch path survives wrapping.
		c = policy.Synchronize(c)
		if tr, ok := c.(policy.TimeReader); ok && tr.ReadsTime() {
			e.clocked = true
		}
		bu, _ := c.(policy.BatchUpdater)
		ebu, _ := c.(policy.EvictBatchUpdater)
		s := &shard{
			cache:      c,
			batch:      bu,
			evictBatch: ebu,
			queue:      make(chan queued, cfg.QueueDepth),
		}
		if r := cfg.Obs; r != nil {
			label := fmt.Sprintf(`{shard="%d"}`, i)
			s.ops = r.Counter("engine_ops_total" + label)
			s.dropped = r.Counter("engine_drops_total" + label)
			s.panicCount = r.Counter("engine_writer_panics_total" + label)
			s.stallGauge = r.Gauge("engine_shard_stalled" + label)
			sh := s
			r.GaugeFunc("engine_occupancy"+label, func() float64 {
				// Len is lock-free for every shard cache (seqlock-consistent
				// on the flat cores, internally read-locked when wrapped), so
				// a metrics scrape never touches the mutator lock.
				return float64(sh.cache.Len())
			})
			r.GaugeFunc("engine_queue_depth"+label, func() float64 {
				return float64(len(sh.queue))
			})
		}
		e.shards[i] = s
		e.wg.Add(1)
		go e.writer(i, s)
	}
	if cfg.StallWindow > 0 {
		e.watchdogStop = make(chan struct{})
		e.watchdogDone = make(chan struct{})
		go e.watchdog(cfg.StallWindow)
	}
	return e, nil
}

// NewFromSpec builds an engine whose shards split a single policy Spec's
// memory budget evenly: an N-shard engine over "p4lru3:mem=1MiB" holds the
// same total memory as the unsharded cache. Shard i's cache is seeded
// spec.Seed+i so shard-internal hash functions stay independent.
func NewFromSpec(spec policy.Spec, cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	if spec.MemBytes == 0 {
		spec.MemBytes = policy.DefaultMemBytes
	}
	perShard := spec.MemBytes / cfg.Shards
	if _, err := policy.NewFromSpec(spec); err != nil {
		return nil, err // validate the spec once, before fan-out
	}
	cfg.Seed = spec.Seed
	cfg.NewCache = func(i int) policy.Cache {
		s := spec
		s.MemBytes = perShard
		s.Seed = spec.Seed + uint64(i)
		return policy.MustFromSpec(s)
	}
	return New(cfg)
}

// batchBuckets is a ×2 ladder up to the configured batch size.
func batchBuckets(max int) []float64 {
	var b []float64
	for v := 1; v < max; v *= 2 {
		b = append(b, float64(v))
	}
	return append(b, float64(max))
}

// writer is a shard's single mutation goroutine: it applies whole batches
// under one write-lock acquisition and recycles their buffers. It is
// supervised: a panic inside one batch apply is recovered and accounted, and
// the loop keeps consuming — equivalent to restarting the writer with its
// queue intact, so Submit never deadlocks behind a dead consumer.
func (e *Engine) writer(i int, s *shard) {
	defer e.wg.Done()
	for q := range s.queue {
		batch := q.ops
		n := uint64(len(batch))
		// One KindBatch span per sampled dequeue (q.enq is stamped on 1 in
		// batchSpanSample batches): queue wait is dequeue-time minus the
		// stamped enqueue time, apply is the batch's time under the shard
		// write lock. Per-sampled-batch (not per-op) records keep the traced
		// batch path to a fraction of a ns per op.
		sp := span.Span{}
		if q.enq != 0 && e.cfg.Span.Enabled() {
			sp = e.cfg.Span.StartAt(q.enq, i, batch[0].Key)
			sp.SetBatch(len(batch))
			sp.Mark(span.StageQueue)
		}
		if e.safeApply(s, batch) {
			s.applied.Add(n)
			s.ops.Add(n)
			sp.Mark(span.StageApply)
			sp.Finish(span.KindBatch)
		} else {
			// The batch's effect on the cache is undefined (it panicked
			// part-way); account every op as shed so produced stays equal
			// to applied + dropped.
			s.failed.Add(n)
			s.drops.Add(n)
			s.dropped.Add(n)
			sp.Mark(span.StageApply)
			sp.SetFlags(span.FlagError)
			sp.Finish(span.KindBatch)
		}
		e.batchSize.Observe(float64(n))
		e.pool.Put(batch[:0])
	}
}

// safeApply applies one batch, converting a panic in the policy code into a
// counted, recovered fault. Returns false when the batch panicked.
func (e *Engine) safeApply(s *shard, batch []Op) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			s.panics.Add(1)
			s.panicCount.Inc()
			ok = false
		}
	}()
	e.applyBatch(s, batch)
	return true
}

// applyBatch applies one op batch under the shard mutator lock. A cache that
// implements policy.BatchUpdater (the flat P4LRU cores) consumes the queued
// batch directly — ops are policy.Op, so no conversion happens and the
// whole apply loop allocates nothing; anything else gets the per-op Update
// loop. With an eviction hook configured the batch goes through
// policy.EvictBatchUpdater (or the per-op loop), since the eviction-blind
// batch walk cannot feed the hook.
func (e *Engine) applyBatch(s *shard, batch []Op) {
	s.mu.Lock()
	// Deferred so a panicking policy cannot strand the shard mutator lock —
	// the supervisor recovers the panic and the shard keeps serving.
	defer s.mu.Unlock()
	switch {
	case e.cfg.OnEvict != nil:
		if s.evictBatch != nil {
			s.evictBatch.UpdateBatchEvict(batch, e.cfg.OnEvict)
		} else {
			for _, op := range batch {
				res := s.cache.Update(op.Key, op.Value, op.Token, op.Now)
				if res.Evicted {
					e.cfg.OnEvict(res.EvictedKey, res.EvictedValue)
				}
			}
		}
	case s.batch != nil:
		s.batch.UpdateBatch(batch)
	default:
		for _, op := range batch {
			s.cache.Update(op.Key, op.Value, op.Token, op.Now)
		}
	}
}

// ShardFor returns the home shard of k — deterministic for a given seed and
// shard count, like the paper's per-packet unit index h(key).
func (e *Engine) ShardFor(k uint64) int { return e.route.Index(k, len(e.shards)) }

// Shards returns the shard count.
func (e *Engine) Shards() int { return len(e.shards) }

// Query looks k up in its home shard without modifying replacement state.
// No engine lock is taken on any path: flat seqlock caches are wait-free
// against the shard writer, and any other policy was wrapped in
// policy.Synchronized at construction, whose internal read lock lets
// queries of one shard proceed in parallel.
func (e *Engine) Query(k uint64) (uint64, policy.Token, bool) {
	return e.queryAt(e.ShardFor(k), k)
}

// QuerySpanned is Query for callers carrying an open trace span: the lookup
// interval is attributed to StageQuery and the span learns its home shard.
// The span is NOT finished — the caller owns its lifecycle (a Tiered miss
// continues into the fetch stages). A nil or inactive span degrades to Query.
func (e *Engine) QuerySpanned(k uint64, sp *span.Span) (uint64, policy.Token, bool) {
	i := e.ShardFor(k)
	sp.SetShard(i)
	v, tok, ok := e.queryAt(i, k)
	sp.Mark(span.StageQuery)
	return v, tok, ok
}

// queryAt is the shared lookup core for Query and QuerySpanned.
func (e *Engine) queryAt(i int, k uint64) (uint64, policy.Token, bool) {
	v, tok, ok := e.shards[i].cache.Query(k)
	e.queries.Inc()
	if ok {
		e.hits.Inc()
	}
	return v, tok, ok
}

// Now is the engine's write clock, the time to stamp on an Op: the time
// since New when some shard's policy reads update time (policy.TimeReader;
// today only the timeout policy), and 0 otherwise. Every writer to one
// engine shares it, and writers to a P4LRU engine read no clock at all.
func (e *Engine) Now() time.Duration {
	if !e.clocked {
		return 0
	}
	return time.Since(e.start)
}

// Apply performs one synchronous Update on k's home shard, bypassing the
// queue, and returns the policy's Result. Ordering against queued batches
// in flight on the same shard is unspecified.
func (e *Engine) Apply(op Op) policy.Result {
	s := e.shards[e.ShardFor(op.Key)]
	s.mu.Lock()
	// Deferred, as in applyBatch, so a panicking policy or OnEvict hook
	// cannot strand the shard lock when the caller recovers.
	defer s.mu.Unlock()
	res := s.cache.Update(op.Key, op.Value, op.Token, op.Now)
	if res.Evicted && e.cfg.OnEvict != nil {
		e.cfg.OnEvict(res.EvictedKey, res.EvictedValue)
	}
	s.ops.Inc()
	return res
}

// applyChunkMax bounds ApplyBatch's stack scratch: op batches are processed
// in chunks of this many, with shard routing precomputed per chunk.
const applyChunkMax = 256

// ApplyBatch synchronously applies a pre-built op slice, bypassing the
// queue — the batched network path's entry point: a whole recvmmsg batch of
// reply packets decodes straight into ops and must observe its own writes
// before the replies are forwarded (the paper's §3.2 query/update split puts
// the mutation on the reply path). Ops are grouped by home shard so each
// shard's write lock is taken once per shard visit, not once per op; the
// grouping scratch lives on the stack and gather buffers come from the batch
// pool, so the call allocates nothing. Like Apply, ordering against queued
// batches in flight on the same shards is unspecified, and per-op Results
// are not reported — callers that need a Result use Apply.
func (e *Engine) ApplyBatch(ops []Op) {
	if len(ops) == 0 {
		return
	}
	if len(e.shards) == 1 {
		s := e.shards[0]
		e.applyBatch(s, ops)
		s.ops.Add(uint64(len(ops)))
		return
	}
	if len(e.shards) >= int(^uint16(0)) {
		// Keeps the uint16 home scratch (and its done marker) honest;
		// unreachable at any realistic shard count.
		for _, op := range ops {
			e.Apply(op)
		}
		return
	}
	const done = ^uint16(0)
	var home [applyChunkMax]uint16
	for base := 0; base < len(ops); base += applyChunkMax {
		part := ops[base:min(base+applyChunkMax, len(ops))]
		for i, op := range part {
			home[i] = uint16(e.ShardFor(op.Key))
		}
		for i := 0; i < len(part); i++ {
			if home[i] == done {
				continue
			}
			sh := home[i]
			buf := e.pool.Get().([]Op)
			for j := i; j < len(part); j++ {
				if home[j] == sh {
					buf = append(buf, part[j])
					home[j] = done
				}
			}
			s := e.shards[sh]
			e.applyBatch(s, buf)
			s.ops.Add(uint64(len(buf)))
			e.pool.Put(buf[:0])
		}
	}
}

// Submit enqueues a single op on its home shard (a batch of one — hot
// producers should use a Submitter instead). It reports whether the op was
// accepted; false means the engine is closed or draining, the shard queue
// was full in drop mode, or the shedder declined it at normal priority.
func (e *Engine) Submit(op Op) bool {
	return e.SubmitPriority(op, resilience.PriNormal)
}

// SubmitPriority is Submit with an explicit shedding priority: under
// pressure the configured shedder drops PriLow work first and PriHigh last.
// Without a shedder the priority is ignored.
func (e *Engine) SubmitPriority(op Op, pri resilience.Priority) bool {
	buf := e.pool.Get().([]Op)
	return e.submitBatch(e.ShardFor(op.Key), append(buf, op), pri)
}

// submitBatch hands one batch to shard i, honouring Block/drop semantics and
// the shedder's admission verdict. The batch buffer is owned by the queue
// (and recycled by the writer) on success, by the pool again on failure.
func (e *Engine) submitBatch(i int, batch []Op, pri resilience.Priority) bool {
	if len(batch) == 0 {
		return true
	}
	s := e.shards[i]
	n := uint64(len(batch))

	e.lifeMu.RLock()
	if e.closed || e.draining.Load() {
		e.lifeMu.RUnlock()
		s.drops.Add(n)
		s.dropped.Add(n)
		e.pool.Put(batch[:0])
		return false
	}
	if sh := e.cfg.Shedder; sh != nil {
		frac := float64(len(s.queue)) / float64(cap(s.queue))
		if !sh.Admit(pri, frac) {
			e.lifeMu.RUnlock()
			s.drops.Add(n)
			s.dropped.Add(n)
			if e.cfg.Span.Enabled() {
				// A shed decision is an op outcome worth tracing: zero
				// stage time, flagged shed, attributed to the shard whose
				// pressure caused it.
				sp := e.cfg.Span.Start(i, batch[0].Key)
				sp.SetBatch(len(batch))
				sp.SetFlags(span.FlagShed)
				sp.Finish(span.KindShed)
			}
			e.pool.Put(batch[:0])
			return false
		}
	}
	var enq int64
	if e.cfg.Span.Enabled() && e.spanTick.Add(1)&(batchSpanSample-1) == 0 {
		enq = e.cfg.Span.Clock()
	}
	s.submitted.Add(n)
	if e.cfg.Block {
		s.queue <- queued{ops: batch, enq: enq}
		e.lifeMu.RUnlock()
		return true
	}
	select {
	case s.queue <- queued{ops: batch, enq: enq}:
		e.lifeMu.RUnlock()
		return true
	default:
		e.lifeMu.RUnlock()
		s.submitted.Add(^(n - 1)) // undo: the batch never entered the queue
		s.drops.Add(n)
		s.dropped.Add(n)
		e.pool.Put(batch[:0])
		return false
	}
}

// Flush blocks until every op submitted before the call has been applied
// (or lost to a recovered writer panic, which is counted as dropped). Ops
// submitted concurrently with Flush may or may not be covered.
func (e *Engine) Flush() {
	for _, s := range e.shards {
		target := s.submitted.Load()
		for s.applied.Load()+s.failed.Load() < target {
			time.Sleep(20 * time.Microsecond)
		}
	}
}

// Drain stops intake and flushes the writers: Submit reports false from the
// moment Drain is called, queued batches are applied, and the engine keeps
// serving Query (and Apply) afterwards — the graceful half of a shutdown,
// typically followed by Snapshot and Close. Returns ctx's error if the
// queues do not empty in time; the intake stays stopped either way.
func (e *Engine) Drain(ctx context.Context) error {
	e.draining.Store(true)
	for _, s := range e.shards {
		target := s.submitted.Load()
		for s.applied.Load()+s.failed.Load() < target {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(50 * time.Microsecond):
			}
		}
	}
	return nil
}

// Close drains every queue, stops the writers and the watchdog and waits
// for them. Submit after Close reports false. Close is idempotent.
func (e *Engine) Close() {
	e.lifeMu.Lock()
	if e.closed {
		e.lifeMu.Unlock()
		return
	}
	e.closed = true
	for _, s := range e.shards {
		close(s.queue) // writers drain the remaining batches, then exit
	}
	e.lifeMu.Unlock()
	if e.watchdogStop != nil {
		close(e.watchdogStop)
		<-e.watchdogDone
	}
	e.wg.Wait()
}

// watchdog periodically compares each shard's progress counters against its
// queue: work waiting with no progress for a full stall window flags the
// shard (gauge, Stats.Stalled, Healthy). Progress or an empty queue clears
// the flag — a recovered shard goes back to healthy on its own.
func (e *Engine) watchdog(window time.Duration) {
	defer close(e.watchdogDone)
	tick := window / 4
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	type progress struct {
		done  uint64 // applied + failed at last change
		since time.Time
	}
	last := make([]progress, len(e.shards))
	now := time.Now()
	for i, s := range e.shards {
		last[i] = progress{done: s.applied.Load() + s.failed.Load(), since: now}
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-e.watchdogStop:
			return
		case now = <-t.C:
		}
		for i, s := range e.shards {
			done := s.applied.Load() + s.failed.Load()
			if done != last[i].done || len(s.queue) == 0 {
				last[i] = progress{done: done, since: now}
				if s.stalled.CompareAndSwap(true, false) {
					s.stallGauge.Set(0)
				}
				continue
			}
			if now.Sub(last[i].since) >= window && s.stalled.CompareAndSwap(false, true) {
				s.stallGauge.Set(1)
			}
		}
	}
}

// Healthy reports nil when no shard is flagged stalled — the engine's
// contribution to a readiness probe (resilience.Health.Register).
func (e *Engine) Healthy() error {
	for i, s := range e.shards {
		if s.stalled.Load() {
			return fmt.Errorf("engine: shard %d stalled (queue %d batches, writer not advancing)",
				i, len(s.queue))
		}
	}
	return nil
}

// Len sums the shard occupancies through the lock-free read path — a stats
// snapshot never contends with the shard writers.
func (e *Engine) Len() int {
	total := 0
	for _, s := range e.shards {
		total += s.cache.Len()
	}
	return total
}

// Capacity sums the shard capacities.
func (e *Engine) Capacity() int {
	total := 0
	for _, s := range e.shards {
		total += s.cache.Capacity()
	}
	return total
}

// Name is "<policy>×<shards>".
func (e *Engine) Name() string {
	return fmt.Sprintf("%s×%d", e.shards[0].cache.Name(), len(e.shards))
}

// Range iterates all cached pairs shard by shard until fn returns false,
// through the lock-free read path (flat caches snapshot each unit via its
// seqlock; wrapped caches read-lock internally). The result is not a
// point-in-time snapshot across shards — or across units within a flat
// shard — but every pair seen was genuinely cached at the moment its unit
// was read.
func (e *Engine) Range(fn func(k, v uint64) bool) {
	for _, s := range e.shards {
		more := true
		s.cache.Range(func(k, v uint64) bool {
			more = fn(k, v)
			return more
		})
		if !more {
			return
		}
	}
}

// ShardStats is one shard's accounting snapshot. The invariant
// Submitted == Applied + Failed holds once the queue drains, and Failed is
// also included in Dropped, so produced == Applied + Dropped overall.
type ShardStats struct {
	Submitted uint64 // ops accepted into the queue
	Applied   uint64 // ops the writer has applied
	Dropped   uint64 // ops shed (full queue, shedder, close/drain, or panic)
	Failed    uint64 // ops lost to recovered writer panics (⊆ Dropped)
	Panics    uint64 // writer panics recovered
	Stalled   bool   // watchdog verdict
	QueueLen  int    // batches waiting right now
	QueueCap  int    // queue capacity in batches (QueueDepth)
	Len       int    // cache occupancy
}

// Stats snapshots every shard without touching the mutator locks: counters
// are atomics and Len reads through the lock-free path, so a stats scrape
// under write load costs the writers nothing.
func (e *Engine) Stats() []ShardStats {
	out := make([]ShardStats, len(e.shards))
	for i, s := range e.shards {
		n := s.cache.Len()
		out[i] = ShardStats{
			Submitted: s.submitted.Load(),
			Applied:   s.applied.Load(),
			Dropped:   s.drops.Load(),
			Failed:    s.failed.Load(),
			Panics:    s.panics.Load(),
			Stalled:   s.stalled.Load(),
			QueueLen:  len(s.queue),
			QueueCap:  cap(s.queue),
			Len:       n,
		}
	}
	return out
}

// Dropped sums the drop counters.
func (e *Engine) Dropped() uint64 {
	var total uint64
	for _, s := range e.shards {
		total += s.drops.Load()
	}
	return total
}

// Submitter is a per-goroutine batching front end: ops accumulate in
// per-shard buffers and are handed to the shard queues BatchSize at a time,
// amortizing the channel synchronization. A Submitter is NOT safe for
// concurrent use — give each producer goroutine its own and Flush it before
// the goroutine exits.
type Submitter struct {
	e    *Engine
	bufs [][]Op
	// dropped counts ops this submitter shed (engine drop counters include
	// them too; this is the producer-local view).
	dropped uint64
}

// NewSubmitter returns a batching handle for one producer goroutine.
func (e *Engine) NewSubmitter() *Submitter {
	return &Submitter{e: e, bufs: make([][]Op, len(e.shards))}
}

// Submit buffers one op; the op reaches its shard when the shard's buffer
// fills (or on Flush).
func (s *Submitter) Submit(op Op) {
	i := s.e.ShardFor(op.Key)
	if s.bufs[i] == nil {
		s.bufs[i] = s.e.pool.Get().([]Op)
	}
	s.bufs[i] = append(s.bufs[i], op)
	if len(s.bufs[i]) >= s.e.cfg.BatchSize {
		s.flushShard(i)
	}
}

// Flush hands every partial batch to its shard.
func (s *Submitter) Flush() {
	for i := range s.bufs {
		if len(s.bufs[i]) > 0 {
			s.flushShard(i)
		}
	}
}

// Dropped returns the ops this submitter shed on full queues.
func (s *Submitter) Dropped() uint64 { return s.dropped }

func (s *Submitter) flushShard(i int) {
	n := uint64(len(s.bufs[i]))
	if !s.e.submitBatch(i, s.bufs[i], resilience.PriNormal) {
		s.dropped += n
	}
	s.bufs[i] = nil
}
