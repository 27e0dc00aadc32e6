package policy

import (
	"fmt"
	"time"

	"github.com/p4lru/p4lru/internal/lru"
)

// Op is one replacement-state mutation in batch form: the (key, value,
// token, time) quadruple of Cache.Update. The serving engine queues ops in
// this shape and BatchUpdater caches consume whole slices of them without
// per-op conversion.
type Op struct {
	Key, Value uint64
	Token      Token
	Now        time.Duration
}

// BatchUpdater is an optional Cache capability: applying a whole op batch
// in one call, semantically identical to calling Update(op.Key, op.Value,
// op.Token, op.Now) for each op in order with the Results discarded.
// Implementations use the batch to amortize per-op overhead — the flat
// P4LRU core hashes all keys up front and walks its slabs in a
// cache-friendly pass. The engine's shard writers apply each queued batch
// through this interface when the shard's cache provides it.
type BatchUpdater interface {
	UpdateBatch(ops []Op)
}

// EvictBatchUpdater is an optional Cache capability layered on BatchUpdater:
// apply a whole op batch AND report every eviction to onEvict, in op order.
// The serving engine prefers this interface when an eviction hook (the
// write-behind drain) is configured, so a cache can keep a fast batch path
// even while its replacements are being observed — the flat P4LRU core
// applies per-op flat updates (no interface dispatch, no allocation) instead
// of its eviction-blind slab walk.
type EvictBatchUpdater interface {
	UpdateBatchEvict(ops []Op, onEvict func(key, val uint64))
}

// FlatP4LRU is the p4lruN policy (N = 2, 3 or 4) on the struct-of-arrays
// core (lru.FlatArray) instead of the generic interface-based array. It is
// behaviourally identical to NewP4LRU(N, units, seed, merge) with the same
// parameters — the differential tests pin this — while removing interface
// dispatch and per-unit pointer chases from the hot path: Query and Update
// are zero-allocation, and UpdateBatch applies engine op batches through
// the core's batched slab walk.
//
// NewForMemory and the spec layer construct this type for KindP4LRU2/3/4,
// so the simulators, experiments, serving engine and replay all run on the
// flat core by default; NewP4LRU remains the generic oracle.
type FlatP4LRU struct {
	arr *lru.FlatArray
	// keys/vals are the reusable batch scratch: UpdateBatch splits the op
	// structs into the parallel key/value slices the core's slab walk takes.
	keys, vals []uint64
}

var (
	_ Cache             = (*FlatP4LRU)(nil)
	_ BatchUpdater      = (*FlatP4LRU)(nil)
	_ EvictBatchUpdater = (*FlatP4LRU)(nil)
	_ ConcurrentReader  = (*FlatP4LRU)(nil)
)

// NewFlatP4LRU builds a flat-core p4lruN policy with numUnits units of
// capacity unitCap (2, 3 or 4; lru.NewFlatArray panics on any other).
func NewFlatP4LRU(unitCap, numUnits int, seed uint64, merge MergeFunc) *FlatP4LRU {
	return &FlatP4LRU{arr: lru.NewFlatArray(unitCap, numUnits, seed, merge)}
}

// Name implements Cache. The flat core is an implementation detail: it
// reports "p4lruN" so experiment output is identical to the generic array.
func (p *FlatP4LRU) Name() string { return fmt.Sprintf("p4lru%d", p.arr.UnitCap()) }

// Query implements Cache.
func (p *FlatP4LRU) Query(k uint64) (uint64, Token, bool) {
	v, ok := p.arr.Lookup(k)
	return v, NoToken, ok
}

// ConcurrentQuery implements ConcurrentReader: the flat core's per-unit
// seqlock makes Query safe concurrent with the single shard writer, so the
// serving engine queries with no lock at all.
func (p *FlatP4LRU) ConcurrentQuery() bool { return true }

// Update implements Cache. P4LRU always admits.
func (p *FlatP4LRU) Update(k, v uint64, _ Token, _ time.Duration) Result {
	return fromLRU(p.arr.Update(k, v))
}

// UpdateBatch implements BatchUpdater: the ops are split into parallel
// key/value slices (reused across calls, so steady-state batches allocate
// nothing) and applied through the core's batched slab walk. Tokens and
// times are ignored, as in Update.
func (p *FlatP4LRU) UpdateBatch(ops []Op) {
	if cap(p.keys) < len(ops) {
		p.keys = make([]uint64, len(ops))
		p.vals = make([]uint64, len(ops))
	}
	keys, vals := p.keys[:len(ops)], p.vals[:len(ops)]
	for i := range ops {
		keys[i] = ops[i].Key
		vals[i] = ops[i].Value
	}
	p.arr.UpdateBatch(keys, vals)
}

// UpdateBatchEvict implements EvictBatchUpdater: per-op updates on the flat
// core (each returns its Result, so evictions are visible) instead of the
// batched slab walk, which discards them. Still zero-allocation and free of
// interface dispatch; the price is losing the batch's hash-ahead locality.
func (p *FlatP4LRU) UpdateBatchEvict(ops []Op, onEvict func(key, val uint64)) {
	for i := range ops {
		r := p.arr.Update(ops[i].Key, ops[i].Value)
		if r.Evicted {
			onEvict(r.EvictedKey, r.EvictedValue)
		}
	}
}

// Len implements Cache.
func (p *FlatP4LRU) Len() int { return p.arr.Len() }

// Capacity implements Cache.
func (p *FlatP4LRU) Capacity() int { return p.arr.Capacity() }

// Range implements Cache.
func (p *FlatP4LRU) Range(fn func(k, v uint64) bool) { p.arr.Range(fn) }
