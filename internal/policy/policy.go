// Package policy provides the replacement policies the paper's evaluation
// sweeps (§4.2.1): the P4LRU family, the ideal LRU upper bound, and the
// three data-plane baselines — the plain hash table (equivalent to P4LRU1,
// the testbed "Baseline"), the timeout policy (Beaucoup/NetSeer style), and
// the two LFU-flavoured policies built on Elastic sketch and CocoSketch
// bucket replacement.
//
// Every policy implements Cache, so the LruTable/LruIndex/LruMon simulators
// can swap replacement strategies without caring which one is installed, and
// NewForMemory sizes any policy to an equal memory budget using the
// data-plane cost model documented per policy.
package policy

import (
	"fmt"
	"time"

	"github.com/p4lru/p4lru/internal/lru"
)

// Result mirrors lru.Result for uint64 values, plus an admission flag:
// P4LRU and the ideal LRU always admit on a miss, but the timeout, elastic
// and coco policies may decline to displace a fresh/strong resident.
type Result struct {
	Hit          bool
	Admitted     bool // key newly admitted (miss path only)
	Evicted      bool
	EvictedKey   uint64
	EvictedValue uint64
}

// fromLRU lifts an lru.Result; P4LRU-family caches always admit on miss.
func fromLRU(r lru.Result[uint64]) Result {
	return Result{
		Hit:          r.Hit,
		Admitted:     !r.Hit,
		Evicted:      r.Evicted,
		EvictedKey:   r.EvictedKey,
		EvictedValue: r.EvictedValue,
	}
}

// MergeFunc combines a cached value with an incoming one on a hit; nil means
// replace.
type MergeFunc = lru.MergeFunc[uint64]

// Cache is the uniform replacement-policy interface. Values are uint64 —
// wide enough for every system (real addresses, 48-bit database indexes,
// byte counts).
type Cache interface {
	// Name identifies the policy in experiment output ("p4lru3", "timeout", ...).
	Name() string
	// Query looks k up without modifying replacement state. The returned
	// Token must be passed to the subsequent Update for the same key; see
	// Token for the series-connection contract it carries (the
	// series-connected P4LRU encodes the cached_flag level; everything
	// else returns NoToken).
	Query(k uint64) (v uint64, tok Token, ok bool)
	// Update performs a replacement-state-modifying access: promote on hit,
	// admit (possibly evicting) on miss — or decline to admit, for policies
	// that do (timeout, elastic, coco). tok is the Token the matching Query
	// returned (NoToken for blind updates).
	Update(k, v uint64, tok Token, now time.Duration) Result
	// Len is the number of cached entries; Capacity the maximum.
	Len() int
	Capacity() int
	// Range iterates all cached (key, value) pairs until fn returns false
	// (control-plane style readout; LruMon's end-of-run flush uses it).
	Range(fn func(k, v uint64) bool)
}

// ConcurrentReader is an optional Cache capability: a policy whose Query is
// safe to run concurrently with a single writer's Update returns true, and
// the serving engine then queries it with no lock at all. The flat cores
// (FlatP4LRU, FlatSeries) implement it via their per-unit seqlocks, as
// does Synchronized, which takes its own read lock internally. The generic
// interface-based policies mutate multi-word buckets non-atomically and do
// not implement it — the engine wraps those in Synchronized.
type ConcurrentReader interface {
	ConcurrentQuery() bool
}

// TimeReader is an optional Cache capability: a policy whose replacement
// decisions read Update's now argument returns true. Only Timeout does, and
// Synchronized forwards its inner cache's answer. The serving engine reads
// its write clock only for a cache that reads time.
type TimeReader interface {
	ReadsTime() bool
}

// ---------------------------------------------------------------------------
// P4LRU family
// ---------------------------------------------------------------------------

// P4LRU wraps a parallel-connected array of P4LRU units (§1.2) as a Cache.
// unitCap 1 reproduces the plain hash table (one entry per bucket, always
// replace) — the testbed Baseline.
type P4LRU struct {
	arr     *lru.Array[uint64]
	unitCap int
}

// NewP4LRU builds an array of numUnits P4LRU units of capacity unitCap
// (1–4 use the data-plane implementations; larger n uses the generic unit).
func NewP4LRU(unitCap, numUnits int, seed uint64, merge MergeFunc) *P4LRU {
	var newUnit func() lru.UnitCache[uint64]
	switch unitCap {
	case 2:
		newUnit = func() lru.UnitCache[uint64] { return lru.NewUnit2[uint64](merge) }
	case 3:
		newUnit = func() lru.UnitCache[uint64] { return lru.NewUnit3[uint64](merge) }
	case 4:
		newUnit = func() lru.UnitCache[uint64] { return lru.NewUnit4[uint64](merge) }
	default:
		newUnit = func() lru.UnitCache[uint64] { return lru.NewUnit[uint64](unitCap, merge) }
	}
	return &P4LRU{arr: lru.NewArray(numUnits, seed, newUnit), unitCap: unitCap}
}

// Name implements Cache.
func (p *P4LRU) Name() string { return fmt.Sprintf("p4lru%d", p.unitCap) }

// Query implements Cache.
func (p *P4LRU) Query(k uint64) (uint64, Token, bool) {
	v, ok := p.arr.Lookup(k)
	return v, NoToken, ok
}

// Update implements Cache. P4LRU always admits.
func (p *P4LRU) Update(k, v uint64, _ Token, _ time.Duration) Result {
	return fromLRU(p.arr.Update(k, v))
}

// Len implements Cache.
func (p *P4LRU) Len() int { return p.arr.Len() }

// Capacity implements Cache.
func (p *P4LRU) Capacity() int { return p.arr.Capacity() }

// Range implements Cache.
func (p *P4LRU) Range(fn func(k, v uint64) bool) { p.arr.Range(fn) }

// Array exposes the underlying array (for pipeline differential tests).
func (p *P4LRU) Array() *lru.Array[uint64] { return p.arr }

// Series wraps the series-connection of §3.2 as a Cache. Query returns the
// 1-based level as flag; Update routes through the reply path.
type Series struct {
	s *lru.Series[uint64]
}

// NewSeries builds `levels` series-connected arrays of P4LRU3 units.
func NewSeries(levels, numUnits int, seed uint64, merge MergeFunc) *Series {
	return &Series{s: lru.NewSeries3(levels, numUnits, seed, merge)}
}

// NewSeriesUnitCap builds a series with configurable per-unit capacity
// (1, 2, 3 or 4) — Figure 16(a)/(b) sweeps this.
func NewSeriesUnitCap(unitCap, levels, numUnits int, seed uint64, merge MergeFunc) *Series {
	var newUnit func() lru.UnitCache[uint64]
	switch unitCap {
	case 2:
		newUnit = func() lru.UnitCache[uint64] { return lru.NewUnit2[uint64](merge) }
	case 3:
		newUnit = func() lru.UnitCache[uint64] { return lru.NewUnit3[uint64](merge) }
	case 4:
		newUnit = func() lru.UnitCache[uint64] { return lru.NewUnit4[uint64](merge) }
	default:
		newUnit = func() lru.UnitCache[uint64] { return lru.NewUnit[uint64](unitCap, merge) }
	}
	return &Series{s: lru.NewSeries(levels, numUnits, seed, newUnit)}
}

// Name implements Cache.
func (c *Series) Name() string { return fmt.Sprintf("series%d", c.s.Levels()) }

// Query implements Cache: the token is the 1-based series level.
func (c *Series) Query(k uint64) (uint64, Token, bool) {
	v, level, ok := c.s.Query(k)
	return v, Token(level), ok
}

// Update implements Cache: tok is the level token from the matching Query.
// A token naming no level is treated as NoToken (see Token.levelIn).
func (c *Series) Update(k, v uint64, tok Token, _ time.Duration) Result {
	return fromLRU(c.s.Reply(k, v, tok.levelIn(c.s.Levels())))
}

// Len implements Cache.
func (c *Series) Len() int { return c.s.Len() }

// Capacity implements Cache.
func (c *Series) Capacity() int { return c.s.Capacity() }

// Range implements Cache.
func (c *Series) Range(fn func(k, v uint64) bool) { c.s.Range(fn) }

// Inner exposes the underlying series (for the ablation experiments).
func (c *Series) Inner() *lru.Series[uint64] { return c.s }

// Ideal wraps lru.Ideal as a Cache — the LRU_IDEAL upper bound.
type Ideal struct {
	c *lru.Ideal[uint64]
}

// NewIdeal builds an ideal LRU with the given total capacity.
func NewIdeal(capacity int, merge MergeFunc) *Ideal {
	return &Ideal{c: lru.NewIdeal(capacity, merge)}
}

// Name implements Cache.
func (c *Ideal) Name() string { return "ideal" }

// Query implements Cache.
func (c *Ideal) Query(k uint64) (uint64, Token, bool) {
	v, ok := c.c.Lookup(k)
	return v, NoToken, ok
}

// Update implements Cache.
func (c *Ideal) Update(k, v uint64, _ Token, _ time.Duration) Result {
	return fromLRU(c.c.Update(k, v))
}

// Range implements Cache.
func (c *Ideal) Range(fn func(k, v uint64) bool) { c.c.Range(fn) }

// Len implements Cache.
func (c *Ideal) Len() int { return c.c.Len() }

// Capacity implements Cache.
func (c *Ideal) Capacity() int { return c.c.Cap() }
