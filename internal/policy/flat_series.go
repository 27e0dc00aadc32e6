package policy

import (
	"fmt"
	"time"

	"github.com/p4lru/p4lru/internal/lru"
)

// FlatSeries wraps the series connection on flat cores (lru.FlatSeries) as
// a Cache — the serving counterpart of Series, with wait-free reads on
// every level. Behaviour (level structure, token contract, demotion
// cascade) is identical to Series with the same parameters; the
// differential tests pin this.
type FlatSeries struct {
	s *lru.FlatSeries
}

var (
	_ Cache             = (*FlatSeries)(nil)
	_ BatchUpdater      = (*FlatSeries)(nil)
	_ EvictBatchUpdater = (*FlatSeries)(nil)
	_ ConcurrentReader  = (*FlatSeries)(nil)
)

// NewFlatSeries builds `levels` series-connected flat arrays of per-unit
// capacity unitCap (2, 3 or 4 — the capacities with flat cores).
func NewFlatSeries(unitCap, levels, numUnits int, seed uint64, merge MergeFunc) *FlatSeries {
	return &FlatSeries{s: lru.NewFlatSeries(unitCap, levels, numUnits, seed, merge)}
}

// Name implements Cache; it matches Series.Name so experiment output is
// unchanged by the flat core.
func (c *FlatSeries) Name() string { return fmt.Sprintf("series%d", c.s.Levels()) }

// Query implements Cache: the token is the 1-based series level.
func (c *FlatSeries) Query(k uint64) (uint64, Token, bool) {
	v, level, ok := c.s.Query(k)
	return v, Token(level), ok
}

// ConcurrentQuery implements ConcurrentReader: every level reads through
// its seqlock, so Query is safe concurrent with the shard writer's replies.
func (c *FlatSeries) ConcurrentQuery() bool { return true }

// Update implements Cache: tok is the level token from the matching Query.
// A token naming no level is treated as NoToken (see Token.levelIn).
func (c *FlatSeries) Update(k, v uint64, tok Token, _ time.Duration) Result {
	return fromLRU(c.s.Reply(k, v, tok.levelIn(c.s.Levels())))
}

// UpdateBatch implements BatchUpdater. The series reply path is inherently
// per-op (each op carries its own level token and may cascade demotions),
// so the batch is a plain loop — what the interface buys here is one
// dispatch per batch instead of one per op on the engine's write path.
func (c *FlatSeries) UpdateBatch(ops []Op) {
	for i := range ops {
		c.s.Reply(ops[i].Key, ops[i].Value, ops[i].Token.levelIn(c.s.Levels()))
	}
}

// UpdateBatchEvict implements EvictBatchUpdater: the per-op replies expose
// the entry expelled from the last level, which is the series' eviction.
func (c *FlatSeries) UpdateBatchEvict(ops []Op, onEvict func(key, val uint64)) {
	for i := range ops {
		r := c.s.Reply(ops[i].Key, ops[i].Value, ops[i].Token.levelIn(c.s.Levels()))
		if r.Evicted {
			onEvict(r.EvictedKey, r.EvictedValue)
		}
	}
}

// Len implements Cache.
func (c *FlatSeries) Len() int { return c.s.Len() }

// Capacity implements Cache.
func (c *FlatSeries) Capacity() int { return c.s.Capacity() }

// Range implements Cache.
func (c *FlatSeries) Range(fn func(k, v uint64) bool) { c.s.Range(fn) }
