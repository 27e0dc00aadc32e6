package policy

import (
	"fmt"
	"math/rand"
	"time"
)

// ---------------------------------------------------------------------------
// Timeout policy (Beaucoup / NetSeer style, §1.1)
// ---------------------------------------------------------------------------

// Timeout is the timeout replacement policy: a single-entry-per-bucket hash
// table where each entry carries its last access time. On a collision the
// resident entry is replaced only if its timestamp has expired; otherwise
// the incoming key is not admitted. The threshold must be tuned per workload
// — the drawback the paper calls out, and Figure 12–14 sweeps.
type Timeout struct {
	keys      []uint64
	vals      []uint64
	last      []time.Duration
	used      []bool
	hash      indexHash
	threshold time.Duration
	size      int
	merge     MergeFunc
}

// NewTimeout builds a timeout cache with `buckets` single-entry buckets.
func NewTimeout(buckets int, threshold time.Duration, seed uint64, merge MergeFunc) *Timeout {
	if buckets < 1 {
		panic(fmt.Sprintf("policy: timeout with %d buckets", buckets))
	}
	return &Timeout{
		keys:      make([]uint64, buckets),
		vals:      make([]uint64, buckets),
		last:      make([]time.Duration, buckets),
		used:      make([]bool, buckets),
		hash:      newIndexHash(seed),
		threshold: threshold,
		merge:     merge,
	}
}

// Name implements Cache.
func (c *Timeout) Name() string { return "timeout" }

// ReadsTime implements TimeReader: an entry's age decides its replacement.
func (c *Timeout) ReadsTime() bool { return true }

// Query implements Cache.
func (c *Timeout) Query(k uint64) (uint64, Token, bool) {
	i := c.hash.index(k, len(c.keys))
	if c.used[i] && c.keys[i] == k {
		return c.vals[i], 0, true
	}
	return 0, 0, false
}

// Update implements Cache.
func (c *Timeout) Update(k, v uint64, _ Token, now time.Duration) Result {
	var res Result
	i := c.hash.index(k, len(c.keys))
	switch {
	case c.used[i] && c.keys[i] == k:
		res.Hit = true
		if c.merge != nil {
			c.vals[i] = c.merge(c.vals[i], v)
		} else {
			c.vals[i] = v
		}
		c.last[i] = now
	case !c.used[i]:
		c.used[i] = true
		res.Admitted = true
		c.keys[i], c.vals[i], c.last[i] = k, v, now
		c.size++
	case now-c.last[i] > c.threshold:
		res.Admitted = true
		res.Evicted = true
		res.EvictedKey, res.EvictedValue = c.keys[i], c.vals[i]
		c.keys[i], c.vals[i], c.last[i] = k, v, now
	default:
		// Resident entry is still fresh: the incoming key is not admitted.
	}
	return res
}

// Range implements Cache.
func (c *Timeout) Range(fn func(k, v uint64) bool) {
	for i, used := range c.used {
		if used && !fn(c.keys[i], c.vals[i]) {
			return
		}
	}
}

// Len implements Cache.
func (c *Timeout) Len() int { return c.size }

// Capacity implements Cache.
func (c *Timeout) Capacity() int { return len(c.keys) }

// ---------------------------------------------------------------------------
// Elastic sketch replacement (LFU-flavoured, §4.2.1 "Elastic")
// ---------------------------------------------------------------------------

// Elastic applies the Elastic sketch heavy-part bucket discipline as a cache
// replacement policy: each bucket holds one entry with a positive vote
// counter for the resident flow and a negative vote counter for colliding
// flows. When negative/positive ≥ λ the resident is evicted. Frequent flows
// therefore stick — including long after their last access, which is the
// pathology P4LRU fixes.
type Elastic struct {
	keys   []uint64
	vals   []uint64
	votePo []uint32
	voteNe []uint32
	used   []bool
	hash   indexHash
	lambda uint32
	size   int
	merge  MergeFunc
}

// NewElastic builds an elastic-replacement cache. lambda is the eviction
// vote ratio (the Elastic sketch paper uses 8).
func NewElastic(buckets int, lambda uint32, seed uint64, merge MergeFunc) *Elastic {
	if buckets < 1 {
		panic(fmt.Sprintf("policy: elastic with %d buckets", buckets))
	}
	if lambda == 0 {
		lambda = 8
	}
	return &Elastic{
		keys:   make([]uint64, buckets),
		vals:   make([]uint64, buckets),
		votePo: make([]uint32, buckets),
		voteNe: make([]uint32, buckets),
		used:   make([]bool, buckets),
		hash:   newIndexHash(seed),
		lambda: lambda,
		merge:  merge,
	}
}

// Name implements Cache.
func (c *Elastic) Name() string { return "elastic" }

// Query implements Cache.
func (c *Elastic) Query(k uint64) (uint64, Token, bool) {
	i := c.hash.index(k, len(c.keys))
	if c.used[i] && c.keys[i] == k {
		return c.vals[i], 0, true
	}
	return 0, 0, false
}

// Update implements Cache.
func (c *Elastic) Update(k, v uint64, _ Token, _ time.Duration) Result {
	var res Result
	i := c.hash.index(k, len(c.keys))
	switch {
	case c.used[i] && c.keys[i] == k:
		res.Hit = true
		c.votePo[i]++
		if c.merge != nil {
			c.vals[i] = c.merge(c.vals[i], v)
		} else {
			c.vals[i] = v
		}
	case !c.used[i]:
		c.used[i] = true
		res.Admitted = true
		c.keys[i], c.vals[i] = k, v
		c.votePo[i], c.voteNe[i] = 1, 0
		c.size++
	default:
		c.voteNe[i]++
		if c.voteNe[i] >= c.lambda*c.votePo[i] {
			res.Admitted = true
			res.Evicted = true
			res.EvictedKey, res.EvictedValue = c.keys[i], c.vals[i]
			c.keys[i], c.vals[i] = k, v
			c.votePo[i], c.voteNe[i] = 1, 0
		}
	}
	return res
}

// Range implements Cache.
func (c *Elastic) Range(fn func(k, v uint64) bool) {
	for i, used := range c.used {
		if used && !fn(c.keys[i], c.vals[i]) {
			return
		}
	}
}

// Len implements Cache.
func (c *Elastic) Len() int { return c.size }

// Capacity implements Cache.
func (c *Elastic) Capacity() int { return len(c.keys) }

// ---------------------------------------------------------------------------
// CocoSketch replacement (frequency-proportional, §4.2.1 "Coco")
// ---------------------------------------------------------------------------

// Coco applies CocoSketch's unbiased bucket replacement as a cache policy:
// each bucket keeps one entry with a counter; a colliding key increments the
// counter and takes over the bucket with probability 1/counter. Heavy flows
// win buckets proportionally to their frequency.
type Coco struct {
	keys  []uint64
	vals  []uint64
	count []uint32
	used  []bool
	hash  indexHash
	rng   *rand.Rand
	size  int
	merge MergeFunc
}

// NewCoco builds a CocoSketch-replacement cache.
func NewCoco(buckets int, seed uint64, merge MergeFunc) *Coco {
	if buckets < 1 {
		panic(fmt.Sprintf("policy: coco with %d buckets", buckets))
	}
	return &Coco{
		keys:  make([]uint64, buckets),
		vals:  make([]uint64, buckets),
		count: make([]uint32, buckets),
		used:  make([]bool, buckets),
		hash:  newIndexHash(seed),
		rng:   rand.New(rand.NewSource(int64(seed) ^ 0x5eed)),
		merge: merge,
	}
}

// Name implements Cache.
func (c *Coco) Name() string { return "coco" }

// Query implements Cache.
func (c *Coco) Query(k uint64) (uint64, Token, bool) {
	i := c.hash.index(k, len(c.keys))
	if c.used[i] && c.keys[i] == k {
		return c.vals[i], 0, true
	}
	return 0, 0, false
}

// Update implements Cache.
func (c *Coco) Update(k, v uint64, _ Token, _ time.Duration) Result {
	var res Result
	i := c.hash.index(k, len(c.keys))
	switch {
	case c.used[i] && c.keys[i] == k:
		res.Hit = true
		c.count[i]++
		if c.merge != nil {
			c.vals[i] = c.merge(c.vals[i], v)
		} else {
			c.vals[i] = v
		}
	case !c.used[i]:
		c.used[i] = true
		res.Admitted = true
		c.keys[i], c.vals[i], c.count[i] = k, v, 1
		c.size++
	default:
		c.count[i]++
		if c.rng.Float64() < 1/float64(c.count[i]) {
			res.Admitted = true
			res.Evicted = true
			res.EvictedKey, res.EvictedValue = c.keys[i], c.vals[i]
			c.keys[i], c.vals[i] = k, v
		}
	}
	return res
}

// Range implements Cache.
func (c *Coco) Range(fn func(k, v uint64) bool) {
	for i, used := range c.used {
		if used && !fn(c.keys[i], c.vals[i]) {
			return
		}
	}
}

// Len implements Cache.
func (c *Coco) Len() int { return c.size }

// Capacity implements Cache.
func (c *Coco) Capacity() int { return len(c.keys) }

var (
	_ Cache = (*P4LRU)(nil)
	_ Cache = (*Series)(nil)
	_ Cache = (*Ideal)(nil)
	_ Cache = (*Timeout)(nil)
	_ Cache = (*Elastic)(nil)
	_ Cache = (*Coco)(nil)

	_ TimeReader = (*Timeout)(nil)
)
