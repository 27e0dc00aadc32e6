package cluster

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"github.com/p4lru/p4lru/internal/hashing"
	"github.com/p4lru/p4lru/internal/sketch"
)

// hotKeys tracks the cluster's top-K keys by query frequency — the set the
// router replicates to successor nodes and fans reads across — the way
// LruMon tracks elephant flows (§3.3). A sampled touch of a key that is not
// a candidate adds to a CU sketch, the filter; a key whose estimate reaches
// hotAdmit enters a fixed array of candidates, hotWays-way buckets in which,
// as in LruMon's cache array, its touches add up exactly and a full bucket
// evicts its lowest count. Every hotPublishEvery sampled touches the k
// highest counts are published by marking their slots in pub, which Hot
// reads without a lock. Only 1 in hotSampleStride touches takes the lock:
// top-K membership needs only relative frequencies, which survive uniform
// sampling. Time is counted in sampled touches (every hotDecayEvery of them
// the sketch resets and the counts halve), so no clock is read, and one
// touch sequence gives one set.
type hotKeys struct {
	n atomic.Uint64 // touch counter, drives sampling; alone on its line
	_ [56]byte

	mu     sync.Mutex
	sk     *sketch.CountMin // the CU filter, 4 rows of 4096, clocked in sampled touches
	bucket hashing.Hash     // picks a key's candidate bucket
	cands  []hotCand        // the candidate array, a power of two of buckets; n == 0 is a free slot
	top    []hotCand        // publish's scratch: the best k (its capacity), best first
	pub    []atomic.Uint64  // cands[i].key+1 while it is published, else 0: key 2^64−1 is never hot
}

// hotCand is one candidate: a key and its count of sampled touches.
type hotCand struct {
	key uint64
	n   uint32
}

// above ranks candidates: the higher count, then the lower key.
func (a hotCand) above(b hotCand) bool { return a.n > b.n || a.n == b.n && a.key < b.key }

const (
	hotSampleStride = 8       // 1 in 8 touches is sampled
	hotPublishEvery = 1024    // sampled touches between top-K publishes
	hotDecayEvery   = 1 << 16 // sampled touches between decays
	hotAdmit        = 2       // the filter estimate that makes a key a candidate
	hotWays         = 8       // candidate bucket width
	hotCandidates   = 4       // candidate slots per published key, at least
)

func newHotKeys(k int, seed uint64) *hotKeys {
	if k <= 0 {
		return nil // replication disabled; all methods are nil-safe
	}
	n := hotWays << bits.Len(uint(hotCandidates*k-1)/hotWays)
	return &hotKeys{
		sk:     sketch.NewCU(4, 4096, hotDecayEvery, seed^0x9e3779b97f4a7c15),
		bucket: hashing.New(seed ^ 0x6a09e667f3bcc909),
		cands:  make([]hotCand, n),
		top:    make([]hotCand, 0, k),
		pub:    make([]atomic.Uint64, n),
	}
}

// Hot reports whether key is published: a lock-free scan of its bucket.
func (h *hotKeys) Hot(key uint64) bool {
	if h == nil {
		return false
	}
	b := int(h.bucket.Uint64(key)&uint64(len(h.cands)/hotWays-1)) * hotWays
	for i := range hotWays {
		if v := h.pub[b+i].Load(); v != 0 && v == key+1 {
			return true
		}
	}
	return false
}

// Touch records one query against key, sampled.
func (h *hotKeys) Touch(key uint64) {
	if h == nil {
		return
	}
	t := h.n.Add(1)
	if t%hotSampleStride != 0 {
		return
	}
	t /= hotSampleStride
	h.mu.Lock()
	defer h.mu.Unlock()
	if t%hotPublishEvery == 0 {
		h.publish(t%hotDecayEvery == 0)
	}
	b := h.cands[int(h.bucket.Uint64(key)&uint64(len(h.cands)/hotWays-1))*hotWays:][:hotWays]
	low := 0
	for i, c := range b {
		if c.n > 0 && c.key == key {
			b[i].n++
			return
		}
		if c.n < b[low].n {
			low = i
		}
	}
	if est := h.sk.Add(key, 1, time.Duration(t)); est >= hotAdmit && est > b[low].n {
		b[low] = hotCand{key: key, n: est}
	}
}

// Keys returns the published hot set (unordered copy).
func (h *hotKeys) Keys() []uint64 {
	if h == nil {
		return nil
	}
	var out []uint64
	for i := range h.pub {
		if v := h.pub[i].Load(); v != 0 {
			out = append(out, v-1)
		}
	}
	return out
}

// publish halves every count when decay is set, selects the best k
// candidates and marks only their slots in pub. Caller holds h.mu.
func (h *hotKeys) publish(decay bool) {
	h.top = h.top[:0]
	for _, c := range h.cands {
		if c.n == 0 || len(h.top) == cap(h.top) && !c.above(h.top[len(h.top)-1]) {
			continue
		}
		if len(h.top) < cap(h.top) {
			h.top = append(h.top, c)
		}
		j := len(h.top) - 1
		for ; j > 0 && c.above(h.top[j-1]); j-- {
			h.top[j] = h.top[j-1]
		}
		h.top[j] = c
	}
	for i, c := range h.cands {
		var v uint64
		if c.n > 0 && (len(h.top) < cap(h.top) || !h.top[len(h.top)-1].above(c)) {
			v = c.key + 1
		}
		h.pub[i].Store(v)
		if decay {
			h.cands[i].n /= 2
		}
	}
}
