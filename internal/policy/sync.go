package policy

import (
	"sync"
	"time"
)

// Synchronized wraps a Cache with a read-write mutex. The simulators are
// single-goroutine by design (a pipeline serializes packets), but servers
// embedding a cache across connection handlers — like the netproto switch —
// need the locked form. Queries take the read lock (so concurrent readers
// proceed in parallel), mutations the write lock; the wrapper therefore
// satisfies ConcurrentReader, and the serving engine uses it to give every
// policy — flat or not — a Query path that needs no engine-level lock.
type Synchronized struct {
	mu    sync.RWMutex
	inner Cache
	// batch/evictBatch are the inner cache's optional batch capabilities,
	// captured once at construction so the wrapper can delegate under a
	// single lock acquisition per batch instead of one per op.
	batch      BatchUpdater
	evictBatch EvictBatchUpdater
}

// Synchronize returns a goroutine-safe view of c. All access must then go
// through the wrapper. If c already reports ConcurrentQuery, it is returned
// unchanged — it needs no wrapping.
func Synchronize(c Cache) Cache {
	if c == nil {
		panic("policy: Synchronize(nil)")
	}
	if cr, ok := c.(ConcurrentReader); ok && cr.ConcurrentQuery() {
		return c
	}
	s := &Synchronized{inner: c}
	s.batch, _ = c.(BatchUpdater)
	s.evictBatch, _ = c.(EvictBatchUpdater)
	return s
}

// Name implements Cache.
func (s *Synchronized) Name() string { return s.inner.Name() }

// Query implements Cache under the read lock.
func (s *Synchronized) Query(k uint64) (uint64, Token, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.inner.Query(k)
}

// ConcurrentQuery implements ConcurrentReader: the wrapper's own read lock
// makes Query safe against concurrent mutators, so callers (the serving
// engine) need no lock of their own.
func (s *Synchronized) ConcurrentQuery() bool { return true }

// ReadsTime implements TimeReader by forwarding the inner cache's answer.
func (s *Synchronized) ReadsTime() bool {
	tr, ok := s.inner.(TimeReader)
	return ok && tr.ReadsTime()
}

// Update implements Cache under the write lock.
func (s *Synchronized) Update(k, v uint64, tok Token, now time.Duration) Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inner.Update(k, v, tok, now)
}

// UpdateBatch implements BatchUpdater: one write-lock acquisition covers the
// whole batch, delegating to the inner cache's batch path when it has one.
func (s *Synchronized) UpdateBatch(ops []Op) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.batch != nil {
		s.batch.UpdateBatch(ops)
		return
	}
	for i := range ops {
		s.inner.Update(ops[i].Key, ops[i].Value, ops[i].Token, ops[i].Now)
	}
}

// UpdateBatchEvict implements EvictBatchUpdater under one write-lock
// acquisition. onEvict runs under the lock; it must not call back into the
// wrapper.
func (s *Synchronized) UpdateBatchEvict(ops []Op, onEvict func(key, val uint64)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.evictBatch != nil {
		s.evictBatch.UpdateBatchEvict(ops, onEvict)
		return
	}
	for i := range ops {
		r := s.inner.Update(ops[i].Key, ops[i].Value, ops[i].Token, ops[i].Now)
		if r.Evicted {
			onEvict(r.EvictedKey, r.EvictedValue)
		}
	}
}

// Len implements Cache.
func (s *Synchronized) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.inner.Len()
}

// Capacity implements Cache.
func (s *Synchronized) Capacity() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.inner.Capacity()
}

// Range implements Cache. fn runs under the read lock; it must not call
// back into the wrapper's mutating methods.
func (s *Synchronized) Range(fn func(k, v uint64) bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.inner.Range(fn)
}

var (
	_ Cache             = (*Synchronized)(nil)
	_ ConcurrentReader  = (*Synchronized)(nil)
	_ BatchUpdater      = (*Synchronized)(nil)
	_ EvictBatchUpdater = (*Synchronized)(nil)
	_ TimeReader        = (*Synchronized)(nil)
)
