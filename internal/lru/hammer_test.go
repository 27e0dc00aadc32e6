package lru

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// hammerVal is the value every hammer writer binds to a key: an invertible
// mix, so a reader can verify any observed hit against the key alone. A
// torn read that pairs key registers from one unit generation with value
// registers from another produces a value that fails this check — the
// property the seqlock exists to rule out.
func hammerVal(k uint64) uint64 { return k*0x9E3779B97F4A7C15 + 1 }

// hammerCore runs one writer streaming UpdateBatch/InsertTail over a flat
// core while reader goroutines spin on Lookup and QueryBatch, asserting
// every observed hit carries the value its key actually held. Run under
// -race this also proves the seqlock protocol is explicit to the race
// detector (the portable build's atomic stores).
func hammerCore(t *testing.T, core *FlatArray) {
	t.Helper()
	const (
		readers   = 4
		keySpace  = 1 << 12
		batchSize = 256
		batches   = 400
	)

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan string, readers)

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			qk := make([]uint64, 64)
			qv := make([]uint64, 64)
			qok := make([]bool, 64)
			x := seed
			for !stop.Load() {
				// Scalar reads.
				for i := 0; i < 64; i++ {
					x = x*6364136223846793005 + 1442695040888963407
					k := x%keySpace + 1
					if v, ok := core.Lookup(k); ok && v != hammerVal(k) {
						errs <- fmt.Sprintf("Lookup(%d) = %d, want %d", k, v, hammerVal(k))
						return
					}
				}
				// Batched reads.
				for i := range qk {
					x = x*6364136223846793005 + 1442695040888963407
					qk[i] = x%keySpace + 1
				}
				core.QueryBatch(qk, qv, qok)
				for i, k := range qk {
					if qok[i] && qv[i] != hammerVal(k) {
						errs <- fmt.Sprintf("QueryBatch(%d) = %d, want %d", k, qv[i], hammerVal(k))
						return
					}
				}
			}
		}(uint64(r)*0x9e3779b9 + 1)
	}

	// The single writer: batched updates plus scalar Update/InsertTail, the
	// full mutator surface the engine and the series connection exercise.
	keys := make([]uint64, batchSize)
	vals := make([]uint64, batchSize)
	w := uint64(12345)
	for b := 0; b < batches; b++ {
		for i := range keys {
			w = w*6364136223846793005 + 1442695040888963407
			keys[i] = w%keySpace + 1
			vals[i] = hammerVal(keys[i])
		}
		core.UpdateBatch(keys, vals)
		for i := 0; i < 16; i++ {
			w = w*6364136223846793005 + 1442695040888963407
			k := w%keySpace + 1
			if i%2 == 0 {
				core.Update(k, hammerVal(k))
			} else {
				core.InsertTail(k, hammerVal(k))
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestFlatHammerConcurrentReaders is the tentpole's correctness gate: for
// each flat core, readers observe only values their keys actually held
// while the writer streams mutations — wait-free reads with no locks and
// no torn snapshots.
func TestFlatHammerConcurrentReaders(t *testing.T) {
	for _, unitCap := range []int{2, 3, 4} {
		t.Run(fmt.Sprintf("unitcap=%d", unitCap), func(t *testing.T) {
			hammerCore(t, NewFlatArray(unitCap, 1<<8, 1, nil))
		})
	}
}

// TestFlatSeriesHammerConcurrentReaders runs the same discipline over the
// series connection: the writer drives the §3.2 query/reply cycle
// (promotions, inserts and demotion cascades across levels) while readers
// query all levels. A key mid-demotion may be missed entirely — exactly as
// on the switch — but a hit must always carry the key's bound value.
func TestFlatSeriesHammerConcurrentReaders(t *testing.T) {
	const (
		readers  = 4
		keySpace = 1 << 10
		replies  = 60000
	)
	s := NewFlatSeries(3, 4, 1<<6, 1, nil)

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan string, readers)

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			x := seed
			for !stop.Load() {
				for i := 0; i < 64; i++ {
					x = x*6364136223846793005 + 1442695040888963407
					k := x%keySpace + 1
					if v, _, ok := s.Query(k); ok && v != hammerVal(k) {
						errs <- fmt.Sprintf("Query(%d) = %d, want %d", k, v, hammerVal(k))
						return
					}
				}
			}
		}(uint64(r)*0x9e3779b9 + 1)
	}

	w := uint64(999)
	for i := 0; i < replies; i++ {
		w = w*6364136223846793005 + 1442695040888963407
		k := w%keySpace + 1
		// The writer's own query/reply round trip — promotion on hit,
		// insert + demotion cascade on miss.
		_, level, _ := s.Query(k)
		s.Reply(k, hammerVal(k), level)
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
