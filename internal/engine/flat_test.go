package engine

import (
	"testing"

	"github.com/p4lru/p4lru/internal/policy"
)

// TestWriterUsesBatchUpdater pins the wiring: an engine over p4lru3 shards
// applies op batches through the cache's BatchUpdater, and the batched
// path produces the same cache contents as a per-op Apply loop.
func TestWriterUsesBatchUpdater(t *testing.T) {
	spec := policy.Spec{Kind: policy.KindP4LRU3, MemBytes: 64 * 1024, Seed: 1}
	batched, err := NewFromSpec(spec, Config{Shards: 2, Block: true})
	if err != nil {
		t.Fatal(err)
	}
	defer batched.Close()
	looped, err := NewFromSpec(spec, Config{Shards: 2, Block: true})
	if err != nil {
		t.Fatal(err)
	}
	defer looped.Close()

	for _, s := range batched.shards {
		if s.batch == nil {
			t.Fatal("p4lru3 shard cache does not expose policy.BatchUpdater")
		}
	}

	sub := batched.NewSubmitter()
	for i := 0; i < 20000; i++ {
		k := uint64(i*2654435761) % 4096
		sub.Submit(Op{Key: k, Value: uint64(i)})
		looped.Apply(Op{Key: k, Value: uint64(i)})
	}
	sub.Flush()
	batched.Flush()

	if batched.Len() != looped.Len() {
		t.Fatalf("occupancy diverged: batched %d looped %d", batched.Len(), looped.Len())
	}
	looped.Range(func(k, v uint64) bool {
		got, _, ok := batched.Query(k)
		if !ok || got != v {
			t.Fatalf("key %d: batched engine has (%d,%v), want (%d,true)", k, got, ok, v)
		}
		return true
	})
}

// TestApplyBatchZeroAlloc pins 0 allocs for the batch-apply paths over the
// flat core: the shard writer's loop (the engine's steady-state write path)
// and the public ApplyBatch on a multi-shard engine, which the switch's
// reply path calls once per batch and which gathers per-shard buffers.
func TestApplyBatchZeroAlloc(t *testing.T) {
	newEngine := func(t *testing.T, shards int) *Engine {
		e, err := NewFromSpec(
			policy.Spec{Kind: policy.KindP4LRU3, MemBytes: 256 * 1024, Seed: 1},
			Config{Shards: shards, Block: true},
		)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(e.Close)
		return e
	}
	batch := make([]Op, 64)
	for i := range batch {
		batch[i] = Op{Key: uint64(i * 2654435761), Value: uint64(i)}
	}
	cases := []struct {
		name   string
		shards int
		apply  func(e *Engine, ops []Op)
	}{
		{"writer", 1, func(e *Engine, ops []Op) { e.applyBatch(e.shards[0], ops) }},
		{"ApplyBatch", 2, (*Engine).ApplyBatch},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.shards > 1 && raceEnabled {
				t.Skip("gather buffers come from a sync.Pool")
			}
			e := newEngine(t, tc.shards)
			for _, n := range []int{1, 8, 64} {
				tc.apply(e, batch[:n]) // grow the cache-side scratch once
				if allocs := testing.AllocsPerRun(200, func() {
					tc.apply(e, batch[:n])
				}); allocs != 0 {
					t.Errorf("%d shards, %d ops: %v allocs/batch over the flat core, want 0",
						tc.shards, n, allocs)
				}
			}
		})
	}
}
