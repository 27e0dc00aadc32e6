package cluster

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/p4lru/p4lru/internal/engine"
	"github.com/p4lru/p4lru/internal/policy"
)

// BenchmarkHotTouch prices the hot-key tracker's per-op touch over a Zipf
// key stream, at K = 4 (the cluster benchmark's HotK) and 128 (the
// default), from one goroutine and from two sharing one tracker. ns/op is
// wall time per touch across all goroutines, publishes included.
func BenchmarkHotTouch(b *testing.B) {
	z := rand.NewZipf(rand.New(rand.NewSource(1)), 1.1, 1, 1<<20)
	keys := make([]uint64, 1<<16)
	for i := range keys {
		keys[i] = z.Uint64() + 1
	}
	for _, k := range []int{4, 128} {
		for _, g := range []int{1, 2} {
			b.Run(fmt.Sprintf("k=%d/goroutines=%d", k, g), func(b *testing.B) {
				h := newHotKeys(k, testSeed)
				b.ReportAllocs()
				b.ResetTimer()
				var wg sync.WaitGroup
				for w := 0; w < g; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for i := w; i < b.N; i += g {
							h.Touch(keys[i&(len(keys)-1)])
						}
					}(w)
				}
				wg.Wait()
			})
		}
	}
}

// BenchmarkClusterRouter prices the router's veneer over a single engine:
// path=single queries the engine directly, path=local routes the same hits
// through a one-node router (ring lookup, hot-key touch, breaker liveness
// check, LocalPeer hop). The bench gate holds the local-owner overhead to
// ≤1.3× the bare engine.
//
// path=cold-engine and path=cold-router price the miss and write path the
// same way: a bare engine's Query miss plus Apply of a fresh key, against
// GetOrLoad of a fresh key through a replicated three-node router — the
// cluster benchmark's warm-up — that a fourth node has left, whose
// dual-read windows stay open.
func BenchmarkClusterRouter(b *testing.B) {
	const keys = 4096
	newFilled := func(b *testing.B) *engine.Engine {
		b.Helper()
		e, err := engine.NewFromSpec(
			policy.Spec{Kind: policy.KindP4LRU3, MemBytes: 1 << 20, Seed: 9},
			engine.Config{Shards: 4, Block: true},
		)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(e.Close)
		for k := uint64(1); k <= keys; k++ {
			e.Apply(engine.Op{Key: k, Value: k})
		}
		return e
	}
	// Bench over keys that are actually resident so both paths measure the
	// hit path, not miss handling.
	resident := func(e *engine.Engine) []uint64 {
		var out []uint64
		e.Range(func(k, v uint64) bool {
			out = append(out, k)
			return true
		})
		if len(out) == 0 {
			b.Fatal("no resident keys")
		}
		return out
	}

	b.Run("path=single", func(b *testing.B) {
		e := newFilled(b)
		res := resident(e)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Query(res[i%len(res)])
		}
	})

	b.Run("path=local", func(b *testing.B) {
		e := newFilled(b)
		res := resident(e)
		r := New(Config{Seed: testSeed, HeartbeatEvery: -1})
		defer r.Close()
		if err := r.Join("node-0", NewLocalPeer(e, testSeed)); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Query(res[i%len(res)])
		}
	})

	// path=selfheal is path=local with the self-healing machinery a one-node
	// router can run armed: gossip membership live on the heartbeat plane,
	// the background loop running, the hint log in place. HotK and
	// RepairSweepEvery are set too, but with Replicas at 1 New builds no
	// hot-key tracker and so never sweeps. The gate holds the local-owner
	// fast path to the same ≤1.3× / zero-alloc bar — the robustness
	// machinery must price in at nothing on the hit path.
	b.Run("path=selfheal", func(b *testing.B) {
		e := newFilled(b)
		res := resident(e)
		lp := NewLocalPeer(e, testSeed)
		lp.AttachMembership(NewMembership("node-0", "", ""))
		r := New(Config{
			Seed:             testSeed,
			HotK:             64,
			HeartbeatEvery:   25 * time.Millisecond,
			RepairRate:       128,
			RepairSweepEvery: 50 * time.Millisecond,
		})
		defer r.Close()
		if err := r.Join("node-0", lp); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Query(res[i%len(res)])
		}
	})

	// Fresh keys are spread over the circle by an odd multiplier, so the
	// owner, replica and window arcs vary per op as in a real warm-up.
	fresh := func(i int) uint64 { return uint64(i+1) * 0x9e3779b97f4a7c15 }

	b.Run("path=cold-engine", func(b *testing.B) {
		e := newSeriesEngine(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := fresh(i)
			if _, _, ok := e.Query(k); !ok {
				e.Apply(engine.Op{Key: k, Value: k, Token: policy.NoToken})
			}
		}
	})

	b.Run("path=cold-router", func(b *testing.B) {
		r := New(Config{Seed: testSeed, Replicas: 2, HotK: 4, HeartbeatEvery: -1, DualReadFor: time.Hour})
		defer r.Close()
		for i := 0; i < 4; i++ {
			if err := r.Join(fmt.Sprintf("node-%d", i), NewLocalPeer(newSeriesEngine(b), testSeed)); err != nil {
				b.Fatal(err)
			}
		}
		if err := r.Leave("node-3"); err != nil {
			b.Fatal(err)
		}
		load := func(k uint64) (uint64, error) { return k, nil }
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := r.GetOrLoad(fresh(i), load); err != nil {
				b.Fatal(err)
			}
		}
	})
}
