package engine

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/p4lru/p4lru/internal/obs"
	"github.com/p4lru/p4lru/internal/policy"
	"github.com/p4lru/p4lru/internal/resilience"
)

// panicCache wraps a policy.Cache and panics on Update of one poisoned key.
// The wrapper hides the batch-updater capabilities, so the engine applies
// its batches through the per-op loop — the injection point.
type panicCache struct {
	policy.Cache
	poison uint64
}

func (p *panicCache) Update(k, v uint64, tok policy.Token, now time.Duration) policy.Result {
	if k == p.poison {
		panic("injected writer panic")
	}
	return p.Cache.Update(k, v, tok, now)
}

func TestWriterPanicRecovery(t *testing.T) {
	const poison = uint64(0xdead)
	reg := obs.NewRegistry()
	e, err := New(Config{
		Shards: 2, BatchSize: 4, Block: true, Obs: reg,
		NewCache: func(i int) policy.Cache {
			return &panicCache{Cache: policy.NewP4LRU(3, 64, uint64(i+1), nil), poison: poison}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	// Interleave healthy ops with poisoned ones; every poisoned batch is
	// recovered and the writer keeps going.
	const healthy = 500
	sub := e.NewSubmitter()
	for i := 0; i < healthy; i++ {
		sub.Submit(Op{Key: uint64(i + 1), Value: uint64(i)})
		if i%50 == 0 {
			sub.Submit(Op{Key: poison})
		}
	}
	sub.Flush()
	e.Flush() // must not hang: failed ops count toward the flush target

	var submitted, applied, dropped, failed, panics uint64
	for _, st := range e.Stats() {
		submitted += st.Submitted
		applied += st.Applied
		dropped += st.Dropped
		failed += st.Failed
		panics += st.Panics
	}
	if panics == 0 {
		t.Fatal("no writer panics recovered — injection did not fire")
	}
	if submitted != applied+failed {
		t.Fatalf("accounting: submitted=%d applied=%d failed=%d", submitted, applied, failed)
	}
	if failed > dropped {
		t.Fatalf("failed (%d) must be a subset of dropped (%d)", failed, dropped)
	}
	if got := reg.SumCounters("engine_writer_panics_total"); got != panics {
		t.Fatalf("obs panics counter = %d, Stats say %d", got, panics)
	}

	// The engine still serves: healthy keys are queryable, new submits land.
	if !e.Submit(Op{Key: 999999, Value: 42}) {
		t.Fatal("Submit rejected after recovered panics")
	}
	e.Flush()
	if v, _, ok := e.Query(999999); !ok || v != 42 {
		t.Fatalf("Query(999999) = %d,%v after recovery", v, ok)
	}
}

// blockingCache blocks Update until released — the watchdog's adversary.
type blockingCache struct {
	policy.Cache
	gate <-chan struct{}
	once sync.Once
}

func (b *blockingCache) Update(k, v uint64, tok policy.Token, now time.Duration) policy.Result {
	b.once.Do(func() { <-b.gate })
	return b.Cache.Update(k, v, tok, now)
}

func TestWatchdogFlagsAndClearsStall(t *testing.T) {
	gate := make(chan struct{})
	reg := obs.NewRegistry()
	e, err := New(Config{
		Shards: 1, StallWindow: 40 * time.Millisecond, Obs: reg,
		NewCache: func(int) policy.Cache {
			return &blockingCache{Cache: policy.NewP4LRU(3, 64, 1, nil), gate: gate}
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	if err := e.Healthy(); err != nil {
		t.Fatalf("fresh engine Healthy = %v", err)
	}
	for i := 0; i < 8; i++ {
		e.Submit(Op{Key: uint64(i + 1)})
	}
	deadline := time.Now().Add(2 * time.Second)
	for e.Healthy() == nil {
		if time.Now().After(deadline) {
			t.Fatal("watchdog never flagged the blocked shard")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := e.Healthy(); err == nil {
		t.Fatal("expected a stall error")
	}

	// Release the writer: the stall flag clears on its own.
	close(gate)
	for e.Healthy() != nil {
		if time.Now().After(deadline) {
			t.Fatal("watchdog never cleared the recovered shard")
		}
		time.Sleep(5 * time.Millisecond)
	}
	e.Close()
	if st := e.Stats()[0]; st.Stalled {
		t.Fatal("Stats still reports the shard stalled after recovery")
	}
}

func TestDrainStopsIntakeAndFlushes(t *testing.T) {
	e, err := NewFromSpec(policy.Spec{Kind: policy.KindP4LRU3, MemBytes: 64 << 10, Seed: 7},
		Config{Shards: 4, Block: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	sub := e.NewSubmitter()
	const n = 10_000
	for i := 0; i < n; i++ {
		sub.Submit(Op{Key: uint64(i + 1), Value: uint64(i)})
	}
	sub.Flush()

	if err := e.Drain(context.Background()); err != nil {
		t.Fatalf("Drain = %v", err)
	}
	var submitted, applied uint64
	for _, st := range e.Stats() {
		submitted += st.Submitted
		applied += st.Applied
		if st.QueueLen != 0 {
			t.Fatalf("queue not empty after Drain: %d batches", st.QueueLen)
		}
	}
	if submitted != applied {
		t.Fatalf("Drain returned with submitted=%d applied=%d", submitted, applied)
	}

	// Intake is stopped; the read path keeps serving.
	if e.Submit(Op{Key: 1, Value: 1}) {
		t.Fatal("Submit accepted after Drain")
	}
	found := 0
	e.Range(func(k, v uint64) bool { found++; return true })
	if found == 0 || found != e.Len() {
		t.Fatalf("post-drain Range found %d entries, Len=%d", found, e.Len())
	}
}

func TestDrainHonoursContext(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	e, err := New(Config{
		Shards: 1, StallWindow: -1,
		NewCache: func(int) policy.Cache {
			return &blockingCache{Cache: policy.NewP4LRU(3, 64, 1, nil), gate: gate}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Submit(Op{Key: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := e.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain against a blocked writer = %v, want DeadlineExceeded", err)
	}
}

func TestShedderGatesSubmit(t *testing.T) {
	sh := resilience.NewShedder(resilience.ShedderConfig{TargetLatency: time.Millisecond, Alpha: 1})
	e, err := NewFromSpec(policy.Spec{Kind: policy.KindP4LRU3, MemBytes: 16 << 10, Seed: 3},
		Config{Shards: 2, Shedder: sh})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	if !e.Submit(Op{Key: 1, Value: 1}) {
		t.Fatal("idle shedder rejected a submit")
	}
	// Saturate the latency EWMA: pressure 1, everything sheds.
	sh.Observe(10 * time.Millisecond)
	if e.Submit(Op{Key: 2, Value: 2}) {
		t.Fatal("saturated shedder admitted a normal-priority submit")
	}
	if e.SubmitPriority(Op{Key: 3, Value: 3}, resilience.PriHigh) {
		t.Fatal("saturated shedder admitted even high-priority work")
	}
	st := sh.Stats()
	if st.Shed[resilience.PriNormal] != 1 || st.Shed[resilience.PriHigh] != 1 {
		t.Fatalf("per-priority shed accounting = %+v", st.Shed)
	}
	if e.Dropped() != 2 {
		t.Fatalf("engine drop accounting = %d, want 2", e.Dropped())
	}
	// Recovery: pressure falls, admission resumes.
	sh.Observe(0)
	e.Flush()
	if !e.Submit(Op{Key: 4, Value: 4}) {
		t.Fatal("recovered shedder still rejecting")
	}
	e.Flush()
	if submitted, applied := e.Stats()[0].Submitted+e.Stats()[1].Submitted,
		e.Stats()[0].Applied+e.Stats()[1].Applied; submitted != applied {
		t.Fatalf("accounting after shedding: submitted=%d applied=%d", submitted, applied)
	}
}

func TestSnapshotRejectsGarbage(t *testing.T) {
	e, err := NewFromSpec(policy.Spec{Kind: policy.KindP4LRU3, MemBytes: 16 << 10, Seed: 3},
		Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.RestoreSnapshot(bytes.NewReader([]byte("not a snapshot at all"))); err == nil {
		t.Fatal("RestoreSnapshot accepted garbage")
	}
	var buf bytes.Buffer
	if err := e.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	// Truncate mid-stream: must error, not hang or succeed.
	trunc := buf.Bytes()[:buf.Len()-10]
	if _, err := e.RestoreSnapshot(bytes.NewReader(trunc)); err == nil {
		t.Fatal("RestoreSnapshot accepted a truncated image")
	}
}

// TestApplyPanicReleasesShardLock: a policy panic inside Apply that the
// caller recovers must not strand the shard mutator lock. The next Apply on
// the same shard completes, and so does Close.
func TestApplyPanicReleasesShardLock(t *testing.T) {
	const poison = uint64(0xdead)
	e, err := New(Config{
		Shards: 1, Block: true,
		NewCache: func(int) policy.Cache {
			return &panicCache{Cache: policy.NewP4LRU(3, 64, 1, nil), poison: poison}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Apply of the poisoned key did not panic")
			}
		}()
		e.Apply(Op{Key: poison})
	}()
	done := make(chan struct{})
	go func() {
		defer close(done)
		e.Apply(Op{Key: 7, Value: 70})
		e.Close()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Apply after a recovered panic is still blocked: the shard lock was stranded")
	}
	if v, _, ok := e.Query(7); !ok || v != 70 {
		t.Fatalf("Query(7) = (%d, %v), want (70, true)", v, ok)
	}
}
