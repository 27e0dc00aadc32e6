package cluster

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/p4lru/p4lru/internal/obs"
)

// pausedPull is a LocalPeer whose next OpenPull, once armed, reads the
// whole snapshot, closes pulled and waits for unpause before it hands the
// image over: a migration stream that has read its source and not yet
// restored it.
type pausedPull struct {
	*LocalPeer
	armed           atomic.Bool
	pulled, release chan struct{}
	once            sync.Once
}

// newPausedPull builds the peer; a test that fails while the pull waits
// unpauses it at cleanup, before the router it joined closes.
func newPausedPull(t *testing.T) *pausedPull {
	p := &pausedPull{
		LocalPeer: NewLocalPeer(newTestEngine(t), testSeed),
		pulled:    make(chan struct{}),
		release:   make(chan struct{}),
	}
	t.Cleanup(p.unpause)
	return p
}

func (p *pausedPull) unpause() { p.once.Do(func() { close(p.release) }) }

func (p *pausedPull) OpenPull(arcs [][2]uint64) (io.ReadCloser, error) {
	rc, err := p.LocalPeer.OpenPull(arcs)
	if err != nil || !p.armed.CompareAndSwap(true, false) {
		return rc, err
	}
	img, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		return nil, err
	}
	close(p.pulled)
	<-p.release
	return io.NopCloser(bytes.NewReader(img)), nil
}

// raceJoin builds the join race: node-0, a pausedPull, holds keys 1–2,000
// at value 1, and node-1 joins while op runs between node-0's snapshot and
// the joiner's restore. op returns once node-0 has applied its write; the
// rest of it may finish later. raceJoin returns once Join and op have, with
// the router, node-0, the joiner and a key 1–2,000 that moved to node-1.
func raceJoin(t *testing.T, op func(r *Router, src *pausedPull, k uint64)) (*Router, *pausedPull, *LocalPeer, uint64) {
	t.Helper()
	r := New(Config{Seed: testSeed, HeartbeatEvery: -1})
	t.Cleanup(r.Close)
	src := newPausedPull(t)
	if err := r.Join("node-0", src); err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 2000; k++ {
		if err := r.Update(k, 1); err != nil {
			t.Fatal(err)
		}
	}
	next := NewRing(testSeed, r.cfg.VNodes, []string{"node-0", "node-1"})
	var k uint64
	for k = 1; next.Owner(k) != "node-1"; k++ {
	}
	joiner := NewLocalPeer(newTestEngine(t), testSeed)
	src.armed.Store(true)
	joined := make(chan error, 1)
	go func() { joined <- r.Join("node-1", joiner) }()
	select {
	case <-src.pulled:
	case <-time.After(5 * time.Second):
		t.Fatal("the join never pulled from node-0")
	}
	op(r, src, k)
	src.unpause()
	if err := <-joined; err != nil {
		t.Fatal(err)
	}
	return r, src, joiner, k
}

// applied waits until node-0's engine holds k → v: the old owner acked.
func applied(t *testing.T, src *pausedPull, k, v uint64) {
	t.Helper()
	waitFor(t, 5*time.Second, "the old owner to apply the write", func() bool {
		got, _, ok := src.Engine().Query(k)
		return ok && got == v
	})
}

// TestJoinKeepsWriteAckedDuringStream: a write to a moving key that the
// old owner acks after its snapshot was read is not lost when the joiner
// takes the key over.
func TestJoinKeepsWriteAckedDuringStream(t *testing.T) {
	done := make(chan error, 1)
	r, _, _, k := raceJoin(t, func(r *Router, src *pausedPull, k uint64) {
		go func() { done <- r.Update(k, 2) }()
		applied(t, src, k, 2)
	})
	if err := <-done; err != nil {
		t.Fatalf("Update during the join = %v, want an ack", err)
	}
	if v, ok, err := r.Query(k); err != nil || !ok || v != 2 {
		t.Fatalf("Query(k) after the join = (%d, %v, %v), want (2, true, nil)", v, ok, err)
	}
}

// TestJoinKeepsRacingInstall: GetOrLoad's install of a moving key that the
// old owner takes after its snapshot was read reaches the joiner too.
func TestJoinKeepsRacingInstall(t *testing.T) {
	const fresh = 1 << 40
	var k uint64
	done := make(chan error, 1)
	_, _, joiner, _ := raceJoin(t, func(r *Router, src *pausedPull, _ uint64) {
		next := NewRing(testSeed, r.cfg.VNodes, []string{"node-0", "node-1"})
		for k = fresh; next.Owner(k) != "node-1"; k++ {
		}
		go func() {
			_, err := r.GetOrLoad(k, func(uint64) (uint64, error) { return 7, nil })
			done <- err
		}()
		applied(t, src, k, 7)
	})
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if v, _, ok := joiner.Engine().Query(k); !ok || v != 7 {
		t.Fatalf("the joiner holds (%d, %v) after the join, want the install (7, true)", v, ok)
	}
}

// gatedUpdate is a LocalPeer whose next Update, once armed, closes entered
// and waits for release before it applies: a write that loaded the ring
// state and has not reached its node yet.
type gatedUpdate struct {
	*LocalPeer
	armed            atomic.Bool
	entered, release chan struct{}
}

func (p *gatedUpdate) Update(key, val uint64) error {
	if p.armed.CompareAndSwap(true, false) {
		close(p.entered)
		<-p.release
	}
	return p.LocalPeer.Update(key, val)
}

// TestJoinKeepsWriteThatLoadedTheOldRing: a write that loaded the ring
// before a join published its moves, and reaches the old owner after the
// join has streamed and swapped, still reads back once acked.
func TestJoinKeepsWriteThatLoadedTheOldRing(t *testing.T) {
	r := New(Config{Seed: testSeed, HeartbeatEvery: -1})
	t.Cleanup(r.Close)
	src := &gatedUpdate{
		LocalPeer: NewLocalPeer(newTestEngine(t), testSeed),
		entered:   make(chan struct{}),
		release:   make(chan struct{}),
	}
	if err := r.Join("node-0", src); err != nil {
		t.Fatal(err)
	}
	next := NewRing(testSeed, r.cfg.VNodes, []string{"node-0", "node-1"})
	var k uint64
	for k = 1; next.Owner(k) != "node-1"; k++ {
	}
	if err := r.Update(k, 1); err != nil {
		t.Fatal(err)
	}
	src.armed.Store(true)
	done := make(chan error, 1)
	go func() { done <- r.Update(k, 2) }()
	<-src.entered
	if err := r.Join("node-1", NewLocalPeer(newTestEngine(t), testSeed)); err != nil {
		t.Fatal(err)
	}
	close(src.release)
	if err := <-done; err != nil {
		t.Fatalf("Update racing the join = %v, want an ack", err)
	}
	if v, ok, err := r.Query(k); err != nil || !ok || v != 2 {
		t.Fatalf("Query(k) after the join = (%d, %v, %v), want (2, true, nil)", v, ok, err)
	}
}

// TestLeaveKeepsWriteThatRacedTheSwap: a write that loaded the ring before
// a Leave's swap and reaches the departing owner after its stream was read
// still reads back once acked.
func TestLeaveKeepsWriteThatRacedTheSwap(t *testing.T) {
	r := New(Config{Seed: testSeed, HeartbeatEvery: -1})
	t.Cleanup(r.Close)
	leaving := &gatedUpdate{
		LocalPeer: NewLocalPeer(newTestEngine(t), testSeed),
		entered:   make(chan struct{}),
		release:   make(chan struct{}),
	}
	for i, p := range []Peer{NewLocalPeer(newTestEngine(t), testSeed), NewLocalPeer(newTestEngine(t), testSeed), leaving} {
		if err := r.Join(fmt.Sprintf("node-%d", i), p); err != nil {
			t.Fatal(err)
		}
	}
	k := keyOwnedBy(t, r, "node-2", 1)
	if err := r.Update(k, 1); err != nil {
		t.Fatal(err)
	}
	leaving.armed.Store(true)
	done := make(chan error, 1)
	go func() { done <- r.Update(k, 2) }()
	<-leaving.entered
	if err := r.Leave("node-2"); err != nil {
		t.Fatal(err)
	}
	close(leaving.release)
	if err := <-done; err != nil {
		t.Fatalf("Update racing the leave = %v, want an ack", err)
	}
	if v, ok, err := r.Query(k); err != nil || !ok || v != 2 {
		t.Fatalf("Query(k) after the leave = (%d, %v, %v), want (2, true, nil)", v, ok, err)
	}
}

// TestRejoinReplacesStaleValue: a node that leaves and joins again still
// holds the value a key had when it left; the key was written while it was
// away, and after the join a read returns the newer value.
func TestRejoinReplacesStaleValue(t *testing.T) {
	r, peers := newTestCluster(t, 2, Config{})
	k := keyOwnedBy(t, r, "node-1", 1)
	if err := r.Update(k, 1); err != nil {
		t.Fatal(err)
	}
	if err := r.Leave("node-1"); err != nil {
		t.Fatal(err)
	}
	if err := r.Update(k, 2); err != nil {
		t.Fatal(err)
	}
	if v, _, ok := peers["node-1"].Engine().Query(k); !ok || v != 1 {
		t.Fatalf("node-1 holds (%d, %v) while away, want its old value (1, true)", v, ok)
	}
	if err := r.Join("node-1", peers["node-1"]); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := r.Query(k); err != nil || !ok || v != 2 {
		t.Fatalf("Query(k) after the rejoin = (%d, %v, %v), want (2, true, nil)", v, ok, err)
	}
}

// TestWarmUpMakesNoDualReads runs the cluster benchmark's set-up — three
// joins, then 200,000 Zipf operations, 5% of them updates — and counts the
// dual reads: joins open no windows, so there are none.
func TestWarmUpMakesNoDualReads(t *testing.T) {
	reg := obs.NewRegistry()
	r := New(Config{Seed: 0xc1a5, VNodes: 64, Replicas: 2, HotK: 4, Obs: reg})
	t.Cleanup(r.Close)
	for i := 0; i < 3; i++ {
		if err := r.Join(fmt.Sprintf("node-%d", i), NewLocalPeer(newSeriesEngine(t), 0xc1a5)); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.01, 1, 999_999)
	load := func(k uint64) (uint64, error) { return k, nil }
	for i := 0; i < 200_000; i++ {
		k := zipf.Uint64() + 1
		if rng.Float64() < 0.05 {
			if err := r.Update(k, k); err != nil {
				t.Fatal(err)
			}
		} else if _, err := r.GetOrLoad(k, load); err != nil {
			t.Fatal(err)
		}
	}
	if n := reg.CounterValue("cluster_migrations_total"); n == 0 {
		t.Fatal("the joins streamed nothing")
	}
	if n := reg.CounterValue("cluster_dual_reads_total"); n != 0 {
		t.Fatalf("the warm-up made %d dual reads, want 0", n)
	}
}
