package cluster

import (
	"errors"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/p4lru/p4lru/internal/engine"
	"github.com/p4lru/p4lru/internal/netproto"
	"github.com/p4lru/p4lru/internal/obs"
	"github.com/p4lru/p4lru/internal/policy"
	"github.com/p4lru/p4lru/internal/resilience"
)

// TestStepExpiresWindowsAtDeadline drives window expiry through step: a
// leave's windows, and the departed member's handle they read from, stay
// published until the windows' deadline and go at it.
func TestStepExpiresWindowsAtDeadline(t *testing.T) {
	r, _ := newTestCluster(t, 3, Config{DualReadFor: time.Hour})
	if err := r.Leave("node-2"); err != nil {
		t.Fatal(err)
	}
	var until time.Time
	for _, w := range r.state.Load().windows {
		if w.source == "node-2" {
			until = w.until
		}
	}
	if until.IsZero() {
		t.Fatal("the leave opened no window reading from node-2")
	}
	published := func() (windows int, handle bool) {
		st := r.state.Load()
		return len(st.windows), st.peers["node-2"] != nil || slices.Contains(st.ids, "node-2")
	}
	r.step(until.Add(-time.Nanosecond))
	if w, h := published(); w == 0 || !h {
		t.Fatalf("a nanosecond before the deadline: %d windows, handle %v; want both kept", w, h)
	}
	r.step(until)
	if w, h := published(); w != 0 || h {
		t.Fatalf("at the deadline: %d windows, handle %v; want both dropped", w, h)
	}
}

// TestStepEscalatesSuspectToDead drives the failure detector through step:
// two hours after a node dies it is suspect and still in the ring, and the
// first beat after SuspectAfter has run out confirms it dead and evicts it.
func TestStepEscalatesSuspectToDead(t *testing.T) {
	r, peers := newTestCluster(t, 3, Config{
		HeartbeatEvery: time.Hour,
		SuspectAfter:   3 * time.Hour,
		Breaker:        resilience.BreakerConfig{ConsecutiveFailures: 1, OpenFor: time.Hour},
	})
	const victim = "node-1"
	t0 := time.Now()
	peers[victim].Kill()
	r.step(t0.Add(2 * time.Hour))
	if s, _ := r.Membership().Status(victim); s != netproto.MemberSuspect || !containsStr(r.Members(), victim) {
		t.Fatalf("two hours after the kill: status %d, members %v; want suspect and still a member", s, r.Members())
	}
	r.step(t0.Add(6 * time.Hour))
	if s, _ := r.Membership().Status(victim); s != netproto.MemberDead || containsStr(r.Members(), victim) {
		t.Fatalf("six hours after the kill: status %d, members %v; want dead and evicted", s, r.Members())
	}
}

// TestHintBehindClosedBreakerReplays: a write parked while the owner's
// breaker stayed closed (one failure, under the trip threshold) reaches the
// owner once its link heals, with no breaker edge to trigger the replay.
func TestHintBehindClosedBreakerReplays(t *testing.T) {
	r, peers := newTestCluster(t, 2, Config{
		HeartbeatEvery: 10 * time.Millisecond,
		Breaker:        resilience.BreakerConfig{ConsecutiveFailures: 3},
	})
	const owner = "node-0"
	k := keyOwnedBy(t, r, owner, 1)
	peers[owner].CutLink()
	err := r.Update(k, 5)
	peers[owner].HealLink()
	if !errors.Is(err, ErrHinted) {
		t.Fatalf("Update over a cut link = %v, want ErrHinted", err)
	}
	if s := r.gate.Peer(owner).State(); s != resilience.Closed {
		t.Fatalf("owner's breaker is %v after one failure, want closed", s)
	}
	waitFor(t, 2*time.Second, "the hint to reach the healed owner", func() bool {
		v, _, ok := peers[owner].Engine().Query(k)
		return ok && v == 5
	})
}

// TestStepRacesHintTraffic: writers park and supersede hints while one
// node's link flaps and the test steps the router beside its own loop.
// Once the link heals for good, every hint drains. Run with -race.
func TestStepRacesHintTraffic(t *testing.T) {
	reg := obs.NewRegistry()
	r, peers := newTestCluster(t, 3, Config{
		Obs:            reg,
		HeartbeatEvery: 5 * time.Millisecond,
		SuspectAfter:   time.Hour, // the flapping node stays a member
		Breaker: resilience.BreakerConfig{
			ConsecutiveFailures: 2,
			OpenFor:             5 * time.Millisecond,
			HalfOpenProbes:      1,
		},
	})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := uint64(1); w <= 2; w++ {
		wg.Add(1)
		go func(w uint64) {
			defer wg.Done()
			for i := uint64(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				_ = r.Update(i%256+1, w)
			}
		}(w)
	}
	var once sync.Once
	halt := func() { once.Do(func() { close(stop); wg.Wait() }) }
	t.Cleanup(halt)
	parked := func() uint64 { return reg.CounterValue("cluster_hints_parked_total") }
	for i := 0; i < 20; i++ {
		peers["node-1"].CutLink()
		before := parked()
		waitFor(t, 2*time.Second, "a write to the cut node to park", func() bool { return parked() > before })
		r.step(time.Now())
		peers["node-1"].HealLink()
		r.step(time.Now())
	}
	halt()
	waitFor(t, 2*time.Second, "the hint log to drain", func() bool { return r.PendingHints() == 0 })
}

// stallPeer is a LocalPeer whose next Push, once armed, signals entered,
// blocks until release is closed and then fails without installing
// anything: a hint replay that is in flight while the test writes, and lost.
type stallPeer struct {
	*LocalPeer
	armed            atomic.Bool
	entered, release chan struct{}
}

func (p *stallPeer) Push(r io.Reader, keepExisting bool) (int, error) {
	if !p.armed.CompareAndSwap(true, false) {
		return p.LocalPeer.Push(r, keepExisting)
	}
	close(p.entered)
	<-p.release
	return 0, ErrPeerDown
}

// stalledReplay builds a two-node router whose node-0 is a stallPeer, parks
// one hint k → 1 for node-0 over a cut link, and starts a step whose replay
// of that hint blocks in the push. It returns the router, node-0, k, and
// fail, which lets the push fail and waits for that step to return.
func stalledReplay(t *testing.T) (r *Router, owner *stallPeer, k uint64, fail func()) {
	t.Helper()
	r = New(Config{
		Seed:           testSeed,
		HeartbeatEvery: -1,
		Breaker:        resilience.BreakerConfig{ConsecutiveFailures: 10},
	})
	t.Cleanup(r.Close)
	owner = &stallPeer{
		LocalPeer: NewLocalPeer(newTestEngine(t), testSeed),
		entered:   make(chan struct{}),
		release:   make(chan struct{}),
	}
	if err := r.Join("node-0", owner); err != nil {
		t.Fatal(err)
	}
	if err := r.Join("node-1", NewLocalPeer(newTestEngine(t), testSeed)); err != nil {
		t.Fatal(err)
	}
	k = keyOwnedBy(t, r, "node-0", 1)
	owner.CutLink()
	if err := r.Update(k, 1); !errors.Is(err, ErrHinted) {
		t.Fatalf("Update over a cut link = %v, want ErrHinted", err)
	}
	owner.HealLink()
	owner.armed.Store(true)
	stepped := make(chan struct{})
	go func() {
		defer close(stepped)
		r.step(time.Now())
	}()
	select {
	case <-owner.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("no step pushed the parked hint")
	}
	var once sync.Once
	fail = func() {
		once.Do(func() {
			close(owner.release)
			<-stepped
		})
	}
	t.Cleanup(fail)
	return r, owner, k, fail
}

// TestFailedReplayKeepsNewerHint: a hint parked for a key while an older
// hint for it is being pushed survives that push's failure, and the next
// replay delivers it.
func TestFailedReplayKeepsNewerHint(t *testing.T) {
	r, owner, k, fail := stalledReplay(t)
	owner.CutLink()
	if err := r.Update(k, 2); !errors.Is(err, ErrHinted) {
		t.Fatalf("second Update over a cut link = %v, want ErrHinted", err)
	}
	owner.HealLink()
	fail()
	r.step(time.Now())
	if v, ok, err := r.Query(k); err != nil || !ok || v != 2 {
		t.Fatalf("Query(k) = (%d, %v, %v), want the newer hint 2", v, ok, err)
	}
	if n := r.PendingHints(); n != 0 {
		t.Fatalf("%d hints pending after the replay, want 0", n)
	}
}

// TestFailedReplayKeepsAckedWrite: a write the owner acks while an older
// hint for its key is being pushed supersedes that hint, so the push's
// failure does not park it again. Otherwise the next replay installs the
// older value keep-existing into an owner that has since evicted the acked
// one, and a hit returns a value older than the last acked write.
func TestFailedReplayKeepsAckedWrite(t *testing.T) {
	r, owner, k, fail := stalledReplay(t)
	if err := r.Update(k, 3); err != nil {
		t.Fatalf("Update over a healed link = %v, want an ack", err)
	}
	for i := uint64(1); i <= 200_000; i++ {
		owner.Engine().Apply(engine.Op{Key: 1<<40 + i, Value: i, Token: policy.NoToken})
	}
	if _, _, ok := owner.Engine().Query(k); ok {
		t.Fatal("k outlived 200,000 other keys; the scenario needs it evicted")
	}
	fail()
	r.step(time.Now())
	if v, ok, err := r.Query(k); err != nil || ok && v != 3 {
		t.Fatalf("Query(k) = (%d, %v, %v); want a miss or the last acked value 3", v, ok, err)
	}
	if n := r.PendingHints(); n != 0 {
		t.Fatalf("%d hints pending after the failed replay, want 0", n)
	}
}
