package cluster

import (
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/p4lru/p4lru/internal/netproto"
	"github.com/p4lru/p4lru/internal/obs"
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
