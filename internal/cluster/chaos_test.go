package cluster

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"github.com/p4lru/p4lru/internal/netproto"
	"github.com/p4lru/p4lru/internal/resilience"
)

// TestChaosClusterNodeDeath is the cluster tier's acceptance gate, run
// under -race by `make chaos`: four in-process nodes replay a Zipf
// workload; one node is killed mid-replay. The per-peer breaker must trip
// and the failure detector must evict the corpse within the stall window,
// survivors must absorb its hash ranges via replica-sourced snapshot
// migration, the post-recovery hit ratio must land within 5 percentage
// points of the pre-kill steady state, and no update acked by a surviving
// owner may be lost.
func TestChaosClusterNodeDeath(t *testing.T) {
	const (
		nodes    = 4
		keyspace = 4096
	)

	r, peers := newTestCluster(t, nodes, Config{
		Replicas:       3,
		HotK:           256,
		HeartbeatEvery: 15 * time.Millisecond,
		DualReadFor:    5 * time.Second,
		Breaker: resilience.BreakerConfig{
			ConsecutiveFailures: 3,
			OpenFor:             30 * time.Second, // a corpse stays dead for this test
		},
	})

	value := func(k uint64) uint64 { return k ^ 0xabcdef }
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.2, 1, keyspace-1)
	loads := 0
	load := func(k uint64) (uint64, error) { loads++; return value(k), nil }
	replay := func(ops int) (hitRatio float64) {
		before := loads
		for i := 0; i < ops; i++ {
			k := zipf.Uint64() + 1
			v, err := r.GetOrLoad(k, load)
			if err != nil {
				t.Fatalf("GetOrLoad(%d): %v", k, err)
			}
			if v != value(k) {
				t.Fatalf("GetOrLoad(%d) = %d, want %d", k, v, value(k))
			}
		}
		return 1 - float64(loads-before)/float64(ops)
	}

	// Warm up, then measure the steady state.
	replay(30000)
	preHit := replay(20000)
	if preHit < 0.5 {
		t.Fatalf("pre-kill hit ratio %.1f%% — workload not cacheable enough to measure recovery", preHit*100)
	}

	// Ack an update for every key; remember which ones a survivor owns.
	victim := r.Ring().Owner(zipf.Uint64() + 1) // any member; pick the hottest key's owner
	acked := map[uint64]uint64{}
	for k := uint64(1); k <= keyspace; k++ {
		if r.Ring().Owner(k) == victim {
			continue // the victim's ranges are cache loss by design
		}
		if err := r.Update(k, value(k)); err == nil {
			acked[k] = value(k)
		}
	}
	if len(acked) == 0 {
		t.Fatal("no acked updates on surviving ranges")
	}

	// Kill. The breaker and failure detector must evict the node within
	// the stall window while the replay keeps running.
	peers[victim].Kill()
	killedAt := time.Now()
	const stallWindow = 5 * time.Second
	for len(r.Members()) == nodes {
		if time.Since(killedAt) > stallWindow {
			t.Fatalf("victim %q not auto-failed within %v", victim, stallWindow)
		}
		replay(200)
	}
	t.Logf("victim %q evicted after %v; members now %v", victim, time.Since(killedAt), r.Members())
	if containsStr(r.Members(), victim) {
		t.Fatalf("victim %q still a member", victim)
	}

	// Survivors must have absorbed the victim's ranges via migration.
	st := r.state.Load()
	if got := st.ring.Size(); got != nodes-1 {
		t.Fatalf("%d members after failover, want %d", got, nodes-1)
	}

	// Recovery replay, then the post-kill steady state.
	replay(30000)
	postHit := replay(20000)
	t.Logf("hit ratio: pre-kill %.2f%%, post-recovery %.2f%%", preHit*100, postHit*100)
	if postHit < preHit-0.05 {
		t.Fatalf("post-recovery hit ratio %.2f%% is more than 5 points below pre-kill %.2f%%",
			postHit*100, preHit*100)
	}

	// Zero lost acknowledged updates on surviving ranges.
	lost := 0
	for k, v := range acked {
		got, ok, err := r.Query(k)
		if err != nil || !ok || got != v {
			lost++
			if lost <= 5 {
				t.Errorf("acked update %d lost: got (%d, %v, %v), want (%d, true, nil)", k, got, ok, err, v)
			}
		}
	}
	if lost > 0 {
		t.Fatalf("%d of %d acknowledged updates on surviving ranges lost", lost, len(acked))
	}
}

// TestChaosGossipNodeDeath is the self-healing acceptance gate: a
// gossip-enabled 3-node ring (R=2) loses one node mid-replay and must
// converge WITHOUT any explicit Fail call — breaker trip files the suspect
// accusation, the suspicion window hardens it to dead, and reconcile evicts
// the corpse with replica re-streaming. The post-recovery hit ratio must
// land within 2 percentage points of the pre-kill steady state and no
// update acked by a surviving owner may be lost.
func TestChaosGossipNodeDeath(t *testing.T) {
	const (
		nodes    = 3
		keyspace = 4096
	)

	r, peers := newTestCluster(t, nodes, Config{
		Replicas:       2,
		HotK:           256,
		HeartbeatEvery: 15 * time.Millisecond,
		SuspectAfter:   60 * time.Millisecond,
		DualReadFor:    5 * time.Second,
		Breaker: resilience.BreakerConfig{
			ConsecutiveFailures: 3,
			OpenFor:             30 * time.Second, // the corpse stays dead
		},
	})

	value := func(k uint64) uint64 { return k ^ 0xabcdef }
	rng := rand.New(rand.NewSource(2))
	zipf := rand.NewZipf(rng, 1.2, 1, keyspace-1)
	loads := 0
	load := func(k uint64) (uint64, error) { loads++; return value(k), nil }
	replay := func(ops int) (hitRatio float64) {
		before := loads
		for i := 0; i < ops; i++ {
			k := zipf.Uint64() + 1
			v, err := r.GetOrLoad(k, load)
			if err != nil {
				t.Fatalf("GetOrLoad(%d): %v", k, err)
			}
			if v != value(k) {
				t.Fatalf("GetOrLoad(%d) = %d, want %d", k, v, value(k))
			}
		}
		return 1 - float64(loads-before)/float64(ops)
	}

	replay(30000)
	preHit := replay(20000)
	if preHit < 0.5 {
		t.Fatalf("pre-kill hit ratio %.1f%% — workload not cacheable enough to measure recovery", preHit*100)
	}

	victim := r.Ring().Owner(zipf.Uint64() + 1)
	acked := map[uint64]uint64{}
	for k := uint64(1); k <= keyspace; k++ {
		if r.Ring().Owner(k) == victim {
			continue // the victim's ranges are cache loss by design
		}
		if err := r.Update(k, value(k)); err == nil {
			acked[k] = value(k)
		}
	}
	if len(acked) == 0 {
		t.Fatal("no acked updates on surviving ranges")
	}

	// Kill — and call NOTHING. The heartbeat pings must trip the breaker,
	// the trip must file a suspect verdict, the suspicion window must
	// harden it to dead, and reconcile must evict the corpse.
	peers[victim].Kill()
	killedAt := time.Now()
	const stallWindow = 5 * time.Second
	for len(r.Members()) == nodes {
		if time.Since(killedAt) > stallWindow {
			t.Fatalf("victim %q not gossip-evicted within %v", victim, stallWindow)
		}
		replay(200)
	}
	t.Logf("victim %q evicted after %v via gossip; members now %v",
		victim, time.Since(killedAt), r.Members())
	if containsStr(r.Members(), victim) {
		t.Fatalf("victim %q still a member", victim)
	}
	if s, ok := r.Membership().Status(victim); !ok || s != netproto.MemberDead {
		t.Fatalf("membership verdict for victim = (%d, %v), want dead", s, ok)
	}

	replay(30000)
	postHit := replay(20000)
	t.Logf("hit ratio: pre-kill %.2f%%, post-recovery %.2f%%", preHit*100, postHit*100)
	if postHit < preHit-0.02 {
		t.Fatalf("post-recovery hit ratio %.2f%% is more than 2 points below pre-kill %.2f%%",
			postHit*100, preHit*100)
	}

	lost := 0
	for k, v := range acked {
		got, ok, err := r.Query(k)
		if err != nil || !ok || got != v {
			lost++
			if lost <= 5 {
				t.Errorf("acked update %d lost: got (%d, %v, %v), want (%d, true, nil)", k, got, ok, err, v)
			}
		}
	}
	if lost > 0 {
		t.Fatalf("%d of %d acknowledged updates on surviving ranges lost", lost, len(acked))
	}
}

// TestChaosPartitionHealHintReplay: a link cut (partition, not death) parks
// writes as hints behind the open breaker; the suspicion window is generous
// enough that the heal wins the race, the breaker re-closes on a half-open
// probe, the suspect verdict is refuted, and the parked writes replay into
// the partitioned node — which never leaves the ring.
func TestChaosPartitionHealHintReplay(t *testing.T) {
	const warm = 2000
	r, peers := newTestCluster(t, 3, Config{
		HeartbeatEvery: 15 * time.Millisecond,
		SuspectAfter:   5 * time.Second, // the heal must beat the confirm
		Breaker: resilience.BreakerConfig{
			ConsecutiveFailures: 1,
			OpenFor:             100 * time.Millisecond,
			HalfOpenProbes:      1,
		},
	})

	// Warm every node and record the acked pre-cut writes.
	acked := map[uint64]uint64{}
	for k := uint64(1); k <= warm; k++ {
		if err := r.Update(k, k*7); err == nil {
			acked[k] = k * 7
		}
	}
	if len(acked) != warm {
		t.Fatalf("only %d/%d warm writes acked", len(acked), warm)
	}

	const victim = "node-1"
	peers[victim].CutLink()
	waitFor(t, 2*time.Second, "the cut to be suspected", func() bool {
		s, ok := r.Membership().Status(victim)
		return ok && s == netproto.MemberSuspect
	})

	// Writes to the dark node's arcs are hinted, not lost. Use keys beyond
	// the warm range: hint replay is keep-existing (a resident post-recovery
	// value must win over a stale hint), so only non-resident keys make the
	// replay observable directly.
	hinted := map[uint64]uint64{}
	for k := uint64(warm + 1); k <= warm+50000 && len(hinted) < 32; k++ {
		if r.Ring().Owner(k) != victim {
			continue
		}
		switch err := r.Update(k, k*13); {
		case errors.Is(err, ErrHinted):
			hinted[k] = k * 13
		case err == nil:
			t.Fatalf("Update(%d) to cut node acked cleanly", k)
		}
	}
	if len(hinted) == 0 {
		t.Fatal("no writes were hinted during the partition")
	}
	if containsStr(r.Members(), victim) == false {
		t.Fatalf("victim evicted during partition; SuspectAfter did not hold")
	}

	// Heal. The next half-open heartbeat probe re-proves the node: breaker
	// closes, the suspect verdict is refuted, and the hints drain.
	peers[victim].HealLink()
	waitFor(t, 3*time.Second, "hint replay into the healed node", func() bool {
		if r.hints.pendingFor(victim) != 0 {
			return false
		}
		for k, v := range hinted {
			if got, _, ok := peers[victim].eng.Query(k); !ok || got != v {
				return false
			}
		}
		return true
	})
	waitFor(t, 2*time.Second, "the suspect verdict to be refuted", func() bool {
		s, ok := r.Membership().Status(victim)
		return ok && s == netproto.MemberAlive
	})
	if !containsStr(r.Members(), victim) {
		t.Fatalf("victim missing from ring after heal: %v", r.Members())
	}

	// Zero acked-before-cut writes lost anywhere in the cluster.
	for k, v := range acked {
		if got, ok, err := r.Query(k); err != nil || !ok || got != v {
			t.Fatalf("pre-cut write %d lost across partition+heal: (%d, %v, %v)", k, got, ok, err)
		}
	}
}

// TestChaosKilledNodeRejoins: after a failover, the same node id can Join
// again and is warmed by migration like any newcomer.
func TestChaosKilledNodeRejoins(t *testing.T) {
	r, peers := newTestCluster(t, 3, Config{Replicas: 2, HotK: 64})
	for k := uint64(1); k <= 2000; k++ {
		if err := r.Update(k, k*3); err != nil {
			t.Fatal(err)
		}
	}
	peers["node-1"].Kill()
	if err := r.Fail("node-1"); err != nil {
		t.Fatalf("Fail: %v", err)
	}
	reborn := NewLocalPeer(newTestEngine(t), testSeed)
	peers["node-1"] = reborn
	if err := r.Join("node-1", reborn); err != nil {
		t.Fatalf("re-Join: %v", err)
	}
	if got := len(r.Members()); got != 3 {
		t.Fatalf("%d members after rejoin, want 3", got)
	}
	misses := 0
	for k := uint64(1); k <= 2000; k++ {
		if v, ok, err := r.Query(k); err != nil {
			t.Fatalf("Query(%d): %v", k, err)
		} else if !ok || v != k*3 {
			misses++ // keys that lived only on the corpse are cache loss, not errors
		}
	}
	if frac := float64(misses) / 2000; frac > 0.60 {
		t.Fatalf("%.0f%% of keys lost across fail+rejoin — migration did not warm the reborn node", frac*100)
	}
}
