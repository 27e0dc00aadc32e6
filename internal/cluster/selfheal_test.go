package cluster

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"github.com/p4lru/p4lru/internal/engine"
	"github.com/p4lru/p4lru/internal/netproto"
	"github.com/p4lru/p4lru/internal/obs"
	"github.com/p4lru/p4lru/internal/policy"
	"github.com/p4lru/p4lru/internal/resilience"
)

// keyOwnedBy finds a key the given member owns under r's current ring.
func keyOwnedBy(t *testing.T, r *Router, id string, from uint64) uint64 {
	t.Helper()
	for k := from; k < from+100000; k++ {
		if r.Ring().Owner(k) == id {
			return k
		}
	}
	t.Fatalf("no key owned by %s in 100k probes", id)
	return 0
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %v waiting for %s", d, what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestHintLogParkDedupeEvict(t *testing.T) {
	h := newHintLog(3)
	for i, kv := range [][2]uint64{{1, 10}, {2, 20}, {3, 30}} {
		if h.park("a", kv[0], kv[1]) {
			t.Fatalf("park #%d evicted below capacity", i)
		}
	}
	// Re-parking a known key updates in place — no eviction, no growth.
	if h.park("a", 2, 21) {
		t.Fatal("duplicate key park evicted")
	}
	if got := h.pendingFor("a"); got != 3 {
		t.Fatalf("pendingFor = %d, want 3", got)
	}
	// A fourth distinct key evicts the oldest (key 1).
	if !h.park("a", 4, 40) {
		t.Fatal("park at capacity did not evict")
	}
	got := h.take("a")
	if want := []hint{{2, 21}, {3, 30}, {4, 40}}; !slices.Equal(got, want) {
		t.Fatalf("take = %v, want %v", got, want)
	}
	h.settle("a", true)
	if h.take("a") != nil || h.pending() != 0 {
		t.Fatal("a delivered take did not drain the log")
	}
}

// TestHintLogFailedTakeReparks: a take that fails goes back to the front of
// the peer's FIFO in its original order, minus the keys something newer
// replaced while it was out: a hint parked since, or an acked write.
func TestHintLogFailedTakeReparks(t *testing.T) {
	h := newHintLog(4)
	for k := uint64(1); k <= 3; k++ {
		h.park("a", k, 10*k)
	}
	h.take("a")
	// While the push runs: a newer hint for 2, a new key 4, and an acked
	// write of 3, which supersedes the taken hint.
	h.park("a", 2, 21)
	h.park("a", 4, 40)
	h.supersede(3)
	if got := h.pending(); got != 4 {
		t.Fatalf("pending with a take out = %d, want 4 (taken 1, 2; parked 2, 4)", got)
	}
	if dropped := h.settle("a", false); dropped != 0 {
		t.Fatalf("settle dropped %d under capacity", dropped)
	}
	if got := h.pending(); got != 3 {
		t.Fatalf("pending after the failed take = %d, want 3", got)
	}
	// The log is 1 (re-parked, oldest), 2 and 4. At capacity 4, a fifth
	// and sixth key evict from the front, oldest first.
	h.park("a", 5, 50)
	if !h.park("a", 6, 60) {
		t.Fatal("park at capacity did not evict")
	}
	if got, want := h.take("a"), []hint{{2, 21}, {4, 40}, {5, 50}, {6, 60}}; !slices.Equal(got, want) {
		t.Fatalf("take = %v, want %v", got, want)
	}

	// A re-park that overfills the log drops its oldest hints.
	h = newHintLog(3)
	for k := uint64(1); k <= 3; k++ {
		h.park("a", k, 10*k)
	}
	h.take("a")
	h.park("a", 4, 40)
	h.park("a", 5, 50)
	if dropped := h.settle("a", false); dropped != 2 {
		t.Fatalf("settle dropped %d, want 2", dropped)
	}
	if got, want := h.take("a"), []hint{{3, 30}, {4, 40}, {5, 50}}; !slices.Equal(got, want) || h.pending() != 3 {
		t.Fatalf("take = %v (pending %d), want %v (pending 3)", got, h.pending(), want)
	}
}

func TestPushPairsSynthesizedReplay(t *testing.T) {
	p := NewLocalPeer(newTestEngine(t), testSeed)
	// Pre-install one key: keep-existing replay must not roll it back.
	if err := p.Update(5, 555); err != nil {
		t.Fatal(err)
	}
	n, err := pushPairs(p, []hint{{5, 50}, {6, 60}, {7, 70}})
	if err != nil {
		t.Fatalf("pushPairs: %v", err)
	}
	if n != 2 {
		t.Fatalf("installed %d pairs, want 2 (key 5 already resident)", n)
	}
	if v, _, ok := p.eng.Query(5); !ok || v != 555 {
		t.Fatalf("resident key rolled back to %d by hint replay", v)
	}
	for k, want := range map[uint64]uint64{6: 60, 7: 70} {
		if v, _, ok := p.eng.Query(k); !ok || v != want {
			t.Fatalf("replayed key %d = (%d, %v), want %d", k, v, ok, want)
		}
	}
}

// TestUpdateParksHintAndReplaysOnRecovery: updates to a dead owner return
// ErrHinted instead of failing outright, and the parked writes replay when
// the owner's breaker closes again.
func TestUpdateParksHintAndReplaysOnRecovery(t *testing.T) {
	r, peers := newTestCluster(t, 2, Config{
		Breaker: resilience.BreakerConfig{
			ConsecutiveFailures: 1,
			OpenFor:             20 * time.Millisecond,
			HalfOpenProbes:      1,
		},
	})
	const victim = "node-0"
	k1 := keyOwnedBy(t, r, victim, 1)
	k2 := keyOwnedBy(t, r, victim, k1+1)

	peers[victim].Kill()
	if err := r.Update(k1, 100); !errors.Is(err, ErrHinted) {
		t.Fatalf("Update to dead owner = %v, want ErrHinted", err)
	}
	// The breaker is open now; the rejection is hinted too.
	if err := r.Update(k2, 200); !errors.Is(err, ErrHinted) {
		t.Fatalf("Update behind open breaker = %v, want ErrHinted", err)
	}
	if got := r.hints.pendingFor(victim); got != 2 {
		t.Fatalf("%d hints parked, want 2", got)
	}

	peers[victim].Revive()
	time.Sleep(25 * time.Millisecond) // let the cool-down lapse
	// Queries probe the half-open breaker; a success closes it, and the
	// recovery edge replays the hints in the background.
	waitFor(t, 2*time.Second, "hint replay after recovery", func() bool {
		_, _, _ = r.Query(k1)
		v1, _, ok1 := peers[victim].eng.Query(k1)
		v2, _, ok2 := peers[victim].eng.Query(k2)
		return ok1 && v1 == 100 && ok2 && v2 == 200
	})
	if got := r.hints.pendingFor(victim); got != 0 {
		t.Fatalf("%d hints still parked after replay", got)
	}
}

// TestAckedWriteSupersedesParkedHint: a write the owner acks drops the
// hint an earlier write of the same key parked while the breaker stayed
// closed. Otherwise the owner's next recovery replays the hint
// keep-existing into a node that has since evicted the acked value, and a
// hit returns a value older than the last acked write.
func TestAckedWriteSupersedesParkedHint(t *testing.T) {
	r, peers := newTestCluster(t, 2, Config{
		Breaker: resilience.BreakerConfig{
			ConsecutiveFailures: 2,
			OpenFor:             20 * time.Millisecond,
			HalfOpenProbes:      1,
		},
	})
	const owner = "node-0"
	k := keyOwnedBy(t, r, owner, 1)
	p := peers[owner]

	p.CutLink()
	if err := r.Update(k, 1); !errors.Is(err, ErrHinted) {
		t.Fatalf("Update over a cut link = %v, want ErrHinted", err)
	}
	if s := r.gate.Peer(owner).State(); s != resilience.Closed {
		t.Fatalf("owner's breaker is %v after one failure, want closed", s)
	}
	p.HealLink()
	if err := r.Update(k, 2); err != nil {
		t.Fatalf("Update after the heal = %v, want an ack", err)
	}
	// Evict the acked value behind the router's back.
	for i := uint64(1); i <= 200_000; i++ {
		p.Engine().Apply(engine.Op{Key: 1<<40 + i, Value: i, Token: policy.NoToken})
	}
	if _, _, ok := p.Engine().Query(k); ok {
		t.Fatal("k outlived 200,000 other keys; the scenario needs it evicted")
	}

	// Trip the owner's breaker, then let it recover: the recovery replays
	// whatever is still parked.
	p.Kill()
	for i := 0; i < 2; i++ {
		if _, _, err := r.Query(k); err == nil {
			t.Fatal("Query to a killed owner succeeded")
		}
	}
	p.Revive()
	waitFor(t, 2*time.Second, "the owner's breaker to close", func() bool {
		_, _, _ = r.Query(k)
		return r.gate.Peer(owner).State() == resilience.Closed
	})
	waitFor(t, 2*time.Second, "the hint log to drain", func() bool { return r.PendingHints() == 0 })
	if v, ok, err := r.Query(k); err != nil || ok && v != 2 {
		t.Fatalf("Query(k) = (%d, %v, %v); want a miss or the last acked value 2", v, ok, err)
	}
}

// TestReadRepairHealsMissingReplica: a hot key present at its owner but
// absent at a replica is observed divergent by the fan read and re-filled
// through the repair queue.
func TestReadRepairHealsMissingReplica(t *testing.T) {
	r, peers := newTestCluster(t, 3, Config{
		Replicas:   2,
		HotK:       8,
		RepairRate: 100000, // drain instantly; the rate is not under test
	})
	const key = uint64(12345)
	// Install while cold: only the owner holds the key.
	if err := r.Update(key, 777); err != nil {
		t.Fatal(err)
	}
	// Make it hot, then force a publish so the fan path engages.
	for i := 0; i < 4096; i++ {
		r.hot.Touch(key)
	}
	r.hot.Publish()
	if !r.hot.Hot(key) {
		t.Fatal("key did not reach the published hot set")
	}
	st := r.state.Load()
	ids := st.ring.ReplicasAt(st.ring.Pos(key), 2)
	replica := peers[ids[1]]
	if _, _, ok := replica.eng.Query(key); ok {
		t.Fatal("replica already holds the key; divergence scenario void")
	}
	// Fan reads rotate the probe order; repeated queries must eventually
	// observe replica-miss-then-owner-hit and enqueue the repair.
	waitFor(t, 2*time.Second, "read repair to fill the replica", func() bool {
		if v, ok, err := r.Query(key); err != nil || !ok || v != 777 {
			t.Fatalf("Query(%d) = (%d, %v, %v)", key, v, ok, err)
		}
		v, _, ok := replica.eng.Query(key)
		return ok && v == 777
	})
}

// TestSweepRepairsValueDivergence: a replica holding a *stale value* answers
// hits, so the read path never sees the divergence — the sweep's point
// reads must catch it and re-fill the replica from the owner, over
// in-process peers and over the wire alike.
func TestSweepRepairsValueDivergence(t *testing.T) {
	cfg := Config{
		Replicas:         2,
		HotK:             8,
		RepairRate:       100000,
		RepairSweepEvery: -1, // driven by hand for determinism
	}
	for _, tc := range []struct {
		name  string
		build func(t *testing.T) (*Router, map[string]*engine.Engine)
	}{
		{"peer=local", func(t *testing.T) (*Router, map[string]*engine.Engine) {
			r, peers := newTestCluster(t, 3, cfg)
			engs := make(map[string]*engine.Engine, len(peers))
			for id, p := range peers {
				engs[id] = p.Engine()
			}
			return r, engs
		}},
		{"peer=remote", func(t *testing.T) (*Router, map[string]*engine.Engine) {
			// Nodes first, so the router's cleanup runs before theirs.
			clients := make([]Peer, 3)
			engs := make(map[string]*engine.Engine, 3)
			for i := range clients {
				clients[i], engs[fmt.Sprintf("node-%d", i)] = newRemoteNode(t)
			}
			c := cfg
			c.Seed, c.HeartbeatEvery = testSeed, -1
			r := New(c)
			t.Cleanup(r.Close)
			for i, p := range clients {
				if err := r.Join(fmt.Sprintf("node-%d", i), p); err != nil {
					t.Fatal(err)
				}
			}
			return r, engs
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, engs := tc.build(t)
			const key = uint64(54321)
			for i := 0; i < 4096; i++ {
				r.hot.Touch(key)
			}
			r.hot.Publish()
			if !r.hot.Hot(key) {
				t.Fatal("key did not reach the published hot set")
			}
			// Hot update fans to owner and replica.
			if err := r.Update(key, 1000); err != nil {
				t.Fatal(err)
			}
			ids := r.Ring().Replicas(key, 2)
			owner, replica := engs[ids[0]], engs[ids[1]]
			if v, _, ok := replica.Query(key); !ok || v != 1000 {
				t.Fatalf("replica = (%d, %v) after hot update, want 1000", v, ok)
			}
			// Diverge the replica behind the router's back.
			replica.Apply(engine.Op{Key: key, Value: 31337, Token: policy.NoToken})
			r.sweepOnce()
			waitFor(t, 2*time.Second, "sweep-triggered repair", func() bool {
				v, _, ok := replica.Query(key)
				return ok && v == 1000
			})
			if v, _, ok := owner.Query(key); !ok || v != 1000 {
				t.Fatalf("owner disturbed by repair: (%d, %v)", v, ok)
			}
		})
	}
}

// countingPeer counts a router's calls to the wrapped peer. The router sees
// a type that is not *LocalPeer, so it takes the interface path it takes
// for a remote peer.
type countingPeer struct {
	*LocalPeer
	queries, streams atomic.Int64 // Query calls; OpenPull and Push calls
}

func (p *countingPeer) Query(key uint64) (uint64, bool, error) {
	p.queries.Add(1)
	return p.LocalPeer.Query(key)
}

func (p *countingPeer) OpenPull(arcs [][2]uint64) (io.ReadCloser, error) {
	p.streams.Add(1)
	return p.LocalPeer.OpenPull(arcs)
}

func (p *countingPeer) Push(r io.Reader, keepExisting bool) (int, error) {
	p.streams.Add(1)
	return p.LocalPeer.Push(r, keepExisting)
}

// TestSweepReadsEachCopyOnce pins the sweep's cost: over k published hot
// keys at Replicas R, one sweep makes exactly k×R point reads and streams
// nothing.
func TestSweepReadsEachCopyOnce(t *testing.T) {
	const k, replicas = 16, 3
	r := New(Config{Seed: testSeed, Replicas: replicas, HotK: k, HeartbeatEvery: -1, RepairSweepEvery: -1})
	t.Cleanup(r.Close)
	peers := make([]*countingPeer, 4)
	for i := range peers {
		peers[i] = &countingPeer{LocalPeer: NewLocalPeer(newTestEngine(t), testSeed)}
		if err := r.Join(fmt.Sprintf("node-%d", i), peers[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Only k keys are ever touched, so all k are published.
	for key := uint64(1); key <= k; key++ {
		for i := 0; i < 64; i++ {
			r.hot.Touch(key)
		}
	}
	r.hot.Publish()
	if got := len(r.HotKeys()); got != k {
		t.Fatalf("%d hot keys published, want %d", got, k)
	}
	for key := uint64(1); key <= k; key++ {
		if err := r.Update(key, key*10); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range peers {
		p.queries.Store(0)
		p.streams.Store(0)
	}
	r.sweepOnce()
	var queries, streams int64
	for _, p := range peers {
		queries += p.queries.Load()
		streams += p.streams.Load()
	}
	if queries != k*replicas || streams != 0 {
		t.Fatalf("sweep made %d Query calls and %d OpenPull/Push calls, want %d and 0",
			queries, streams, k*replicas)
	}
}

// TestRepairOneResolvesReplicaSlot runs the repair drain's job by hand:
// a job against a live replica installs the owner's value there, and a job
// against a member failed out of the ring since it was filed finds no slot
// and is dropped without an install.
func TestRepairOneResolvesReplicaSlot(t *testing.T) {
	reg := obs.NewRegistry()
	r, peers := newTestCluster(t, 3, Config{Replicas: 2, RepairSweepEvery: -1, Obs: reg})
	key := keyOwnedBy(t, r, "node-0", 1)
	if err := r.Update(key, 42); err != nil {
		t.Fatal(err)
	}
	r.repairOne(repairJob{key: key, dst: "node-1"})
	if v, _, ok := peers["node-1"].eng.Query(key); !ok || v != 42 {
		t.Fatalf("live replica after repair = (%d, %v), want 42", v, ok)
	}
	if err := r.Fail("node-2"); err != nil {
		t.Fatal(err)
	}
	r.repairOne(repairJob{key: key, dst: "node-2"})
	if _, _, ok := peers["node-2"].eng.Query(key); ok {
		t.Fatal("repair installed at a member no longer in the ring")
	}
	if got := reg.CounterValue("cluster_repairs_applied_total"); got != 1 {
		t.Fatalf("repairs applied = %d, want 1", got)
	}
}

// TestDegradedModeShedsRemoteMisses: with the majority of peers behind open
// breakers the router enters degraded mode, serving local arcs normally but
// shedding GetOrLoad misses caused by unreachable owners.
func TestDegradedModeShedsRemoteMisses(t *testing.T) {
	r, peers := newTestCluster(t, 3, Config{
		Breaker: resilience.BreakerConfig{
			ConsecutiveFailures: 1,
			OpenFor:             50 * time.Millisecond,
			HalfOpenProbes:      1,
		},
	})
	// Cut links to two of three nodes and trip their breakers.
	cut := []string{"node-1", "node-2"}
	for _, id := range cut {
		peers[id].CutLink()
		k := keyOwnedBy(t, r, id, 1)
		if _, _, err := r.Query(k); err == nil {
			t.Fatalf("query to cut peer %s succeeded", id)
		}
	}
	r.refreshDegraded()
	if !r.Degraded() {
		t.Fatal("router not degraded with 2/3 peers unreachable")
	}

	// A remote miss is shed without consulting the loader.
	loads := 0
	load := func(k uint64) (uint64, error) { loads++; return k, nil }
	remote := keyOwnedBy(t, r, "node-1", 1)
	if _, err := r.GetOrLoad(remote, load); !errors.Is(err, ErrDegraded) {
		t.Fatalf("remote miss while degraded = %v, want ErrDegraded", err)
	}
	if loads != 0 {
		t.Fatal("loader consulted for a shed remote miss")
	}
	// Local arcs keep full service, including miss loads.
	local := keyOwnedBy(t, r, "node-0", 1)
	if v, err := r.GetOrLoad(local, load); err != nil || v != local || loads != 1 {
		t.Fatalf("local miss while degraded = (%d, %v), loads=%d", v, err, loads)
	}

	// Heal: links restored, half-open probes re-prove the peers, mode clears.
	for _, id := range cut {
		peers[id].HealLink()
	}
	waitFor(t, 2*time.Second, "breakers to close after heal", func() bool {
		for _, id := range cut {
			_, _, _ = r.Query(keyOwnedBy(t, r, id, 1)) // probe
			if r.gate.Peer(id).State() != resilience.Closed {
				return false
			}
		}
		return true
	})
	r.refreshDegraded()
	if r.Degraded() {
		t.Fatal("router still degraded after heal")
	}
	if _, err := r.GetOrLoad(remote, load); err != nil {
		t.Fatalf("remote load after heal: %v", err)
	}
}

// TestGossipBootstrapFromSingleSeed: a router configured with gossip joins
// ONE seed node and learns the other members from the seed's membership
// table, resolving and joining them without any explicit Join calls.
func TestGossipBootstrapFromSingleSeed(t *testing.T) {
	ids := []string{"node-0", "node-1", "node-2"}
	peers := map[string]*LocalPeer{}
	for _, id := range ids {
		p := NewLocalPeer(newTestEngine(t), testSeed)
		p.AttachMembership(NewMembership(id, "", ""))
		peers[id] = p
	}
	// The nodes already know each other (their own gossip mesh converged).
	for _, id := range ids {
		for _, other := range ids {
			if other != id {
				peers[id].Membership().Alive(other, "", "")
			}
		}
	}
	r := New(Config{
		Seed:           testSeed,
		HeartbeatEvery: 10 * time.Millisecond,
		Resolver: func(d netproto.MemberDigest) (Peer, error) {
			if p := peers[d.ID]; p != nil {
				return p, nil
			}
			return nil, nil
		},
	})
	defer r.Close()
	if err := r.Join("node-0", peers["node-0"]); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "gossip to assemble the full ring", func() bool {
		return len(r.Members()) == 3
	})
	for _, id := range ids {
		if !containsStr(r.Members(), id) {
			t.Fatalf("member %s missing after bootstrap: %v", id, r.Members())
		}
	}
}
