package cluster

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"github.com/p4lru/p4lru/internal/engine"
	"github.com/p4lru/p4lru/internal/obs"
	"github.com/p4lru/p4lru/internal/policy"
	"github.com/p4lru/p4lru/internal/resilience"
)

const testSeed = 42

// newTestEngine builds a node engine big enough that the test keyspaces
// never evict (Ideal = true LRU, no hash-placement collisions), so
// assertions about resident keys are deterministic.
func newTestEngine(t *testing.T) *engine.Engine {
	t.Helper()
	e, err := engine.NewFromSpec(
		policy.Spec{Kind: policy.KindIdeal, MemBytes: 1 << 20, Seed: 9},
		engine.Config{Shards: 2, Block: true},
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

// newSeriesEngine builds a node engine like the benchmark's cluster nodes:
// the series-connected P4LRU cache, which evicts and never allocates per op.
func newSeriesEngine(tb testing.TB) *engine.Engine {
	tb.Helper()
	e, err := engine.NewFromSpec(
		policy.Spec{Kind: policy.KindSeries, MemBytes: 320 << 10},
		engine.Config{Shards: 2, Block: true},
	)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(e.Close)
	return e
}

// newTestCluster stands up n LocalPeer nodes behind one router. The
// heartbeat round is off unless cfg enables it — membership tests drive
// Join/Leave/Fail explicitly.
func newTestCluster(t *testing.T, n int, cfg Config) (*Router, map[string]*LocalPeer) {
	t.Helper()
	if cfg.Seed == 0 {
		cfg.Seed = testSeed
	}
	if cfg.HeartbeatEvery == 0 {
		cfg.HeartbeatEvery = -1
	}
	r := New(cfg)
	t.Cleanup(r.Close)
	peers := make(map[string]*LocalPeer, n)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("node-%d", i)
		p := NewLocalPeer(newTestEngine(t), cfg.Seed)
		peers[id] = p
		if err := r.Join(id, p); err != nil {
			t.Fatalf("Join(%s): %v", id, err)
		}
	}
	return r, peers
}

func TestRouterEmptyRing(t *testing.T) {
	r := New(Config{Seed: testSeed, HeartbeatEvery: -1})
	defer r.Close()
	if _, _, err := r.Query(1); !errors.Is(err, ErrNoNodes) {
		t.Fatalf("Query on empty ring: %v, want ErrNoNodes", err)
	}
	if err := r.Update(1, 2); !errors.Is(err, ErrNoNodes) {
		t.Fatalf("Update on empty ring: %v, want ErrNoNodes", err)
	}
	if _, err := r.GetOrLoad(1, func(uint64) (uint64, error) { return 0, nil }); !errors.Is(err, ErrNoNodes) {
		t.Fatalf("GetOrLoad on empty ring: %v, want ErrNoNodes", err)
	}
}

func TestRouterSingleNode(t *testing.T) {
	r, _ := newTestCluster(t, 1, Config{})
	if _, ok, err := r.Query(7); ok || err != nil {
		t.Fatalf("Query(7) on cold node = (ok=%v, err=%v)", ok, err)
	}
	if err := r.Update(7, 70); err != nil {
		t.Fatalf("Update: %v", err)
	}
	if v, ok, err := r.Query(7); !ok || v != 70 || err != nil {
		t.Fatalf("Query(7) = (%d, %v, %v), want (70, true, nil)", v, ok, err)
	}
	loads := 0
	v, err := r.GetOrLoad(8, func(k uint64) (uint64, error) { loads++; return k * 10, nil })
	if err != nil || v != 80 || loads != 1 {
		t.Fatalf("GetOrLoad miss = (%d, %v), loads=%d", v, err, loads)
	}
	v, err = r.GetOrLoad(8, func(k uint64) (uint64, error) { loads++; return k * 10, nil })
	if err != nil || v != 80 || loads != 1 {
		t.Fatalf("GetOrLoad hit = (%d, %v), loads=%d (loader ran again)", v, err, loads)
	}
}

func TestRouterRoutesToOwner(t *testing.T) {
	r, peers := newTestCluster(t, 3, Config{})
	ring := r.Ring()
	for k := uint64(1); k <= 500; k++ {
		if err := r.Update(k, k*2); err != nil {
			t.Fatalf("Update(%d): %v", k, err)
		}
	}
	for k := uint64(1); k <= 500; k++ {
		owner := ring.Owner(k)
		if v, _, ok := peers[owner].Engine().Query(k); !ok || v != k*2 {
			t.Fatalf("key %d not on its owner %q (got %d, %v)", k, owner, v, ok)
		}
		for id, p := range peers {
			if id == owner {
				continue
			}
			if _, _, ok := p.Engine().Query(k); ok {
				t.Fatalf("non-hot key %d replicated to %q", k, id)
			}
		}
	}
}

// TestRouterJoinMigratesWarm: a joining node receives its hash ranges as a
// snapshot stream before taking ownership, so its first queries already hit.
func TestRouterJoinMigratesWarm(t *testing.T) {
	r, peers := newTestCluster(t, 2, Config{})
	const keys = 3000
	for k := uint64(1); k <= keys; k++ {
		if err := r.Update(k, k+9); err != nil {
			t.Fatal(err)
		}
	}
	joiner := NewLocalPeer(newTestEngine(t), testSeed)
	peers["node-9"] = joiner
	if err := r.Join("node-9", joiner); err != nil {
		t.Fatalf("Join: %v", err)
	}
	// The new node's engine was warmed by migration, not by traffic.
	ring := r.Ring()
	owned, resident := 0, 0
	for k := uint64(1); k <= keys; k++ {
		if ring.Owner(k) != "node-9" {
			continue
		}
		owned++
		if v, _, ok := joiner.Engine().Query(k); ok && v == k+9 {
			resident++
		}
	}
	if owned == 0 {
		t.Fatal("joining node owns no test keys")
	}
	if resident != owned {
		t.Fatalf("joiner holds %d of its %d keys after migration", resident, owned)
	}
	// And the full keyspace still serves through the router.
	for k := uint64(1); k <= keys; k++ {
		if v, ok, err := r.Query(k); !ok || v != k+9 || err != nil {
			t.Fatalf("Query(%d) after join = (%d, %v, %v)", k, v, ok, err)
		}
	}
}

// TestRouterLeaveKeepsServing: a graceful leave streams the departing
// node's ranges to their new owners; nothing acked is lost.
func TestRouterLeaveKeepsServing(t *testing.T) {
	r, _ := newTestCluster(t, 3, Config{})
	const keys = 3000
	for k := uint64(1); k <= keys; k++ {
		if err := r.Update(k, k^0xbeef); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Leave("node-1"); err != nil {
		t.Fatalf("Leave: %v", err)
	}
	if got := len(r.Members()); got != 2 {
		t.Fatalf("%d members after leave, want 2", got)
	}
	for k := uint64(1); k <= keys; k++ {
		if v, ok, err := r.Query(k); !ok || v != k^0xbeef || err != nil {
			t.Fatalf("Query(%d) after leave = (%d, %v, %v)", k, v, ok, err)
		}
	}
}

// setWindows opens ws through swap, the path every membership change takes:
// the published state carries those of ws still open, beside the windows
// the state already had.
func setWindows(r *Router, ws ...dualWindow) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.state.Load()
	r.swap(st, st.ring, clonePeers(st.peers), ws, time.Now())
}

// TestRouterDualReadWindow drives the miss-retry path through hand-built
// windows. In every case the value lives only on node-1, as if the key's
// arc just moved 1 → 0, and the router queries a key node-0 owns; the
// cluster_dual_reads_total counter counts the source reads it made. The
// join windows the cluster already has never cover the key: they cover
// arcs node-1 now owns.
func TestRouterDualReadWindow(t *testing.T) {
	const val = 777
	circle := func(uint64) [][2]uint64 { return [][2]uint64{{0, 0}} } // degenerate arc: whole circle
	cases := []struct {
		name      string
		source    string
		arcs      func(pos uint64) [][2]uint64
		expired   bool // the window's deadline passed a minute before the swap
		kill      bool // the source is dead when the read comes
		wantReads uint64
		wantHit   bool
	}{
		{name: "hit re-installs at owner", source: "node-1", arcs: circle, wantReads: 1, wantHit: true},
		{name: "expired window", source: "node-1", arcs: circle, expired: true},
		{name: "killed source", source: "node-1", arcs: circle, kill: true, wantReads: 1},
		{name: "source is the asked owner", source: "node-0", arcs: circle},
		{name: "inside a wrapping arc", source: "node-1", wantReads: 1, wantHit: true,
			arcs: func(pos uint64) [][2]uint64 { return [][2]uint64{{math.MaxUint64 - 1000, pos}} }},
		{name: "outside all arcs", source: "node-1",
			arcs: func(pos uint64) [][2]uint64 { return [][2]uint64{{pos, pos + 1000}, {math.MaxUint64 - 1000, pos - 1}} }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			r, peers := newTestCluster(t, 2, Config{
				Obs:     reg,
				Breaker: resilience.BreakerConfig{ConsecutiveFailures: 1, OpenFor: time.Minute},
			})
			// A node-0 key in the lower quarter of the circle, so an arc
			// from near the top can wrap through zero to reach it.
			var key, pos uint64
			for k := uint64(1); ; k++ {
				if pos = r.Ring().Pos(k); pos < 1<<62 && r.Ring().Owner(k) == "node-0" {
					key = k
					break
				}
			}
			if err := peers["node-1"].Update(key, val); err != nil {
				t.Fatal(err)
			}
			until := time.Now().Add(time.Minute)
			if c.expired {
				until = time.Now().Add(-time.Minute)
			}
			setWindows(r, dualWindow{arcs: c.arcs(pos), source: c.source, until: until})
			if c.kill {
				peers["node-1"].Kill()
			}

			v, ok, err := r.Query(key)
			if ok != c.wantHit || (ok && v != val) || err != nil {
				t.Fatalf("Query = (%d, %v, %v), want hit=%v", v, ok, err, c.wantHit)
			}
			if got := reg.CounterValue("cluster_dual_reads_total"); got != c.wantReads {
				t.Fatalf("%d source reads, want %d", got, c.wantReads)
			}
			if v, _, ok := peers["node-0"].Engine().Query(key); ok != c.wantHit || (ok && v != val) {
				t.Fatalf("owner holds (%d, %v) after the read, want re-install=%v", v, ok, c.wantHit)
			}
			if c.kill {
				if s := r.gate.Peer("node-1").State(); s != resilience.Open {
					t.Fatalf("dead source's breaker is %v, want open", s)
				}
			}
		})
	}
}

// TestRouterPerOpPathsDoNotAllocate holds every per-op router path to zero
// allocations on a replicated ring: hot-key reads and writes fan over the
// replica set, and a cold GetOrLoad misses at the owner, reads the join
// windows' previous holders, loads and installs.
func TestRouterPerOpPathsDoNotAllocate(t *testing.T) {
	reg := obs.NewRegistry()
	r := New(Config{Seed: testSeed, Replicas: 2, HotK: 4, HeartbeatEvery: -1, DualReadFor: time.Hour, Obs: reg})
	t.Cleanup(r.Close)
	for i := 0; i < 3; i++ {
		if err := r.Join(fmt.Sprintf("node-%d", i), NewLocalPeer(newSeriesEngine(t), testSeed)); err != nil {
			t.Fatal(err)
		}
	}
	if len(r.state.Load().windows) == 0 {
		t.Fatal("the joins opened no dual-read windows")
	}
	const hot = uint64(12345)
	for i := 0; i < 4096; i++ {
		r.hot.Touch(hot)
	}
	r.hot.Publish()
	if !r.hot.Hot(hot) {
		t.Fatal("key did not reach the published hot set")
	}
	if err := r.Update(hot, 1); err != nil {
		t.Fatal(err)
	}
	load := func(k uint64) (uint64, error) { return k, nil }
	fresh := uint64(1 << 40)
	for _, c := range []struct {
		name string
		op   func()
	}{
		{"hot Query", func() { _, _, _ = r.Query(hot) }},
		{"hot Update", func() { _ = r.Update(hot, 2) }},
		{"cold GetOrLoad", func() { fresh++; _, _ = r.GetOrLoad(fresh, load) }},
	} {
		if n := testing.AllocsPerRun(1000, c.op); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", c.name, n)
		}
	}
	if reg.CounterValue("cluster_fan_reads_total") == 0 || reg.CounterValue("cluster_dual_reads_total") == 0 {
		t.Fatal("the ops never took the fan or the dual-read path")
	}
}

// TestRouterHotKeyReplication: keys promoted to the hot set fan updates to
// the replica successors and survive the owner's death.
func TestRouterHotKeyReplication(t *testing.T) {
	r, peers := newTestCluster(t, 4, Config{Replicas: 3, HotK: 8})
	hotKey := uint64(12345)
	if err := r.Update(hotKey, 1); err != nil {
		t.Fatal(err)
	}
	// Hammer the key so the sampled sketch sees it, then force a publish.
	for i := 0; i < 4096; i++ {
		if _, _, err := r.Query(hotKey); err != nil {
			t.Fatal(err)
		}
	}
	r.hot.Publish()
	if !r.hot.Hot(hotKey) {
		t.Fatal("key not promoted to the hot set")
	}
	if err := r.Update(hotKey, 2); err != nil {
		t.Fatal(err)
	}
	ring := r.Ring()
	reps := ring.Replicas(hotKey, 3)
	for _, id := range reps {
		if v, _, ok := peers[id].Engine().Query(hotKey); !ok || v != 2 {
			t.Fatalf("replica %q missing the hot key (got %d, %v)", id, v, ok)
		}
	}
	// Kill the owner: the read fan still reaches a live replica.
	owner := reps[0]
	peers[owner].Kill()
	hits := 0
	for i := 0; i < 8; i++ {
		if v, ok, err := r.Query(hotKey); ok && v == 2 && err == nil {
			hits++
		}
	}
	if hits != 8 {
		t.Fatalf("only %d/8 reads survived the owner's death", hits)
	}
	// Failing the owner migrates its arcs from surviving replicas.
	if err := r.Fail(owner); err != nil {
		t.Fatalf("Fail: %v", err)
	}
	if v, ok, err := r.Query(hotKey); !ok || v != 2 || err != nil {
		t.Fatalf("Query after failover = (%d, %v, %v)", v, ok, err)
	}
}

// TestRouterHeartbeatAutoFail: the failure detector notices a dead peer,
// trips its breaker, and removes it from the ring without operator help.
func TestRouterHeartbeatAutoFail(t *testing.T) {
	r, peers := newTestCluster(t, 3, Config{
		HeartbeatEvery: 10 * time.Millisecond,
		Breaker: resilience.BreakerConfig{
			ConsecutiveFailures: 2,
			OpenFor:             10 * time.Second, // stay open; no flapping mid-test
		},
	})
	peers["node-2"].Kill()
	deadline := time.Now().Add(5 * time.Second)
	for len(r.Members()) != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("dead node never auto-failed; members = %v", r.Members())
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, m := range r.Members() {
		if m == "node-2" {
			t.Fatal("dead node still a member")
		}
	}
}
