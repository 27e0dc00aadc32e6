package cluster

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/p4lru/p4lru/internal/backing"
	"github.com/p4lru/p4lru/internal/engine"
	"github.com/p4lru/p4lru/internal/netproto"
	"github.com/p4lru/p4lru/internal/obs"
	"github.com/p4lru/p4lru/internal/policy"
)

// TestDualReadWindowsExpireWithoutHeartbeat: with the heartbeat off, the
// loop's window expiry alone takes a leave's windows out of the published
// state at their deadline, and with them the departed member's tombstone.
func TestDualReadWindowsExpireWithoutHeartbeat(t *testing.T) {
	const window = 200 * time.Millisecond
	r, _ := newTestCluster(t, 3, Config{DualReadFor: window})
	if err := r.Leave("node-2"); err != nil {
		t.Fatal(err)
	}
	st := r.state.Load()
	if len(st.windows) == 0 || st.peers["node-2"] == nil {
		t.Fatalf("the leave published %d windows and tombstone %v, want both", len(st.windows), st.peers["node-2"] != nil)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st = r.state.Load()
		if len(st.windows) == 0 && st.peers["node-2"] == nil && !slices.Contains(st.ids, "node-2") {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%v after a %v window, %d windows and tombstone %v are still published",
				5*time.Second, window, len(st.windows), st.peers["node-2"] != nil)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestWindowExpiryRacesTraffic: window expiry republishes the state
// while readers and writers run, across repeated joins and leaves whose
// windows each lapse under traffic. Every value the cluster ever holds for
// k is 7k, so any other read is a torn or misrouted one. Run with -race.
func TestWindowExpiryRacesTraffic(t *testing.T) {
	r, _ := newTestCluster(t, 3, Config{Replicas: 2, HotK: 4, DualReadFor: 5 * time.Millisecond})
	spare := NewLocalPeer(newTestEngine(t), testSeed)
	load := func(k uint64) (uint64, error) { return 7 * k, nil }
	stop := make(chan struct{})
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	for w := uint64(0); w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := uint64(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := i%512 + 1
				if i%8 == w {
					_ = r.Update(k, 7*k)
					continue
				}
				if v, err := r.GetOrLoad(k, load); err != nil || v != 7*k {
					errs <- fmt.Errorf("GetOrLoad(%d) = (%d, %v), want %d", k, v, err, 7*k)
					return
				}
			}
		}()
	}
	var once sync.Once
	halt := func() { once.Do(func() { close(stop); wg.Wait() }) }
	t.Cleanup(halt)
	lapse := func() {
		deadline := time.Now().Add(5 * time.Second)
		for len(r.state.Load().windows) > 0 {
			if time.Now().After(deadline) {
				t.Fatal("windows never expired under traffic")
			}
			time.Sleep(time.Millisecond)
		}
	}
	for i := 0; i < 10; i++ {
		if err := r.Join("node-3", spare); err != nil {
			t.Fatal(err)
		}
		lapse()
		if err := r.Leave("node-3"); err != nil {
			t.Fatal(err)
		}
		lapse()
	}
	halt()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}

// TestDualReadReadsEachSourceOnce builds the cluster benchmark's router
// (LocalPeer joins, Replicas 2, HotK 4) over five nodes, two of which then
// leave, so the windows of both leaves stay open, and counts
// cluster_dual_reads_total per miss. A cold miss reads each source whose
// window covers the key once, however many windows name it, and never the
// owner. A hot-key miss never re-reads a replica its fan has already read.
func TestDualReadReadsEachSourceOnce(t *testing.T) {
	reg := obs.NewRegistry()
	r := New(Config{Seed: testSeed, VNodes: 64, Replicas: 2, HotK: 4, HeartbeatEvery: -1, DualReadFor: time.Hour, Obs: reg})
	t.Cleanup(r.Close)
	for i := 0; i < 5; i++ {
		if err := r.Join(fmt.Sprintf("node-%d", i), NewLocalPeer(newSeriesEngine(t), testSeed)); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []string{"node-4", "node-3"} {
		if err := r.Leave(id); err != nil {
			t.Fatal(err)
		}
	}
	st := r.state.Load()
	// covering counts the windows covering key's position whose source is
	// not in asked, and the distinct sources among them.
	covering := func(key uint64, asked []int) (windows, sources int) {
		pos := st.ring.Pos(key)
		var seen []int
		for _, w := range st.windows {
			if w.src < 0 || slices.Contains(asked, w.src) || !w.cover.contains(pos) {
				continue
			}
			windows++
			if !slices.Contains(seen, w.src) {
				seen = append(seen, w.src)
			}
		}
		return windows, len(seen)
	}
	reads := func() uint64 { return reg.CounterValue("cluster_dual_reads_total") }
	load := func(k uint64) (uint64, error) { return k, nil }

	// A cold key two windows with one source both cover.
	cold := uint64(0)
	for k := uint64(1 << 40); k < 1<<40+100_000; k++ {
		owner := st.ring.OwnerIdxAt(st.ring.Pos(k))
		if w, s := covering(k, []int{owner}); w > s {
			cold = k
			break
		}
	}
	if cold == 0 {
		t.Fatal("no key has two covering windows that name one source")
	}
	if r.hot.Hot(cold) {
		t.Fatal("the cold key is hot")
	}
	_, want := covering(cold, []int{st.ring.OwnerIdxAt(st.ring.Pos(cold))})
	before := reads()
	if _, err := r.GetOrLoad(cold, load); err != nil {
		t.Fatal(err)
	}
	if got := reads() - before; got != uint64(want) {
		t.Fatalf("cold miss made %d dual reads, want %d: one per covering source", got, want)
	}

	// A hot key with a covering window whose source is one of its replicas.
	hot := uint64(0)
	var reps []int
	for k := uint64(1 << 41); k < 1<<41+100_000; k++ {
		var buf [8]int
		reps = st.ring.replicaIdxAt(buf[:], st.ring.Pos(k), 2)
		if all, _ := covering(k, nil); all > 0 {
			if w, _ := covering(k, reps); w < all {
				hot = k
				break
			}
		}
	}
	if hot == 0 {
		t.Fatal("no key has a covering window whose source is one of its replicas")
	}
	for i := 0; i < 4096; i++ {
		r.hot.Touch(hot)
	}
	r.hot.Publish()
	if !r.hot.Hot(hot) {
		t.Fatal("key did not reach the published hot set")
	}
	_, want = covering(hot, reps)
	before = reads()
	if _, ok, err := r.Query(hot); ok || err != nil {
		t.Fatalf("Query of an absent hot key = (%v, %v), want a clean miss", ok, err)
	}
	if got := reads() - before; got != uint64(want) {
		t.Fatalf("hot miss made %d dual reads, want %d: none at the replicas the fan read", got, want)
	}
}

// TestGetOrLoadInstallsAtOwnerAfterSwap: a load that joins a node in the
// middle of GetOrLoad moves the key's ownership; the install must land at
// the owner after the swap, where Update would put it, and not at the owner
// the query routed to.
func TestGetOrLoadInstallsAtOwnerAfterSwap(t *testing.T) {
	r, peers := newTestCluster(t, 3, Config{})
	joiner := NewLocalPeer(newTestEngine(t), testSeed)
	next := NewRing(testSeed, r.cfg.VNodes, append(slices.Clone(r.Members()), "node-3"))
	var key uint64
	for k := uint64(1); ; k++ {
		if next.Owner(k) == "node-3" {
			key = k
			break
		}
	}
	before := r.Ring().Owner(key)
	v, err := r.GetOrLoad(key, func(k uint64) (uint64, error) {
		if err := r.Join("node-3", joiner); err != nil {
			return 0, err
		}
		return k * 3, nil
	})
	if err != nil || v != key*3 {
		t.Fatalf("GetOrLoad = (%d, %v), want (%d, nil)", v, err, key*3)
	}
	if got, _, ok := joiner.Engine().Query(key); !ok || got != key*3 {
		t.Fatalf("the new owner holds (%d, %v) after the install, want (%d, true)", got, ok, key*3)
	}
	if _, _, ok := peers[before].Engine().Query(key); ok {
		t.Fatalf("the install landed at %s, the owner before the swap", before)
	}
}

// TestTimeoutEngineSharesOneWriteClock runs the timeout policy behind each
// writer that stamps ops with the engine's write clock: LocalPeer.Update,
// the NodeServer's update handler and Tiered's fill. Each still replaces an
// entry older than the threshold. A LocalPeer and a NodeServer made at
// different times share one time base: an entry one writes is still fresh
// to the other moments later.
func TestTimeoutEngineSharesOneWriteClock(t *testing.T) {
	const threshold = 80 * time.Millisecond
	// One bucket: every key collides with the resident one.
	e, err := engine.New(engine.Config{Shards: 1, Block: true, NewCache: func(int) policy.Cache {
		return policy.NewTimeout(1, threshold, 1, nil)
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	resident := func(key uint64) bool {
		_, _, ok := e.Query(key)
		return ok
	}
	lp := NewLocalPeer(e, testSeed)
	// The server starts two thresholds after the engine and the peer.
	time.Sleep(2 * threshold)
	ns, err := netproto.NewNodeServer("127.0.0.1:0", netproto.NodeConfig{Engine: e, RingSeed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ns.Close)
	nc, err := netproto.DialNode(ns.UDPAddr(), ns.TCPAddr(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = nc.Close() })

	if err := nc.Update(1, 10); err != nil {
		t.Fatal(err)
	}
	if err := lp.Update(2, 20); err != nil {
		t.Fatal(err)
	}
	if !resident(1) || resident(2) {
		t.Fatal("a peer write displaced the entry the server wrote just before: the writers stamp different time bases")
	}

	stale := func() { time.Sleep(threshold + 10*time.Millisecond) }
	stale()
	if err := lp.Update(3, 30); err != nil {
		t.Fatal(err)
	}
	if !resident(3) {
		t.Fatal("a LocalPeer write did not replace an entry older than the threshold")
	}
	stale()
	if err := nc.Update(4, 40); err != nil {
		t.Fatal(err)
	}
	if !resident(4) {
		t.Fatal("a NodeServer write did not replace an entry older than the threshold")
	}
	stale()
	tiered := engine.NewTiered(e, backing.NewMapStore().Preload(10), backing.LoaderConfig{})
	if _, _, _, err := tiered.GetOrLoad(context.Background(), 5); err != nil {
		t.Fatal(err)
	}
	e.Flush()
	if !resident(5) {
		t.Fatal("a Tiered fill did not replace an entry older than the threshold")
	}
}
