package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"github.com/p4lru/p4lru/internal/cluster"
	"github.com/p4lru/p4lru/internal/engine"
	"github.com/p4lru/p4lru/internal/netproto"
	"github.com/p4lru/p4lru/internal/policy"
)

// clusterCmd spins an N-node cluster inside one process and drives a Zipf
// replay through a cluster.Router: consistent-hash placement, hot-key
// replication, and (with -kill) a mid-replay node death showing breaker
// trip, the suspect → dead verdict, replica-sourced range migration and
// hit-ratio recovery. Nodes are in-process engines by default; -net
// reaches each one over real loopback UDP/TCP through netproto.NodeServer
// instead.
func clusterCmd(args []string) error {
	fs := flag.NewFlagSet("cluster", flag.ExitOnError)
	nodes := fs.Int("nodes", 4, "engine nodes in the ring")
	replicas := fs.Int("replicas", 2, "copies per hot key, owner included")
	hotk := fs.Int("hotk", 256, "hot keys promoted to the replicated set")
	vnodes := fs.Int("vnodes", 64, "virtual nodes per member")
	pol := fs.String("policy", "p4lru3", "per-node policy spec (kind[:key=value,...])")
	mem := fs.Int("mem", 400*1024, "cache memory per node (bytes)")
	shards := fs.Int("shards", 2, "engine shards per node")
	queries := fs.Int("queries", 200000, "queries per timed phase")
	flows := fs.Int("flows", 1<<16, "distinct flow keys in the workload")
	skew := fs.Float64("skew", 1.2, "Zipf skew of the workload (≤1 = uniform)")
	seed := fs.Uint64("seed", 42, "ring seed (and workload seed)")
	useNet := fs.Bool("net", false, "reach nodes over loopback UDP/TCP instead of in-process")
	kill := fs.Bool("kill", false, "kill one node mid-replay and report recovery")
	partition := fs.Bool("partition", false, "cut one node's link mid-replay, heal it, and report hinted-handoff replay (in-process only)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *nodes < 1 {
		return fmt.Errorf("need at least one node")
	}
	if *partition && *useNet {
		return fmt.Errorf("-partition needs in-process nodes (a loopback socket has no link to cut)")
	}
	spec, err := policy.ParseSpec(*pol)
	if err != nil {
		return err
	}
	spec.MemBytes = *mem
	if spec.Seed == 0 {
		spec.Seed = *seed + 1
	}

	// The suspicion window is short so a -kill demo converges quickly —
	// unless -partition, where the heal must win the race against the
	// confirm or the cut node would be evicted instead of replayed into.
	suspectAfter := 150 * time.Millisecond
	if *partition {
		suspectAfter = 10 * time.Second
	}
	r := cluster.New(cluster.Config{
		Seed:           *seed,
		VNodes:         *vnodes,
		Replicas:       *replicas,
		HotK:           *hotk,
		HeartbeatEvery: 25 * time.Millisecond,
		DualReadFor:    5 * time.Second,
		SuspectAfter:   suspectAfter,
	})
	defer r.Close()

	// One engine per node; LocalPeer in-process, or a NodeServer + client
	// pair when the replay should cross real sockets.
	locals := make(map[string]*cluster.LocalPeer, *nodes)
	servers := make(map[string]*netproto.NodeServer, *nodes)
	for i := 0; i < *nodes; i++ {
		e, err := engine.NewFromSpec(spec, engine.Config{Shards: *shards, Block: true})
		if err != nil {
			return err
		}
		defer e.Close()
		id := fmt.Sprintf("node-%d", i)
		var peer cluster.Peer
		if *useNet {
			srv, err := netproto.NewNodeServer("127.0.0.1:0", netproto.NodeConfig{Engine: e, RingSeed: *seed})
			if err != nil {
				return err
			}
			defer srv.Close()
			cl, err := netproto.DialNode(srv.UDPAddr(), srv.TCPAddr(), 100*time.Millisecond, 2)
			if err != nil {
				return err
			}
			defer cl.Close()
			servers[id] = srv
			peer = cl
		} else {
			lp := cluster.NewLocalPeer(e, *seed)
			locals[id] = lp
			peer = lp
		}
		if err := r.Join(id, peer); err != nil {
			return err
		}
	}

	rng := rand.New(rand.NewSource(int64(*seed)))
	var zipf *rand.Zipf
	if *skew > 1 {
		zipf = rand.NewZipf(rng, *skew, 1, uint64(*flows-1))
	}
	nextKey := func() uint64 {
		if zipf != nil {
			return zipf.Uint64() + 1
		}
		return uint64(rng.Intn(*flows)) + 1
	}
	value := func(k uint64) uint64 { return k ^ 0xabcdef }

	// replay drives n queries through the router's look-through path and
	// reports the hit ratio (loads = misses) and throughput.
	replay := func(n int) (hit float64, qps float64) {
		loads := 0
		start := time.Now()
		for i := 0; i < n; i++ {
			k := nextKey()
			if _, err := r.GetOrLoad(k, func(key uint64) (uint64, error) {
				loads++
				return value(key), nil
			}); err != nil {
				fmt.Fprintf(os.Stderr, "cluster: query %d: %v\n", k, err)
			}
		}
		wall := time.Since(start)
		return 1 - float64(loads)/float64(n), float64(n) / wall.Seconds()
	}

	mode := "in-process"
	if *useNet {
		mode = "loopback UDP/TCP"
	}
	fmt.Printf("cluster: %d nodes (%s), %d vnodes, replicas %d, hotk %d, policy %s, %d flows, skew %.2f\n\n",
		*nodes, mode, *vnodes, *replicas, *hotk, *pol, *flows, *skew)

	replay(*queries / 4) // warm the ring before the timed phase
	hit, qps := replay(*queries)
	fmt.Printf("%-16s %10.0f queries/s   %6.2f%% hits   %d nodes   %d hot keys\n",
		"steady", qps, hit*100, len(r.Members()), len(r.HotKeys()))

	if *partition {
		// Partition drill: cut one node's link (the node is healthy, the
		// path to it is not), keep serving — writes to its arcs park as
		// hints — then heal and watch the hint log drain back into it.
		victim := fmt.Sprintf("node-%d", *nodes-1)
		locals[victim].CutLink()
		fmt.Printf("\ncut link to %s mid-replay...\n", victim)
		cutStart := time.Now()
		for time.Since(cutStart) < time.Second {
			replay(512)
		}
		hit, _ = replay(*queries / 4)
		fmt.Printf("%-16s %6.2f%% hits   %d hints parked   degraded=%v   members %v\n",
			"partitioned", hit*100, r.PendingHints(), r.Degraded(), r.Members())

		locals[victim].HealLink()
		healStart := time.Now()
		for r.PendingHints() > 0 && time.Since(healStart) < 10*time.Second {
			replay(512) // keep traffic flowing while the breaker re-proves the node
		}
		fmt.Printf("%-16s hints drained in %v after heal\n",
			"healed", time.Since(healStart).Round(time.Millisecond))
		replay(*queries / 4)
		hit, qps = replay(*queries)
		fmt.Printf("%-16s %10.0f queries/s   %6.2f%% hits   %d nodes   %d hints pending\n",
			"post-heal", qps, hit*100, len(r.Members()), r.PendingHints())
	}

	if !*kill {
		return nil
	}

	// Chaos demo: kill the last node and keep replaying until the failure
	// detector evicts it, then measure the recovered cluster. There is no
	// explicit Fail anywhere: the breaker trip files a suspect accusation,
	// the suspicion window hardens it to dead, and reconcile prunes the ring.
	victim := fmt.Sprintf("node-%d", *nodes-1)
	if lp := locals[victim]; lp != nil {
		lp.Kill()
	} else if srv := servers[victim]; srv != nil {
		srv.Close()
	}
	fmt.Printf("\nkilled %s mid-replay...\n", victim)
	start := time.Now()
	// The eviction cannot land before the suspicion window hardens the
	// accusation, so the stall cap must sit beyond it.
	stallCap := 10*time.Second + suspectAfter
	for len(r.Members()) == *nodes && time.Since(start) < stallCap {
		replay(512)
	}
	if len(r.Members()) == *nodes {
		return fmt.Errorf("%s not evicted within %v", victim, stallCap)
	}
	fmt.Printf("%-16s evicted after %v via the suspect → dead verdict (survivors absorbed its ranges)\n",
		victim, time.Since(start).Round(time.Millisecond))

	replay(*queries / 4) // let survivors re-warm
	hit, qps = replay(*queries)
	fmt.Printf("%-16s %10.0f queries/s   %6.2f%% hits   %d nodes   %d hot keys\n",
		"post-failure", qps, hit*100, len(r.Members()), len(r.HotKeys()))
	return nil
}
