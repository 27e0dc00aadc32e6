package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"time"

	"github.com/p4lru/p4lru/internal/cluster"
	"github.com/p4lru/p4lru/internal/engine"
	"github.com/p4lru/p4lru/internal/kvindex"
	"github.com/p4lru/p4lru/internal/netproto"
	"github.com/p4lru/p4lru/internal/policy"
)

// The system configuration is fixed: only the generated inputs depend on
// the seed. Only fields likely to outlive planned API deletions are set.
var (
	// cachePolicy is the paper's LruIndex cache: four series levels of
	// P4LRU3 units. 320 KiB rather than the default 400 KiB keeps
	// index-churn's hit ratio under 0.05 (0.0498 at 400 KiB).
	cachePolicy = policy.Spec{Kind: policy.KindSeries, MemBytes: 320 << 10}
	// HotK is 4, not the default 128: at 128 the 2 s anti-entropy sweep
	// digests 128 keys on two replicas, each a full engine.Range on a node,
	// and on a 2-core host stalls every op 10–18 ms, putting p99 over 1 ms
	// at any rate. README.md reports it as a finding.
	clusterCfg = cluster.Config{Seed: 0xc1a5, VNodes: 64, Replicas: 2, HotK: 4}
)

const clusterNodes = 3

// kvindexValue is the first value word kvindex.NewServer stores for key.
func kvindexValue(key uint64) uint64 { return key ^ 0xbadc0ffee }

// checkIndexReply validates a server reply that came back through the
// switch; a reply stamped with a cached_flag was served from the cache.
func checkIndexReply(m *netproto.Message) (bool, error) {
	if m.Type != netproto.MsgReply {
		return false, fmt.Errorf("%w: message type %d", errInvalid, m.Type)
	}
	if len(m.Value) != kvindex.ValueSize || binary.LittleEndian.Uint64(m.Value) != kvindexValue(m.Key) {
		return false, fmt.Errorf("%w: wrong value", errInvalid)
	}
	return m.CachedFlag != 0, nil
}

// indexStack is client → netproto.Switch → netproto.Server over loopback.
type indexStack struct {
	srv *netproto.Server
	sw  *netproto.Switch
	gen *wireGen
}

// newIndexStack builds the stack and returns it with its set-up time: from
// the start of construction to the first valid reply.
func newIndexStack(items int) (*indexStack, float64, error) {
	t0 := time.Now()
	srv, err := netproto.NewServer("127.0.0.1:0", items)
	if err != nil {
		return nil, 0, err
	}
	st := &indexStack{srv: srv}
	st.sw, err = netproto.NewSwitch(netproto.SwitchConfig{ServerAddr: srv.Addr(), Policy: cachePolicy})
	if err != nil {
		st.Close()
		return nil, 0, err
	}
	ap := st.sw.Addr().AddrPort()
	st.gen, err = newWireGen(netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port()), checkIndexReply)
	if err != nil {
		st.Close()
		return nil, 0, err
	}
	for try := 0; ; try++ {
		r := st.gen.run(schedule{rate: 1, dur: time.Millisecond, at: []int64{0}, keys: []uint64{1}, upd: []bool{false}})
		if r.invalid > 0 {
			st.Close()
			return nil, 0, r.firstBad
		}
		if r.failed == 0 {
			break
		}
		if try == 10 {
			st.Close()
			return nil, 0, errors.New("index stack: no reply to the first query")
		}
	}
	return st, time.Since(t0).Seconds(), nil
}

// warm fills the switch cache with a closed window of 256 queries at a
// time, so the measured phases start from a steady cache.
func (st *indexStack) warm(s schedule) error {
	for from := 0; from < len(s.keys); from += 256 {
		to := min(from+256, len(s.keys))
		r := st.gen.run(schedule{rate: 1, dur: time.Millisecond, at: make([]int64, to-from), keys: s.keys[from:to], upd: s.upd[from:to]})
		if r.invalid > 0 {
			return r.firstBad
		}
	}
	return nil
}

func (st *indexStack) engineDropped() uint64 { return st.sw.Engine().Dropped() }

func (st *indexStack) Close() {
	if st.gen != nil {
		st.gen.Close()
	}
	if st.sw != nil {
		st.sw.Close()
	}
	st.srv.Close()
}

// valueSalt keeps a cluster value from looking like its key.
const valueSalt = 0x5eed_0000_0000_0000

// clusterValue is the value version ver of key carries; version 0 is what
// the backing load returns. Keys stay below 2^24.
func clusterValue(key, ver uint64) uint64 { return (ver<<24 | key) ^ valueSalt }

func clusterKeyOf(v uint64) uint64 { return (v ^ valueSalt) & (1<<24 - 1) }

// clusterStack is a cluster.Router over three engine nodes, reached through
// loopback NodeServers (remote) or in-process LocalPeers (local).
type clusterStack struct {
	router  *cluster.Router
	engines []*engine.Engine
	nodes   []*netproto.NodeServer
	peers   []cluster.Peer
	remote  bool
	// loads[w] counts backing loads made by worker w; each loader runs on
	// its worker's goroutine, so the counters need no synchronization.
	loads   [2]int64
	loaders [2]func(uint64) (uint64, error)
}

// newClusterStack builds the stack and returns it with its set-up time.
// wrap, when set, wraps every peer handle the router is given.
func newClusterStack(remote bool, wrap func(p cluster.Peer, wire bool) cluster.Peer) (*clusterStack, float64, error) {
	t0 := time.Now()
	st := &clusterStack{remote: remote, router: cluster.New(clusterCfg)}
	for w := range st.loaders {
		w := w
		st.loaders[w] = func(key uint64) (uint64, error) {
			st.loads[w]++
			return clusterValue(key, 0), nil
		}
	}
	for i := 0; i < clusterNodes; i++ {
		eng, err := engine.NewFromSpec(cachePolicy, engine.Config{})
		if err != nil {
			st.Close()
			return nil, 0, err
		}
		st.engines = append(st.engines, eng)
		var peer cluster.Peer = cluster.NewLocalPeer(eng, clusterCfg.Seed)
		if remote {
			ns, err := netproto.NewNodeServer("127.0.0.1:0", netproto.NodeConfig{Engine: eng, RingSeed: clusterCfg.Seed})
			if err != nil {
				st.Close()
				return nil, 0, err
			}
			st.nodes = append(st.nodes, ns)
			nc, err := netproto.DialNode(ns.UDPAddr(), ns.TCPAddr(), 0, 0)
			if err != nil {
				st.Close()
				return nil, 0, err
			}
			peer = nc
		}
		st.peers = append(st.peers, peer)
		if wrap != nil {
			peer = wrap(peer, remote)
		}
		if err := st.router.Join(nodeID(i), peer); err != nil {
			st.Close()
			return nil, 0, err
		}
	}
	if _, err := st.op(0, 1, false, 0); err != nil {
		st.Close()
		return nil, 0, err
	}
	return st, time.Since(t0).Seconds(), nil
}

func nodeID(i int) string { return fmt.Sprintf("node-%d", i) }

// op is the YCSB-B operation: a GetOrLoad read, or an Update that writes a
// fresh version of the key's value.
func (st *clusterStack) op(w int, key uint64, upd bool, seq uint64) (bool, error) {
	if upd {
		return false, st.router.Update(key, clusterValue(key, seq+1))
	}
	before := st.loads[w]
	v, err := st.router.GetOrLoad(key, st.loaders[w])
	if err != nil {
		return false, err
	}
	if clusterKeyOf(v) != key {
		return false, fmt.Errorf("%w: key %d read value %#x", errInvalid, key, v)
	}
	return st.loads[w] == before, nil
}

// warm fills the node caches. A remote stack is warmed in-process through a
// second router over LocalPeers of the same engines: same ring seed and
// member IDs, so every key lands on the node the measured router uses.
func (st *clusterStack) warm(s schedule) error {
	r := st.router
	if st.remote {
		r = cluster.New(clusterCfg)
		defer r.Close()
		for i, eng := range st.engines {
			if err := r.Join(nodeID(i), cluster.NewLocalPeer(eng, clusterCfg.Seed)); err != nil {
				return err
			}
		}
	}
	load := func(key uint64) (uint64, error) { return clusterValue(key, 0), nil }
	for i, key := range s.keys {
		if s.upd[i] {
			if err := r.Update(key, clusterValue(key, 0)); err != nil {
				return err
			}
			continue
		}
		if _, err := r.GetOrLoad(key, load); err != nil {
			return err
		}
	}
	return nil
}

func (st *clusterStack) engineDropped() uint64 {
	var n uint64
	for _, e := range st.engines {
		n += e.Dropped()
	}
	return n
}

func (st *clusterStack) Close() {
	st.router.Close()
	for _, p := range st.peers {
		_ = p.Close()
	}
	for _, ns := range st.nodes {
		ns.Close()
	}
	for _, e := range st.engines {
		e.Close()
	}
}
