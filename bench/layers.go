package main

import (
	"encoding/binary"
	"fmt"
	"net"
	"net/netip"
	"runtime"
	"time"

	"github.com/p4lru/p4lru/internal/cluster"
	"github.com/p4lru/p4lru/internal/engine"
	"github.com/p4lru/p4lru/internal/kvindex"
	"github.com/p4lru/p4lru/internal/netproto"
	"github.com/p4lru/p4lru/internal/netproto/batchio"
)

// This file prices each layer from outside: it replays a workload's key
// sequence through the layer's public functions, single-threaded, and times
// the calls. Nothing here is instrumented inside the program.

// sink keeps timed loops from being optimized away.
var sink uint64

// timeReps runs f reps times and returns the median ns per op.
func timeReps(reps, ops int, f func()) float64 {
	xs := make([]float64, reps)
	for i := range xs {
		t0 := time.Now()
		f()
		xs[i] = float64(time.Since(t0).Nanoseconds()) / float64(ops)
	}
	return median(xs)
}

// protoReplay is the LruIndex protocol (§3.2) replayed in order over a
// fresh engine with the switch's policy and a kvindex database: consult
// the cache, resolve at the server (skipping the walk on a hit), apply the
// reply to the cache. Its counts are exact for a given key sequence.
type protoReplay struct {
	queries, hits, evictions int
	walks, nodes             int
	ops                      []engine.Op // the reply-path ops, in order
}

func replayProtocol(db *kvindex.Server, keys []uint64) (protoReplay, error) {
	eng, err := engine.NewFromSpec(cachePolicy, engine.Config{})
	if err != nil {
		return protoReplay{}, err
	}
	defer eng.Close()
	r := protoReplay{ops: make([]engine.Op, 0, len(keys))}
	for _, k := range keys {
		v, tok, hit := eng.Query(k)
		idx, val, nodes, ok := db.Resolve(k, v, hit)
		if !ok || binary.LittleEndian.Uint64(val) != kvindexValue(k) {
			return r, fmt.Errorf("%w: replay resolve of key %d", errInvalid, k)
		}
		r.queries++
		if hit {
			r.hits++
		}
		if nodes > 0 {
			r.walks++
			r.nodes += nodes
		}
		op := engine.Op{Key: k, Value: idx, Token: tok}
		if res := eng.Apply(op); res.Evicted {
			r.evictions++
		}
		r.ops = append(r.ops, op)
	}
	return r, nil
}

// layerPrices times the engine, kvindex and codec calls one served query
// makes, over the replay's key sequence.
func layerPrices(db *kvindex.Server, rp protoReplay, m map[string]float64) error {
	const reps = 5
	n := len(rp.ops)

	// ApplyBatch in 64-op batches, as the switch's reply loop calls it.
	var engs []*engine.Engine
	defer func() {
		for _, e := range engs {
			e.Close()
		}
	}()
	applyNs := make([]float64, reps)
	for i := range applyNs {
		eng, err := engine.NewFromSpec(cachePolicy, engine.Config{})
		if err != nil {
			return err
		}
		engs = append(engs, eng)
		t0 := time.Now()
		for from := 0; from < n; from += 64 {
			eng.ApplyBatch(rp.ops[from:min(from+64, n)])
		}
		applyNs[i] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	m["engine.apply_ns_per_op"] = median(applyNs)

	warm := engs[len(engs)-1]
	m["engine.query_ns"] = timeReps(reps, n, func() {
		for _, op := range rp.ops {
			v, _, _ := warm.Query(op.Key)
			sink += v
		}
	})
	m["kvindex.resolve_walk_ns"] = timeReps(reps, n, func() {
		for _, op := range rp.ops {
			idx, _, _, _ := db.Resolve(op.Key, 0, false)
			sink += idx
		}
	})
	m["kvindex.resolve_cached_ns"] = timeReps(reps, n, func() {
		for _, op := range rp.ops {
			_, v, _, _ := db.Resolve(op.Key, op.Value, true)
			sink += uint64(v[0])
		}
	})

	// The codec work one query costs end to end: the client encodes the
	// query; the switch decodes and stamps it; the server decodes it and
	// encodes the reply; the switch and the client decode the reply.
	q := make([]byte, 64)
	rep := make([]byte, 128)
	value := make([]byte, kvindex.ValueSize)
	var msg netproto.Message
	m["netproto.codec_ns"] = timeReps(reps, n, func() {
		for _, op := range rp.ops {
			nq := netproto.PutQuery(q, op.Key)
			_ = msg.Unmarshal(q[:nq])
			netproto.PatchCached(q[:nq], uint8(op.Token), op.Value)
			_ = msg.Unmarshal(q[:nq])
			nr := netproto.PutReply(rep, msg.CachedFlag, msg.Key, op.Value, value)
			_ = msg.Unmarshal(rep[:nr])
			_ = msg.Unmarshal(rep[:nr])
			sink += msg.Key
		}
	})
	return nil
}

// loopbackRTT runs the open-loop generator against a bare batchio echo at
// the given rate: the wire floor under every UDP hop the stack makes.
func loopbackRTT(s schedule) (phaseResult, error) {
	uc, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return phaseResult{}, err
	}
	echo, err := batchio.NewConn(uc)
	if err != nil {
		uc.Close()
		return phaseResult{}, err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		ring := batchio.NewRing(64, 2048)
		for {
			n, err := echo.ReadBatch(ring)
			if err != nil {
				return // closed
			}
			_, _ = echo.WriteBatch(ring, n) // each slot's source is its destination
		}
	}()
	defer func() {
		echo.Close()
		<-done
	}()
	ap := uc.LocalAddr().(*net.UDPAddr).AddrPort()
	gen, err := newWireGen(netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port()), func(m *netproto.Message) (bool, error) {
		if m.Type != netproto.MsgQuery {
			return false, fmt.Errorf("%w: echo changed the message type", errInvalid)
		}
		return false, nil
	})
	if err != nil {
		return phaseResult{}, err
	}
	defer gen.Close()
	return gen.run(s), nil
}

// nodeCalls times single NodeClient.Query round trips against one loopback
// NodeServer: the price of one node call where the workload makes none.
func nodeCalls(keys []uint64) ([]float64, error) {
	eng, err := engine.NewFromSpec(cachePolicy, engine.Config{})
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	ns, err := netproto.NewNodeServer("127.0.0.1:0", netproto.NodeConfig{Engine: eng, RingSeed: clusterCfg.Seed})
	if err != nil {
		return nil, err
	}
	defer ns.Close()
	nc, err := netproto.DialNode(ns.UDPAddr(), ns.TCPAddr(), 0, 0)
	if err != nil {
		return nil, err
	}
	defer nc.Close()
	us := make([]float64, 0, len(keys))
	for _, k := range keys {
		t0 := time.Now()
		if _, _, err := nc.Query(k); err != nil {
			return nil, err
		}
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return us, nil
}

// routerReplay replays the op sequence s through a router over three
// in-process LocalPeers whose caches warm holds. With rec set, the peers are
// wrapped and each op of s is bracketed on a locked thread, so the recorder
// splits router self time from peer time.
type routerReplay struct {
	opNs         float64
	loadsPerOp   float64
	pendingHints int
	degraded     bool
}

func replayRouter(warm, s schedule, rec *peerRecorder) (routerReplay, error) {
	var wrap func(cluster.Peer, bool) cluster.Peer
	if rec != nil {
		wrap = rec.wrap
	}
	st, _, err := newClusterStack(false, wrap)
	if err != nil {
		return routerReplay{}, err
	}
	defer st.Close()
	if err := st.warm(warm); err != nil {
		return routerReplay{}, err
	}
	var out routerReplay
	var runErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		var hooks *workerHooks
		if rec != nil {
			runtime.LockOSThread() // the wrapper names the replay by its thread
			hooks = rec.hooks()
			hooks.start(0, threadID())
		}
		t0 := time.Now()
		for i, k := range s.keys {
			var err error
			if hooks != nil {
				hooks.begin(0, int64(i))
				st0 := time.Now()
				_, err = st.op(0, k, s.upd[i], uint64(i))
				hooks.end(0, int64(i), 0, int64(time.Since(st0)))
			} else {
				_, err = st.op(0, k, s.upd[i], uint64(i))
			}
			if err != nil && runErr == nil {
				runErr = err
			}
		}
		out.opNs = float64(time.Since(t0).Nanoseconds()) / float64(len(s.keys))
		out.loadsPerOp = float64(st.loads[0]) / float64(len(s.keys))
	}()
	<-done
	out.pendingHints = st.router.PendingHints()
	out.degraded = st.router.Degraded()
	return out, runErr
}
