package netproto

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/p4lru/p4lru/internal/engine"
	"github.com/p4lru/p4lru/internal/hashing"
	"github.com/p4lru/p4lru/internal/netproto/batchio"
	"github.com/p4lru/p4lru/internal/obs"
	"github.com/p4lru/p4lru/internal/obs/span"
	"github.com/p4lru/p4lru/internal/policy"
	"github.com/p4lru/p4lru/internal/resilience"
)

// Switch is the in-network middlebox: a UDP proxy between clients and the
// server that carries the series-connected P4LRU3 index cache. Query packets
// consult the cache read-only and stamp cached_flag/cached_index; reply
// packets perform the only cache mutations (§3.2's query/update separation).
//
// A hardware pipeline serializes packets per stage but processes one packet
// per clock because every P4LRU unit is independent (§1.2) — and because
// every stage sees a steady stream of packets, not one packet per
// invocation. This software stand-in now has both halves: the sharded
// engine keeps per-shard work disjoint, and the batchio layer moves whole
// recvmmsg/sendmmsg batches of datagrams per syscall, decoded in place in a
// ring of reusable buffers and forwarded by patching the cached fields into
// the original packet bytes — no per-packet allocation, no re-marshal, one
// syscall per batch in each direction. Reply batches decode straight into
// an engine.Op slice and go through ApplyBatch before any reply is
// forwarded, preserving the reply-after-mutation ordering the paper's
// pipeline pass guarantees.
type Switch struct {
	plane      plane
	serverAddr netip.AddrPort

	eng    *engine.Engine
	tracer *span.Tracer

	// peers routes replies back to the querying client (the role the
	// network's addressing plays on a real switch path). Striped so
	// concurrent readers touching different keys don't share a lock; the
	// values are netip.AddrPort — plain comparable values, so storing one
	// copies it out of the ring slot it was decoded from.
	peers    [peerStripes]peerStripe
	peerHash hashing.Hash

	// Stats.
	queries atomic.Int64
	hits    atomic.Int64
}

const peerStripes = 64

type peerStripe struct {
	mu sync.Mutex
	m  map[uint64]netip.AddrPort
}

// packetBufSize is the ring slot size: comfortably above header + value for
// every protocol message, far below the old 64KiB per-read scratch.
const packetBufSize = 2048

// SwitchConfig parameterizes NewSwitch. The zero value plus a ServerAddr is
// a working switch: loopback listener, the default series policy, engine
// shards sized to the machine.
type SwitchConfig struct {
	// ListenAddr is the client-facing bind address (default "127.0.0.1:0").
	ListenAddr string
	// ServerAddr is where query packets are forwarded. Required.
	ServerAddr *net.UDPAddr
	// Policy declares the cache: kind, memory budget, series shape, seed.
	// The zero value means the default series deployment
	// (series:levels=4,unitcap=3 over policy.DefaultMemBytes). The spec's
	// memory budget is split evenly across the engine shards.
	Policy policy.Spec
	// Shards is the engine shard count (0 = GOMAXPROCS).
	Shards int
	// Obs instruments the switch's engine (per-shard occupancy, queue
	// depth, ops) on the given registry.
	Obs *obs.Registry
	// Span traces both proxy directions and the switch's engine: query
	// packets decompose into decode → cache lookup → forward, reply packets
	// into decode → cache mutation → reply.
	Span *span.Tracer
}

func (c SwitchConfig) withDefaults() SwitchConfig {
	if c.ListenAddr == "" {
		c.ListenAddr = "127.0.0.1:0"
	}
	if c.Policy.Kind == "" {
		c.Policy.Kind = policy.KindSeries
	}
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	return c
}

// NewSwitch starts a switch from cfg: engine built from cfg.Policy, and
// one batched reader per direction for each of the plane's readers.
func NewSwitch(cfg SwitchConfig) (*Switch, error) {
	cfg = cfg.withDefaults()
	if cfg.ServerAddr == nil {
		return nil, fmt.Errorf("netproto: SwitchConfig.ServerAddr is required")
	}
	eng, err := engine.NewFromSpec(cfg.Policy, engine.Config{
		Shards: cfg.Shards,
		Obs:    cfg.Obs,
		Span:   cfg.Span,
	})
	if err != nil {
		return nil, fmt.Errorf("netproto: engine: %w", err)
	}
	sw := &Switch{
		serverAddr: unmap(cfg.ServerAddr.AddrPort()),
		eng:        eng,
		tracer:     cfg.Span,
		peerHash:   hashing.New(cfg.Policy.Seed ^ 0x9ee2),
	}
	for i := range sw.peers {
		sw.peers[i].m = make(map[uint64]netip.AddrPort)
	}
	if err := sw.start(cfg.ListenAddr); err != nil {
		sw.Close()
		return nil, err
	}
	return sw, nil
}

// start binds the client-facing group and, per reader, one server-facing
// socket, and runs both directions over them. The reply to a query
// forwarded on server-facing socket i comes back to socket i, so reply
// batches keep per-reader affinity without any demux map.
func (sw *Switch) start(listenAddr string) error {
	clients, err := sw.plane.listen(listenAddr)
	if err != nil {
		return fmt.Errorf("netproto: listen client side: %w", err)
	}
	for i := 0; i < planeReaders(); i++ {
		uc, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			return fmt.Errorf("netproto: listen server side: %w", err)
		}
		servers, err := sw.plane.adopt(uc)
		if err != nil {
			return fmt.Errorf("netproto: server conn: %w", err)
		}
		cc, sc := clients[i%len(clients)], servers[0]
		sw.plane.serve(cc, sc, planeBatch, sw.forwardQueries, span.KindQuery)
		sw.plane.serve(sc, cc, planeBatch, sw.replyHandler(), span.KindReply)
	}
	return nil
}

// unmap normalizes v4-in-v6 so AddrPort values compare equal regardless of
// which socket family produced them.
func unmap(ap netip.AddrPort) netip.AddrPort {
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
}

// Addr returns the client-facing address.
func (sw *Switch) Addr() *net.UDPAddr { return sw.plane.addr() }

// Engine exposes the serving engine (shard routing, stats and snapshots,
// for tests and observability wiring).
func (sw *Switch) Engine() *engine.Engine { return sw.eng }

// SwitchStats is one consistent-enough snapshot of the switch's serving
// counters — the single accessor that replaced the scattered tuple getters.
type SwitchStats struct {
	Queries     int64 // query packets decoded
	Hits        int64 // queries answered from the index cache
	CacheLen    int   // cached indexes across all engine shards
	RecvBatches int64 // batched reads (both directions)
	RecvPackets int64 // datagrams those reads carried
	Batched     bool  // this build moves multi-datagram batches per syscall
}

// HitRate returns Hits/Queries (0 when idle).
func (st SwitchStats) HitRate() float64 {
	if st.Queries == 0 {
		return 0
	}
	return float64(st.Hits) / float64(st.Queries)
}

// Stats snapshots the switch counters.
func (sw *Switch) Stats() SwitchStats {
	return SwitchStats{
		Queries:     sw.queries.Load(),
		Hits:        sw.hits.Load(),
		CacheLen:    sw.eng.Len(),
		RecvBatches: sw.plane.recvBatches.Load(),
		RecvPackets: sw.plane.recvPackets.Load(),
		Batched:     batchio.Batched(),
	}
}

// Health returns a probe aggregator wired to the switch's engine: the
// switch goes unready if a shard writer stalls or once Close begins.
func (sw *Switch) Health() *resilience.Health {
	h := resilience.NewHealth()
	h.Register("engine", sw.eng.Healthy)
	h.Register("shutdown", func() error {
		if sw.plane.closed.Load() {
			return errors.New("netproto: switch shutting down")
		}
		return nil
	})
	return h
}

// Close stops both proxy directions, draining in-flight packet handling
// first (each reader finishes its cache mutations and forwards before the
// sockets close), and then the engine.
func (sw *Switch) Close() error {
	err := sw.plane.close()
	sw.eng.Close()
	return err
}

func (sw *Switch) peerStripeFor(key uint64) *peerStripe {
	return &sw.peers[sw.peerHash.Index(key, peerStripes)]
}

// forwardQueries handles the query direction: client → (cache lookup) →
// server. Each query packet of the batch is decoded in place, consulted
// against its home shard, stamped by patching cached_flag and cached_index
// into the original bytes, and retargeted at the server.
func (sw *Switch) forwardQueries(ring *batchio.Ring, got int, spans []span.Span) int {
	ds := ring.Datagrams()
	keep := 0
	for i := 0; i < got; i++ {
		d := &ds[i]
		sp := sw.tracer.Start(0, 0)
		var msg Message
		if err := msg.Unmarshal(d.Bytes()); err != nil || msg.Type != MsgQuery {
			continue
		}
		sp.SetKey(msg.Key)
		sp.Mark(span.StageDecode)
		sw.queries.Add(1)

		// Read-only cache consult on the key's home shard; stamp the
		// header fields straight into the packet bytes.
		idx, tok, ok := sw.eng.QuerySpanned(msg.Key, &sp)
		st := sw.peerStripeFor(msg.Key)
		st.mu.Lock()
		st.m[msg.Key] = d.Addr
		st.mu.Unlock()
		if ok {
			sw.hits.Add(1)
			sp.SetFlags(span.FlagHit)
			PatchCached(d.Bytes(), uint8(tok.Level()), idx)
		} else {
			PatchCached(d.Bytes(), 0, 0)
		}
		d.Addr = sw.serverAddr
		keep = keepSlot(ring, spans, keep, i, sp)
	}
	return keep
}

// replyHandler returns one reader's handler for the reply direction:
// server → (cache update) → client. A reply batch decodes straight into
// the reader's own engine.Op slice; the whole slice goes through the
// synchronous ApplyBatch — one lock visit per shard — and only then is the
// batch handed back for sending, so a reply leaves the switch strictly
// after its mutation, exactly the ordering the paper's reply pipeline pass
// guarantees per packet.
func (sw *Switch) replyHandler() handler {
	ops := make([]engine.Op, 0, planeBatch)
	addrs := make([]netip.AddrPort, planeBatch)
	return func(ring *batchio.Ring, got int, spans []span.Span) int {
		ds := ring.Datagrams()
		keep := 0
		ops = ops[:0]
		for i := 0; i < got; i++ {
			d := &ds[i]
			sp := sw.tracer.Start(0, 0)
			var msg Message
			if err := msg.Unmarshal(d.Bytes()); err != nil || msg.Type != MsgReply {
				continue
			}
			sp.SetKey(msg.Key)
			sp.SetShard(sw.eng.ShardFor(msg.Key))
			sp.Mark(span.StageDecode)

			ops = append(ops, engine.Op{
				Key:   msg.Key,
				Value: msg.CachedIndex,
				Token: policy.Token(msg.CachedFlag),
			})
			st := sw.peerStripeFor(msg.Key)
			st.mu.Lock()
			addrs[keep] = st.m[msg.Key]
			st.mu.Unlock()
			keep = keepSlot(ring, spans, keep, i, sp)
		}
		// The reply path performs the only cache mutations: promote each
		// key at its level, or insert at level 1 and cascade demotions.
		sw.eng.ApplyBatch(ops)
		// Second compaction: replies whose querying peer is unknown (e.g. a
		// restarted switch seeing a stale reply) still applied their ops
		// above but have nowhere to go.
		send := 0
		for i := 0; i < keep; i++ {
			spans[i].Mark(span.StageApply)
			if !addrs[i].IsValid() {
				continue
			}
			ds[i].Addr = addrs[i]
			send = keepSlot(ring, spans, send, i, spans[i])
		}
		return send
	}
}
