package netproto

import (
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"github.com/p4lru/p4lru/internal/kvindex"
	"github.com/p4lru/p4lru/internal/netproto/batchio"
	"github.com/p4lru/p4lru/internal/obs/span"
	"github.com/p4lru/p4lru/internal/resilience"
)

// Server answers MsgQuery packets over UDP from the kvindex database: when
// the query carries a cached_flag it reads the value straight from the
// arena; otherwise it walks the B+ tree and embeds the resolved index into
// the reply so the switch can cache it.
//
// The serving loop is batched end to end: one recvmmsg drains a batch of
// queries, each query packet is rewritten into its reply in the same ring
// slot (header re-stamped, value copied in — the only copy on the path),
// and one sendmmsg returns the batch to its senders. On Linux every reader
// goroutine owns an SO_REUSEPORT socket, so the kernel fans flows across
// cores.
type Server struct {
	plane   plane
	db      *kvindex.Server
	shedder *resilience.Shedder
	health  *resilience.Health
	tracer  *span.Tracer

	// Stats.
	queries     atomic.Int64
	shed        atomic.Int64
	indexWalks  atomic.Int64
	nodesWalked atomic.Int64
}

// ServerOption tunes a Server beyond the required parameters.
type ServerOption func(*Server)

// ServerWithShedder gates query handling behind the shedder: each query asks
// for admission at normal priority, and the batch's per-query handling
// latency feeds the shedder's EWMA, so a server falling behind sheds (drops)
// queries instead of queueing into collapse. Dropped queries look like
// packet loss to clients, whose retry machinery already absorbs it.
func ServerWithShedder(sh *resilience.Shedder) ServerOption {
	return func(s *Server) { s.shedder = sh }
}

// ServerWithSpan traces each handled query: decode, index resolve (StageApply
// — it's the server's service stage), and reply write land as separate stage
// marks, so a slow server decomposes into parse vs walk vs socket time.
func ServerWithSpan(t *span.Tracer) ServerOption {
	return func(s *Server) { s.tracer = t }
}

// NewServer starts a server on addr (e.g. "127.0.0.1:0") over a database of
// `items` keys. The database is read-only after load, so several readers
// answer queries concurrently.
func NewServer(addr string, items int, opts ...ServerOption) (*Server, error) {
	s := &Server{db: kvindex.NewServer(items), health: resilience.NewHealth()}
	for _, o := range opts {
		o(s)
	}
	s.health.Register("shutdown", func() error {
		if s.plane.closed.Load() {
			return errors.New("netproto: server shutting down")
		}
		return nil
	})
	if s.shedder != nil {
		s.health.Register("shedder", s.shedder.Check)
	}
	if err := s.plane.listenAndServe(addr, planeBatch, s.answer, span.KindReply); err != nil {
		return nil, fmt.Errorf("netproto: listen: %w", err)
	}
	return s, nil
}

// Addr returns the bound address.
func (s *Server) Addr() *net.UDPAddr { return s.plane.addr() }

// ServerStats is one snapshot of the server's serving counters — the single
// accessor that replaced the scattered tuple getters. After a clean Close,
// Queries == Replies + Shed when all traffic was for loaded keys.
type ServerStats struct {
	Queries     int64 // query packets decoded
	Replies     int64 // replies sent
	Shed        int64 // queries dropped by the shedder
	IndexWalks  int64 // full B+ tree walks (uncached queries)
	NodesWalked int64 // total nodes those walks touched
	RecvBatches int64 // batched reads
	RecvPackets int64 // datagrams those reads carried
}

// Stats snapshots the server counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Queries:     s.queries.Load(),
		Replies:     s.plane.sent.Load(),
		Shed:        s.shed.Load(),
		IndexWalks:  s.indexWalks.Load(),
		NodesWalked: s.nodesWalked.Load(),
		RecvBatches: s.plane.recvBatches.Load(),
		RecvPackets: s.plane.recvPackets.Load(),
	}
}

// Health returns the server's probe aggregator (mount its ServeHTTP on
// /healthz and /readyz). It ships with a "shutdown" check that fails once
// Close begins and, when configured, the shedder's check; callers may
// Register more — e.g. a backing breaker's Check.
func (s *Server) Health() *resilience.Health { return s.health }

// Close stops the server, draining in-flight request handling first: every
// query a reader took off the socket gets its reply out before the sockets
// close.
func (s *Server) Close() error { return s.plane.close() }

// answer rewrites each query of a batch into its reply in the same ring
// slot and drops malformed traffic, shed queries and unknown keys.
func (s *Server) answer(ring *batchio.Ring, got int, spans []span.Span) int {
	var start time.Time
	if s.shedder != nil {
		start = time.Now()
	}
	ds := ring.Datagrams()
	keep := 0
	for i := 0; i < got; i++ {
		d := &ds[i]
		sp := s.tracer.Start(0, 0)
		var msg Message
		if err := msg.Unmarshal(d.Bytes()); err != nil || msg.Type != MsgQuery {
			continue // drop malformed traffic
		}
		sp.SetKey(msg.Key)
		sp.Mark(span.StageDecode)
		s.queries.Add(1)
		if s.shedder != nil && !s.shedder.Admit(resilience.PriNormal, 0) {
			s.shed.Add(1)
			sp.SetFlags(span.FlagShed)
			sp.Finish(span.KindShed)
			continue // to the client this is packet loss; retries absorb it
		}

		idx, value, nodes, ok := s.db.Resolve(msg.Key, msg.CachedIndex, msg.CachedFlag != 0)
		sp.Mark(span.StageApply) // the server's service stage: the index resolve
		if !ok {
			continue // unknown key: drop (clients only ask for loaded keys)
		}
		if nodes > 0 {
			s.indexWalks.Add(1)
			s.nodesWalked.Add(int64(nodes))
		}
		if msg.CachedFlag != 0 {
			sp.SetFlags(span.FlagHit) // cached_flag token: arena read, no walk
		}

		// Rewrite the query into its reply in the same ring slot; the
		// source address is already in place as the destination.
		d.N = PutReply(d.Buf, msg.CachedFlag, msg.Key, idx, value)
		keep = keepSlot(ring, spans, keep, i, sp)
	}
	if keep > 0 && s.shedder != nil {
		// Per-query handling latency: decode, admission and resolve,
		// amortized over the batch's queries. It is observed before the
		// send, so a sample never lands after the client has its reply.
		s.shedder.Observe(time.Since(start) / time.Duration(keep))
	}
	return keep
}
