package netproto

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/p4lru/p4lru/internal/engine"
	"github.com/p4lru/p4lru/internal/hashing"
	"github.com/p4lru/p4lru/internal/netproto/batchio"
	"github.com/p4lru/p4lru/internal/obs"
	"github.com/p4lru/p4lru/internal/obs/span"
	"github.com/p4lru/p4lru/internal/policy"
)

// This file is the cluster tier's wire: a NodeServer fronts one serving
// engine as a peer other nodes (and the cluster router) reach over netproto,
// and a NodeClient is the matching dialer. Two planes share the peer
// address:
//
//   - UDP carries the per-key operations: MsgPing/MsgPong heartbeats,
//     MsgQuery/MsgReply point reads (CachedFlag 1 = hit, CachedIndex = the
//     cached value), and MsgUpdate/MsgUpdateAck synchronous installs — the
//     ack is only sent after engine.Apply returns and echoes the applied
//     value, so an acked update is applied, which is what lets the router
//     promise zero lost acknowledged updates on surviving nodes.
//   - TCP carries migration: bulk key-range handoff is a stream, not a
//     datagram exchange, so it rides the engine's self-delimiting
//     checksummed Snapshot format framed by a single wire header.
//     MsgMigratePull asks the node to stream the slice of its contents
//     whose ring position falls inside a set of (from, to] hash arcs
//     (engine.SnapshotFiltered); MsgMigratePush hands the node a snapshot
//     to restore, answered by MsgMigrateDone carrying the pair count.
type NodeServer struct {
	eng *engine.Engine
	// posHash places keys on the cluster ring; it must be seeded
	// identically on every node or range-filtered snapshots would slice
	// different key sets on different peers.
	posHash hashing.Hash
	gossip  func(in []MemberDigest) []MemberDigest

	plane plane
	tcp   net.Listener
	wg    sync.WaitGroup // the TCP plane's accept loop and streams

	pings, queries, updates, migrations, gossips *obs.Counter
}

// NodeConfig parameterizes NewNodeServer.
type NodeConfig struct {
	// Engine is the node's serving engine. Required; the server does not
	// own it (Close leaves it running) so a node can be drained, snapshotted
	// and restarted around the same engine.
	Engine *engine.Engine
	// RingSeed seeds the ring-position hash used to filter migration
	// streams. Every node and router in one cluster must share it.
	RingSeed uint64
	// Gossip, when non-nil, answers MsgGossip exchanges: the handler merges
	// the sender's membership digest and returns the node's own view, which
	// rides back on the MsgGossipAck. The cluster layer's Membership.Exchange
	// has exactly this signature. nil nodes ignore gossip datagrams. The
	// node's readers call it concurrently, so it must be safe for that
	// (Membership.Exchange takes its own lock).
	Gossip func(in []MemberDigest) []MemberDigest
	// Obs, when non-nil, receives node_pings_total, node_queries_total,
	// node_updates_total, node_migrations_total and node_gossips_total.
	Obs *obs.Registry
}

// NewNodeServer binds the UDP operation plane and a TCP listener on addr
// (use "127.0.0.1:0" in tests; the two planes get independent ports, read
// them back via UDPAddr/TCPAddr) and serves until Close.
func NewNodeServer(addr string, cfg NodeConfig) (*NodeServer, error) {
	if cfg.Engine == nil {
		return nil, fmt.Errorf("netproto: NodeConfig.Engine is required")
	}
	s := &NodeServer{
		eng:     cfg.Engine,
		posHash: hashing.New(cfg.RingSeed),
		gossip:  cfg.Gossip,
	}
	if r := cfg.Obs; r != nil {
		s.pings = r.Counter("node_pings_total")
		s.queries = r.Counter("node_queries_total")
		s.updates = r.Counter("node_updates_total")
		s.migrations = r.Counter("node_migrations_total")
		s.gossips = r.Counter("node_gossips_total")
	}
	// The node traces nothing: its spans stay inert.
	if err := s.plane.listenAndServe(addr, nodeBatch, s.answer, span.KindNone); err != nil {
		return nil, fmt.Errorf("netproto: node udp listen: %w", err)
	}
	var err error
	if s.tcp, err = net.Listen("tcp", addr); err != nil {
		s.plane.close()
		return nil, fmt.Errorf("netproto: node tcp listen: %w", err)
	}
	s.wg.Add(1)
	go s.tcpLoop()
	return s, nil
}

// UDPAddr returns the bound operation-plane address.
func (s *NodeServer) UDPAddr() *net.UDPAddr { return s.plane.addr() }

// TCPAddr returns the bound migration-plane address.
func (s *NodeServer) TCPAddr() string { return s.tcp.Addr().String() }

// Close stops both planes, the UDP one draining first: every request a
// reader took off the socket gets its reply before the sockets close. The
// engine is left running (the caller owns it).
func (s *NodeServer) Close() {
	_ = s.plane.close()
	_ = s.tcp.Close()
	s.wg.Wait()
}

// answer serves one batch of the operation plane: pings, gossip exchanges,
// point queries and synchronous updates, each reply written over its
// request in the same ring slot and sent back to the request's source.
// Malformed datagrams and unknown types are dropped. The cluster's node
// client keeps one op in flight per peer, so at today's load a batch is
// usually one datagram.
func (s *NodeServer) answer(ring *batchio.Ring, got int, spans []span.Span) int {
	ds := ring.Datagrams()
	keep := 0
	for i := 0; i < got; i++ {
		d := &ds[i]
		var msg Message
		if err := msg.Unmarshal(d.Bytes()); err != nil {
			continue
		}
		switch msg.Type {
		case MsgPing:
			s.pings.Inc()
			putHeader(d.Buf, MsgPong, 0, msg.Key, 0)
			d.N = headerSize
		case MsgGossip:
			in, err := parseMemberDigests(msg.Value)
			if err != nil {
				continue
			}
			s.gossips.Inc()
			// The merge and the reply digest come from the same handler
			// call, so the ack reflects the post-merge view — one exchange
			// converges both sides, which is what lets a router bootstrap a
			// whole membership from any single live peer. A node with no
			// handler is ignorant, not dead: it acks with an empty view so
			// the sender's breaker doesn't score it unreachable.
			var reply []MemberDigest
			if s.gossip != nil {
				reply = s.gossip(in)
			}
			putHeader(d.Buf, MsgGossipAck, 0, msg.Key, 0)
			// The encoder refuses to outgrow the packet buffer, so the
			// digest lands in d.Buf itself.
			full, err := appendMemberDigests(d.Buf[:headerSize], reply)
			if err != nil {
				continue
			}
			d.N = len(full)
		case MsgQuery:
			s.queries.Inc()
			v, _, ok := s.eng.Query(msg.Key)
			flag := uint8(0)
			if ok {
				flag = 1
			}
			putHeader(d.Buf, MsgReply, flag, msg.Key, v)
			d.N = headerSize
		case MsgUpdate:
			s.updates.Inc()
			s.eng.Apply(engine.Op{
				Key:   msg.Key,
				Value: msg.CachedIndex,
				Token: policy.NoToken,
				Now:   s.eng.Now(),
			})
			// Ack strictly after Apply returned: acked ⇒ applied. The ack
			// echoes the value, so a late ack cannot pass for a later write's.
			putHeader(d.Buf, MsgUpdateAck, 0, msg.Key, msg.CachedIndex)
			d.N = headerSize
		default:
			continue
		}
		keep = keepSlot(ring, spans, keep, i, span.Span{})
	}
	return keep
}

// tcpLoop accepts migration streams.
func (s *NodeServer) tcpLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.tcp.Accept()
		if err != nil {
			if s.plane.closed.Load() {
				return
			}
			continue
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer conn.Close()
			s.serveMigration(conn)
		}()
	}
}

// serveMigration handles one migration exchange on conn.
func (s *NodeServer) serveMigration(conn net.Conn) {
	_ = conn.SetDeadline(time.Now().Add(30 * time.Second))
	br := bufio.NewReader(conn)
	var head [headerSize]byte
	if _, err := io.ReadFull(br, head[:]); err != nil {
		return
	}
	var msg Message
	if err := msg.Unmarshal(head[:]); err != nil {
		return
	}
	switch msg.Type {
	case MsgMigratePull:
		arcs, err := readArcs(br)
		if err != nil {
			return
		}
		s.migrations.Inc()
		keep := func(key uint64) bool {
			h := s.posHash.Uint64(key)
			for _, a := range arcs {
				if arcContains(a, h) {
					return true
				}
			}
			return false
		}
		// The snapshot image is self-delimiting (terminating chunk +
		// checksummed trailer), so the stream needs no extra framing.
		_ = s.eng.SnapshotFiltered(conn, keep)
	case MsgMigratePush:
		s.migrations.Inc()
		restore := s.eng.RestoreSnapshot
		if msg.CachedFlag != 0 {
			// Keep-existing mode: the pusher flipped ring ownership before
			// streaming, so resident keys are fresher than the image.
			restore = s.eng.RestoreSnapshotIfAbsent
		}
		n, err := restore(br)
		flag := uint8(1)
		if err != nil {
			flag = 0
		}
		var done [headerSize]byte
		putHeader(done[:], MsgMigrateDone, flag, 0, uint64(n))
		_, _ = conn.Write(done[:])
	}
}

// arcContains reports whether ring position h falls in the half-open arc
// (from, to], wrapping through zero when from ≥ to. A degenerate arc with
// from == to covers the whole ring (a single-node membership).
func arcContains(a [2]uint64, h uint64) bool {
	from, to := a[0], a[1]
	if from < to {
		return from < h && h <= to
	}
	return h > from || h <= to
}

// readArcs decodes the MsgMigratePull arc list: uint32 n, then n pairs of
// little-endian uint64 (from, to].
func readArcs(r io.Reader) ([][2]uint64, error) {
	var nb [4]byte
	if _, err := io.ReadFull(r, nb[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(nb[:])
	if n > 1<<16 {
		return nil, fmt.Errorf("netproto: %d migration arcs exceeds sanity bound", n)
	}
	arcs := make([][2]uint64, n)
	var buf [16]byte
	for i := range arcs {
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			return nil, err
		}
		arcs[i][0] = binary.LittleEndian.Uint64(buf[0:8])
		arcs[i][1] = binary.LittleEndian.Uint64(buf[8:16])
	}
	return arcs, nil
}

// writeArcs is readArcs' encoder.
func writeArcs(w io.Writer, arcs [][2]uint64) error {
	var nb [4]byte
	binary.LittleEndian.PutUint32(nb[:], uint32(len(arcs)))
	if _, err := w.Write(nb[:]); err != nil {
		return err
	}
	var buf [16]byte
	for _, a := range arcs {
		binary.LittleEndian.PutUint64(buf[0:8], a[0])
		binary.LittleEndian.PutUint64(buf[8:16], a[1])
		if _, err := w.Write(buf[:]); err != nil {
			return err
		}
	}
	return nil
}

// NodeClient dials one NodeServer. Operations are mutex-serialized over a
// single connected UDP socket (replies are matched by echoed key, and update
// acks also by echoed value, so a stale reply from a timed-out attempt
// cannot answer another key's call or ack a later write of another value);
// migration streams open a fresh TCP connection each. The cluster router
// keeps one NodeClient per peer — peer fan-out is concurrent across clients,
// serial per peer, which matches the one-socket-per-peer heartbeat model.
type NodeClient struct {
	mu      sync.Mutex
	conn    *net.UDPConn
	buf     []byte
	tcpAddr string
	timeout time.Duration
	retries int
	nonce   atomic.Uint64
}

// DialNode connects to a node's UDP and TCP addresses. timeout bounds each
// attempt (0 = 100ms); retries is how many times a timed-out attempt is
// re-sent (0 = 1; NoRetries = single-shot).
func DialNode(udpAddr *net.UDPAddr, tcpAddr string, timeout time.Duration, retries int) (*NodeClient, error) {
	if timeout == 0 {
		timeout = 100 * time.Millisecond
	}
	switch {
	case retries == 0:
		retries = 1
	case retries == NoRetries:
		retries = 0
	case retries < 0:
		return nil, fmt.Errorf("netproto: DialNode retries = %d (use NoRetries for single-shot)", retries)
	}
	conn, err := net.DialUDP("udp", nil, udpAddr)
	if err != nil {
		return nil, fmt.Errorf("netproto: dial node: %w", err)
	}
	return &NodeClient{
		conn:    conn,
		buf:     make([]byte, packetBufSize),
		tcpAddr: tcpAddr,
		timeout: timeout,
		retries: retries,
	}, nil
}

// Close releases the UDP socket.
func (c *NodeClient) Close() error { return c.conn.Close() }

// Addrs returns the node's two plane addresses (UDP ops, TCP migration) —
// what gossip digests advertise so other routers can dial this node.
func (c *NodeClient) Addrs() (udp, tcp string) {
	return c.conn.RemoteAddr().String(), c.tcpAddr
}

// roundTrip sends one request and waits for the matching reply type echoing
// key, retrying timed-out attempts. An update ack must also echo the value
// sent (idx): a late ack for an earlier write of the same key is stale.
// Errors carry the ErrTimeout / ErrUnreachable classification.
func (c *NodeClient) roundTrip(typ MsgType, key, idx uint64, want MsgType) (Message, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var lastErr error
	for attempt := 0; attempt <= c.retries; attempt++ {
		putHeader(c.buf, typ, 0, key, idx)
		if _, err := c.conn.Write(c.buf[:headerSize]); err != nil {
			lastErr = err
			continue
		}
		if err := c.conn.SetReadDeadline(time.Now().Add(c.timeout)); err != nil {
			return Message{}, err
		}
		for {
			n, err := c.conn.Read(c.buf)
			if err != nil {
				lastErr = err
				break
			}
			var msg Message
			if err := msg.Unmarshal(c.buf[:n]); err != nil || msg.Type != want || msg.Key != key ||
				want == MsgUpdateAck && msg.CachedIndex != idx {
				continue // stale or foreign reply
			}
			return msg, nil
		}
	}
	return Message{}, fmt.Errorf("netproto: node %s %d failed after %d attempts: %w",
		c.conn.RemoteAddr(), typ, c.retries+1, classifyAttempt(lastErr))
}

// Ping round-trips a heartbeat.
func (c *NodeClient) Ping() error {
	_, err := c.roundTrip(MsgPing, c.nonce.Add(1), 0, MsgPong)
	return err
}

// Gossip exchanges membership digests with the node over the heartbeat
// plane: out rides a MsgGossip datagram, the node merges it, and the reply
// is the node's own (post-merge) view. Timed-out attempts retry like every
// other UDP operation; errors carry the ErrTimeout / ErrUnreachable
// classification so breakers treat a mute gossip peer like a mute ping peer.
func (c *NodeClient) Gossip(out []MemberDigest) ([]MemberDigest, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	nonce := c.nonce.Add(1)
	var lastErr error
	for attempt := 0; attempt <= c.retries; attempt++ {
		putHeader(c.buf, MsgGossip, 0, nonce, 0)
		pkt, err := appendMemberDigests(c.buf[:headerSize], out)
		if err != nil {
			return nil, err // over the datagram bound: not retryable
		}
		if _, err := c.conn.Write(pkt); err != nil {
			lastErr = err
			continue
		}
		if err := c.conn.SetReadDeadline(time.Now().Add(c.timeout)); err != nil {
			return nil, err
		}
		for {
			n, err := c.conn.Read(c.buf)
			if err != nil {
				lastErr = err
				break
			}
			var msg Message
			if err := msg.Unmarshal(c.buf[:n]); err != nil || msg.Type != MsgGossipAck || msg.Key != nonce {
				continue // stale or foreign reply
			}
			return parseMemberDigests(msg.Value)
		}
	}
	return nil, fmt.Errorf("netproto: node %s gossip failed after %d attempts: %w",
		c.conn.RemoteAddr(), c.retries+1, classifyAttempt(lastErr))
}

// Query reads key from the node's engine: (value, true) on a hit.
func (c *NodeClient) Query(key uint64) (uint64, bool, error) {
	msg, err := c.roundTrip(MsgQuery, key, 0, MsgReply)
	if err != nil {
		return 0, false, err
	}
	return msg.CachedIndex, msg.CachedFlag != 0, nil
}

// Update installs key → val synchronously; a nil return means the node
// acked after applying.
func (c *NodeClient) Update(key, val uint64) error {
	_, err := c.roundTrip(MsgUpdate, key, val, MsgUpdateAck)
	return err
}

// migrateStreamBudget bounds one whole migration stream once its header
// exchange succeeded — generous because it covers a bulk snapshot transfer,
// not one datagram's RTT.
const migrateStreamBudget = 30 * time.Second

// dialPlane opens one migration-plane connection with the same per-attempt
// deadline discipline as the UDP ops plane: the dial and the header exchange
// are bounded by the client's attempt timeout, and failures carry the typed
// ErrTimeout / ErrUnreachable classification so per-peer breakers score a
// slow migration plane exactly like a slow ops plane.
func (c *NodeClient) dialPlane(op string) (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", c.tcpAddr, c.timeout)
	if err != nil {
		return nil, fmt.Errorf("netproto: %s dial: %w", op, classifyAttempt(err))
	}
	// The header exchange must answer within one attempt budget; the caller
	// widens the deadline to the stream budget once the exchange succeeds.
	_ = conn.SetDeadline(time.Now().Add(c.timeout))
	return conn, nil
}

// OpenPull asks the node to stream the slice of its contents inside arcs as
// a snapshot image and returns the stream. The caller must Close it (the
// image is self-delimiting, so a reader may stop at the snapshot trailer).
// Setup failures carry the ErrTimeout / ErrUnreachable classification.
func (c *NodeClient) OpenPull(arcs [][2]uint64) (io.ReadCloser, error) {
	conn, err := c.dialPlane("migration pull")
	if err != nil {
		return nil, err
	}
	var head [headerSize]byte
	putHeader(head[:], MsgMigratePull, 0, 0, 0)
	if _, err := conn.Write(head[:]); err != nil {
		conn.Close()
		return nil, fmt.Errorf("netproto: migration request: %w", classifyAttempt(err))
	}
	if err := writeArcs(conn, arcs); err != nil {
		conn.Close()
		return nil, fmt.Errorf("netproto: migration arcs: %w", classifyAttempt(err))
	}
	_ = conn.SetDeadline(time.Now().Add(migrateStreamBudget))
	return conn, nil
}

// Push streams a snapshot image from r into the node's engine and returns
// the restored pair count from the MsgMigrateDone ack. With keepExisting
// set the node skips keys already resident instead of overwriting them
// (RestoreSnapshotIfAbsent) — the mode cluster migration uses after a ring
// swap, when resident keys are fresher than the image. Transport failures
// carry the ErrTimeout / ErrUnreachable classification.
func (c *NodeClient) Push(r io.Reader, keepExisting bool) (int, error) {
	conn, err := c.dialPlane("migration push")
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	var keep uint8
	if keepExisting {
		keep = 1
	}
	var head [headerSize]byte
	putHeader(head[:], MsgMigratePush, keep, 0, 0)
	if _, err := conn.Write(head[:]); err != nil {
		return 0, fmt.Errorf("netproto: migration push: %w", classifyAttempt(err))
	}
	_ = conn.SetDeadline(time.Now().Add(migrateStreamBudget))
	if _, err := io.Copy(conn, r); err != nil {
		return 0, fmt.Errorf("netproto: migration stream: %w", classifyAttempt(err))
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.CloseWrite() // the node sees EOF... but the snapshot trailer already delimits
	}
	if _, err := io.ReadFull(conn, head[:]); err != nil {
		return 0, fmt.Errorf("netproto: migration ack: %w", classifyAttempt(err))
	}
	var done Message
	if err := done.Unmarshal(head[:]); err != nil || done.Type != MsgMigrateDone {
		return 0, fmt.Errorf("netproto: bad migration ack")
	}
	if done.CachedFlag == 0 {
		return int(done.CachedIndex), fmt.Errorf("netproto: node failed to restore migration stream")
	}
	return int(done.CachedIndex), nil
}
