package netproto

import (
	"net"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"github.com/p4lru/p4lru/internal/engine"
	"github.com/p4lru/p4lru/internal/netproto/batchio"
	"github.com/p4lru/p4lru/internal/obs/span"
	"github.com/p4lru/p4lru/internal/policy"
)

// burstView is the membership view the burst test's node answers gossip
// with.
var burstView = []MemberDigest{{ID: "node", UDPAddr: "u", TCPAddr: "t", Status: MemberAlive, Incarnation: 3}}

// fillNodeBurst writes one batch of node-plane traffic into ring: a ping, a
// query of key 11 (resident), an update of key 12, and a gossip exchange,
// with a truncated datagram, an undefined type byte and a well-formed type
// the node does not serve between them. Every datagram goes to the
// connected peer (the zero Addr). It returns the datagram count.
func fillNodeBurst(t *testing.T, ring *batchio.Ring) int {
	t.Helper()
	ds := ring.Datagrams()
	put := func(i int, typ MsgType, key, index uint64) {
		putHeader(ds[i].Buf, typ, 0, key, index)
		ds[i].N = headerSize
	}
	put(0, MsgPing, 101, 0)
	put(1, MsgPing, 102, 0)
	ds[1].N = headerSize - 1 // truncated: malformed
	put(2, MsgQuery, 11, 0)
	put(3, MsgQuery, 103, 0)
	ds[3].Buf[3] = 0xee // no such message type
	put(4, MsgUpdate, 12, 120)
	put(5, MsgPong, 104, 0) // well-formed, but the node serves no pongs
	put(6, MsgGossip, 105, 0)
	pkt, err := appendMemberDigests(ds[6].Buf[:headerSize], []MemberDigest{{ID: "router", Status: MemberAlive}})
	if err != nil {
		t.Fatal(err)
	}
	ds[6].N = len(pkt)
	return 7
}

// checkNodeBurstReplies checks replies holds exactly one correct reply to
// each valid request of fillNodeBurst's batch and nothing else.
func checkNodeBurstReplies(t *testing.T, replies [][]byte) {
	t.Helper()
	want := map[MsgType]Message{
		MsgPong:      {Type: MsgPong, Key: 101},
		MsgReply:     {Type: MsgReply, CachedFlag: 1, Key: 11, CachedIndex: 110},
		MsgUpdateAck: {Type: MsgUpdateAck, Key: 12, CachedIndex: 120},
		MsgGossipAck: {Type: MsgGossipAck, Key: 105},
	}
	if len(replies) != len(want) {
		t.Fatalf("%d replies to a burst of %d valid requests", len(replies), len(want))
	}
	for _, b := range replies {
		var m Message
		if err := m.Unmarshal(b); err != nil {
			t.Fatalf("malformed reply %x: %v", b, err)
		}
		w, ok := want[m.Type]
		if !ok {
			t.Fatalf("unexpected or duplicate reply %+v", m)
		}
		delete(want, m.Type)
		if m.Type == MsgGossipAck {
			view, err := parseMemberDigests(m.Value)
			if err != nil || !reflect.DeepEqual(view, burstView) {
				t.Fatalf("gossip ack carries %+v (%v), want %+v", view, err, burstView)
			}
			m.Value = nil
		} else if len(m.Value) != 0 {
			t.Fatalf("reply %+v carries a payload", m)
		}
		if m.Type != w.Type || m.CachedFlag != w.CachedFlag || m.Key != w.Key || m.CachedIndex != w.CachedIndex {
			t.Fatalf("reply %+v, want %+v", m, w)
		}
	}
}

// TestNodeBurst serves one batch of mixed node traffic: every valid request
// gets exactly one correct reply and the malformed, undefined and unserved
// datagrams get none. The handler pass checks compaction directly; the wire
// pass sends the same batch with one WriteBatch (one datagram per call on
// portable builds).
func TestNodeBurst(t *testing.T) {
	eng := newNodeEngine(t)
	eng.Apply(engine.Op{Key: 11, Value: 110, Token: policy.NoToken})
	s, err := NewNodeServer("127.0.0.1:0", NodeConfig{
		Engine:   eng,
		RingSeed: 7,
		Gossip:   func([]MemberDigest) []MemberDigest { return burstView },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	t.Run("handler", func(t *testing.T) {
		ring := batchio.NewRing(planeBatch, packetBufSize)
		got := fillNodeBurst(t, ring)
		keep := s.answer(ring, got, make([]span.Span, planeBatch))
		var replies [][]byte
		for _, d := range ring.Datagrams()[:keep] {
			replies = append(replies, d.Bytes())
		}
		checkNodeBurstReplies(t, replies)
	})

	t.Run("wire", func(t *testing.T) {
		uc, err := net.DialUDP("udp", nil, s.UDPAddr())
		if err != nil {
			t.Fatal(err)
		}
		defer uc.Close()
		bc, err := batchio.NewConn(uc)
		if err != nil {
			t.Fatal(err)
		}
		ring := batchio.NewRing(planeBatch, packetBufSize)
		n := fillNodeBurst(t, ring)
		if sent, err := bc.WriteBatch(ring, n); err != nil || sent != n {
			t.Fatalf("WriteBatch = %d, %v; want %d, nil", sent, err, n)
		}
		// Read until a quiet spell: every reply the node sends arrives, and
		// a stray reply to a dropped datagram would arrive with them.
		var replies [][]byte
		buf := make([]byte, packetBufSize)
		for {
			wait := 200 * time.Millisecond
			if len(replies) < 4 {
				wait = 5 * time.Second
			}
			_ = uc.SetReadDeadline(time.Now().Add(wait))
			m, err := uc.Read(buf)
			if err != nil {
				break
			}
			replies = append(replies, append([]byte(nil), buf[:m]...))
		}
		checkNodeBurstReplies(t, replies)
		if v, _, ok := eng.Query(12); !ok || v != 120 {
			t.Fatalf("acked update of key 12 not applied: (%d, %v)", v, ok)
		}
	})
}

// TestHandlersZeroAlloc pins that no per-batch handler allocates: each runs
// on a ring prepared in place, as the serve loop would hand it over.
func TestHandlersZeroAlloc(t *testing.T) {
	const n = 16
	peer := netip.MustParseAddrPort("127.0.0.1:9")
	ring := batchio.NewRing(planeBatch, packetBufSize)
	spans := make([]span.Span, planeBatch)
	ds := ring.Datagrams()
	run := func(t *testing.T, fill func(d *batchio.Datagram, key uint64), h handler) {
		t.Helper()
		batch := func() {
			for i := 0; i < n; i++ {
				fill(&ds[i], uint64(i+1))
				ds[i].Addr = peer
			}
			if keep := h(ring, n, spans); keep != n {
				t.Fatalf("handler kept %d of %d", keep, n)
			}
		}
		batch() // first-touch growth: peer maps, engine scratch
		if allocs := testing.AllocsPerRun(100, batch); allocs != 0 {
			t.Errorf("%v allocs per batch, want 0", allocs)
		}
	}
	query := func(d *batchio.Datagram, key uint64) { d.N = PutQuery(d.Buf, key) }

	t.Run("switch", func(t *testing.T) {
		_, sw := startStack(t, 1000, 2, 64)
		run(t, query, sw.forwardQueries)
		if raceEnabled {
			t.Skip("ApplyBatch's gather buffers come from a sync.Pool")
		}
		// The queries above recorded peer as each key's querier, so every
		// reply finds its way back.
		run(t, func(d *batchio.Datagram, key uint64) {
			d.N = PutReply(d.Buf, 1, key, key*64, nil)
		}, sw.replyHandler())
	})
	t.Run("server", func(t *testing.T) {
		srv, err := NewServer("127.0.0.1:0", 1000)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		run(t, query, srv.answer)
	})
	t.Run("node", func(t *testing.T) {
		eng, err := engine.NewFromSpec(
			policy.Spec{Kind: policy.KindP4LRU3, MemBytes: 256 << 10, Seed: 1},
			engine.Config{Shards: 2, Block: true},
		)
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		s, err := NewNodeServer("127.0.0.1:0", NodeConfig{Engine: eng, RingSeed: 7})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		run(t, func(d *batchio.Datagram, key uint64) {
			putHeader(d.Buf, MsgUpdate, 0, key, key*10)
			d.N = headerSize
		}, s.answer)
		run(t, query, s.answer)
	})
}
