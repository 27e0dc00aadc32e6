package netproto

import (
	"bytes"
	"encoding/binary"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/p4lru/p4lru/internal/kvindex"
	"github.com/p4lru/p4lru/internal/resilience"
)

// TestServerCloseUnderLoad is the regression test for the close/drain race:
// Close used to tear the socket down before waiting for the reader
// goroutines, so handlers mid-resolve lost their replies. With the drain
// order every query a server read gets its reply out before the conn
// closes, so what it read and what it replied must match exactly — for the
// index server and for the cluster node, which serve over the same plane.
func TestServerCloseUnderLoad(t *testing.T) {
	const items = 1000
	t.Run("server", func(t *testing.T) {
		srv, err := NewServer("127.0.0.1:0", items)
		if err != nil {
			t.Fatal(err)
		}
		closeUnderLoad(t, srv.Addr(), items, func() int64 { return srv.Stats().Queries }, srv.Close)
		if st := srv.Stats(); st.Replies != st.Queries {
			t.Fatalf("Close dropped in-flight replies: queries=%d replies=%d", st.Queries, st.Replies)
		}
	})
	t.Run("node", func(t *testing.T) {
		s, err := NewNodeServer("127.0.0.1:0", NodeConfig{Engine: newNodeEngine(t), RingSeed: 7})
		if err != nil {
			t.Fatal(err)
		}
		closeUnderLoad(t, s.UDPAddr(), items, s.plane.recvPackets.Load, func() error { s.Close(); return nil })
		if read, sent := s.plane.recvPackets.Load(), s.plane.sent.Load(); read != sent {
			t.Fatalf("Close dropped in-flight replies: read=%d replied=%d", read, sent)
		}
	})
}

// closeUnderLoad floods addr with queries from four senders and calls
// closeFn mid-stream, once read reports a query taken off the socket.
func closeUnderLoad(t *testing.T, addr *net.UDPAddr, items uint64, read func() int64, closeFn func() error) {
	t.Helper()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			conn, err := net.DialUDP("udp", nil, addr)
			if err != nil {
				return
			}
			defer conn.Close()
			key := uint64(g * 251)
			for {
				select {
				case <-stop:
					return
				default:
				}
				msg := Message{Type: MsgQuery, Key: key%items + 1}
				key++
				_, _ = conn.Write(msg.Marshal())
			}
		}(g)
	}

	// Let traffic build, then close mid-stream. The senders can starve the
	// readers for longer than the sleep on a small host, so also wait
	// (bounded) until a query has been read.
	time.Sleep(30 * time.Millisecond)
	for deadline := time.Now().Add(5 * time.Second); read() == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if err := closeFn(); err != nil {
		t.Fatalf("Close under load: %v", err)
	}
	close(stop)
	wg.Wait()
	if read() == 0 {
		t.Fatal("no queries were read before Close — test proves nothing")
	}
}

// TestServerSurvivesCraftedCachedIndex sends queries straight to a Server
// with cached_flag set and a cached_index that is not an arena slot start:
// past the last full slot, wrapping on overflow, mid-slot. Each must be
// answered from the index walk with the correct value (one such packet used
// to panic the serving goroutine and kill the process), and the server must
// keep serving afterwards.
func TestServerSurvivesCraftedCachedIndex(t *testing.T) {
	const items = 1000
	srv, err := NewServer("127.0.0.1:0", items)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.DialUDP("udp", nil, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	const key = 5
	arena := uint64(items * kvindex.ValueSize)
	buf := make([]byte, 64*1024)
	queries := []Message{
		{Type: MsgQuery, CachedFlag: 1, Key: key, CachedIndex: arena - 8},
		{Type: MsgQuery, CachedFlag: 1, Key: key, CachedIndex: 1<<64 - 4},
		{Type: MsgQuery, CachedFlag: 1, Key: key, CachedIndex: 3},
		{Type: MsgQuery, Key: key}, // still serving
	}
	for _, q := range queries {
		idx := q.CachedIndex
		if _, err := conn.Write(q.Marshal()); err != nil {
			t.Fatal(err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		n, err := conn.Read(buf)
		if err != nil {
			t.Fatalf("cached_index %d: no reply: %v", idx, err)
		}
		var r Message
		if err := r.Unmarshal(buf[:n]); err != nil || r.Type != MsgReply || r.Key != key {
			t.Fatalf("cached_index %d: bad reply %+v (%v)", idx, r, err)
		}
		if r.CachedIndex != (key-1)*kvindex.ValueSize || len(r.Value) < 8 ||
			binary.LittleEndian.Uint64(r.Value) != key^0xbadc0ffee {
			t.Fatalf("cached_index %d: reply index %d value %x", idx, r.CachedIndex, r.Value)
		}
	}
	// Close drains the readers, so the counters have settled.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.Replies != 4 || st.IndexWalks != 4 {
		t.Errorf("stats %+v: want 4 replies, all walked", st)
	}
}

// TestSwitchSurvivesForgedReplyLevel sends the switch's server-facing
// socket, which takes replies from any sender, a reply whose cached_flag
// names no level of the switch's two-level series. One such datagram used
// to reach the flat series' range panic and kill the process. The reply
// must be applied as a miss reply, inserting at level 1, and the switch
// must keep answering queries.
func TestSwitchSurvivesForgedReplyLevel(t *testing.T) {
	_, sw := startStack(t, 1000, 2, 64)
	// The switch adopts its server-facing sockets after its client-facing
	// group, so the last socket it owns faces the server.
	upstream := sw.plane.conns[len(sw.plane.conns)-1]
	conn, err := net.DialUDP("udp", nil, upstream.UDP().LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	forged := Message{Type: MsgReply, CachedFlag: 9, Key: 5, CachedIndex: 32}
	if _, err := conn.Write(forged.Marshal()); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if idx, tok, ok := sw.Engine().Query(5); ok {
			if idx != 32 || tok.Level() != 1 {
				t.Fatalf("forged reply cached index %d at level %d, want 32 at level 1", idx, tok.Level())
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("forged reply never applied")
		}
		time.Sleep(time.Millisecond)
	}

	cl, err := NewClient(sw.Addr(), ClientConfig{Items: 1000, Skew: 1.1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	res, err := cl.Query(42)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Valid {
		t.Fatal("query after the forged reply returned a bad value")
	}
}

// TestSwitchWarmRestart snapshots a warm switch cache and restores it into a
// fresh switch of the same geometry: the restart comes back with a non-empty
// cache whose indexes still resolve to correct values (no stale serving).
func TestSwitchWarmRestart(t *testing.T) {
	const items = 500
	srv, err := NewServer("127.0.0.1:0", items)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	sw1, err := NewSwitch(SwitchConfig{
		ServerAddr: srv.Addr(), Policy: seriesSpec(2, 64), Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl1, err := NewClient(sw1.Addr(), ClientConfig{Items: items, Skew: 1.2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	st := cl1.Run(1500)
	cl1.Close()
	if st.Queries == 0 || st.Invalid > 0 {
		t.Fatalf("warm-up run: %+v", st)
	}
	if sw1.Stats().CacheLen == 0 {
		t.Fatal("warm-up left the cache empty")
	}

	var snap bytes.Buffer
	if err := sw1.Engine().Snapshot(&snap); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if err := sw1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// "Restart": same levels/units/seed/shards, restored before traffic.
	sw2, err := NewSwitch(SwitchConfig{
		ServerAddr: srv.Addr(), Policy: seriesSpec(2, 64), Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sw2.Close()
	restored, err := sw2.Engine().RestoreSnapshot(bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatalf("RestoreSnapshot: %v", err)
	}
	// Restore is best-effort for a series cache (everything re-enters at
	// level 1), but it must not come back cold.
	if restored == 0 || sw2.Stats().CacheLen == 0 {
		t.Fatalf("restore came back cold: restored=%d CacheLen=%d", restored, sw2.Stats().CacheLen)
	}

	// Collect resident keys first — querying inside Range would have the
	// reply path mutate the shard being iterated.
	var resident []uint64
	sw2.Engine().Range(func(k, v uint64) bool {
		if len(resident) < 20 {
			resident = append(resident, k)
		}
		return len(resident) < 20
	})

	cl2, err := NewClient(sw2.Addr(), ClientConfig{Items: items, Skew: 1.2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	hits := 0
	for _, k := range resident {
		res, err := cl2.Query(k)
		if err != nil {
			t.Fatalf("post-restart Query(%d): %v", k, err)
		}
		if !res.Valid {
			t.Fatalf("restored index for key %d served a wrong value", k)
		}
		if res.Cached {
			hits++
		}
	}
	if hits == 0 {
		t.Fatal("no warm hits after restore — restart came back cold")
	}
}

// TestServerShedderAndHealth drives the server's admission control and its
// readiness probe through the degradation ladder.
func TestServerShedderAndHealth(t *testing.T) {
	sh := resilience.NewShedder(resilience.ShedderConfig{TargetLatency: time.Millisecond, Alpha: 1})
	srv, err := NewServer("127.0.0.1:0", 100, ServerWithShedder(sh))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	if err := srv.Health().Ready(); err != nil {
		t.Fatalf("idle server unready: %v", err)
	}

	conn, err := net.DialUDP("udp", nil, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	query := func() (replied bool) {
		if _, err := conn.Write((&Message{Type: MsgQuery, Key: 1}).Marshal()); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 64*1024)
		_ = conn.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
		_, err := conn.Read(buf)
		return err == nil
	}

	if !query() {
		t.Fatal("healthy server did not reply")
	}

	// Saturate the latency EWMA: pressure 1 sheds everything and the
	// readiness probe goes unready.
	sh.Observe(50 * time.Millisecond)
	if err := srv.Health().Ready(); err == nil {
		t.Fatal("saturated server still reports ready")
	}
	if query() {
		t.Fatal("saturated server replied — query was not shed")
	}
	if srv.Stats().Shed == 0 {
		t.Fatal("shed counter did not move")
	}

	// Recovery: pressure collapses, admission and readiness return.
	sh.Observe(0)
	if err := srv.Health().Ready(); err != nil {
		t.Fatalf("recovered server unready: %v", err)
	}
	if !query() {
		t.Fatal("recovered server did not reply")
	}
	// The server counts a reply once WriteBatch returns, which can be after
	// the client has read it.
	st := srv.Stats()
	for deadline := time.Now().Add(time.Second); st.Replies+st.Shed != st.Queries && time.Now().Before(deadline); st = srv.Stats() {
		time.Sleep(time.Millisecond)
	}
	if st.Replies+st.Shed != st.Queries {
		t.Fatalf("accounting: queries=%d replies=%d shed=%d", st.Queries, st.Replies, st.Shed)
	}
}
