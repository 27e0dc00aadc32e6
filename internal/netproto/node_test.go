package netproto

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"github.com/p4lru/p4lru/internal/engine"
	"github.com/p4lru/p4lru/internal/policy"
)

func newNodeEngine(t *testing.T) *engine.Engine {
	t.Helper()
	e, err := engine.NewFromSpec(
		policy.Spec{Kind: policy.KindIdeal, MemBytes: 512 << 10, Seed: 3},
		engine.Config{Shards: 2, Block: true},
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

func dialTestNode(t *testing.T, s *NodeServer) *NodeClient {
	t.Helper()
	c, err := DialNode(s.UDPAddr(), s.TCPAddr(), 200*time.Millisecond, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestNodePingQueryUpdate(t *testing.T) {
	eng := newNodeEngine(t)
	s, err := NewNodeServer("127.0.0.1:0", NodeConfig{Engine: eng, RingSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := dialTestNode(t, s)

	if err := c.Ping(); err != nil {
		t.Fatalf("Ping: %v", err)
	}
	if _, ok, err := c.Query(42); ok || err != nil {
		t.Fatalf("cold Query = (ok=%v, err=%v)", ok, err)
	}
	if err := c.Update(42, 420); err != nil {
		t.Fatalf("Update: %v", err)
	}
	// The ack is post-apply, so the value is visible immediately.
	if v, ok, err := c.Query(42); !ok || v != 420 || err != nil {
		t.Fatalf("Query after acked update = (%d, %v, %v), want (420, true, nil)", v, ok, err)
	}
	if v, _, ok := eng.Query(42); !ok || v != 420 {
		t.Fatalf("engine state = (%d, %v) after acked update", v, ok)
	}
}

// TestNodeMigrationPullPush round-trips a range-filtered snapshot between
// two live nodes over the TCP migration plane.
func TestNodeMigrationPullPush(t *testing.T) {
	const ringSeed = 7
	src, dst := newNodeEngine(t), newNodeEngine(t)
	srcSrv, err := NewNodeServer("127.0.0.1:0", NodeConfig{Engine: src, RingSeed: ringSeed})
	if err != nil {
		t.Fatal(err)
	}
	defer srcSrv.Close()
	dstSrv, err := NewNodeServer("127.0.0.1:0", NodeConfig{Engine: dst, RingSeed: ringSeed})
	if err != nil {
		t.Fatal(err)
	}
	defer dstSrv.Close()
	srcCl, dstCl := dialTestNode(t, srcSrv), dialTestNode(t, dstSrv)

	for k := uint64(1); k <= 2000; k++ {
		if err := srcCl.Update(k, k*7); err != nil {
			t.Fatal(err)
		}
	}

	// Pull only the lower half of the hash circle and push it to dst.
	arcs := [][2]uint64{{0, 1 << 63}}
	stream, err := srcCl.OpenPull(arcs)
	if err != nil {
		t.Fatalf("OpenPull: %v", err)
	}
	n, err := dstCl.Push(stream, false)
	stream.Close()
	if err != nil {
		t.Fatalf("Push: %v", err)
	}
	if n == 0 || n >= 2000 {
		t.Fatalf("migrated %d pairs; a half-circle filter should move some but not all of 2000", n)
	}
	if dst.Len() != n {
		t.Fatalf("dest holds %d pairs, push reported %d", dst.Len(), n)
	}
	// Every migrated pair is inside the requested arcs and queryable.
	posHash := srcSrv.posHash
	dst.Range(func(k, v uint64) bool {
		if h := posHash.Uint64(k); !(h > 0 && h <= 1<<63) {
			t.Errorf("migrated key %d has position %#x outside the pulled arc", k, h)
		}
		if v != k*7 {
			t.Errorf("migrated key %d has value %d, want %d", k, v, k*7)
		}
		return true
	})
}

// TestNodePushKeepExisting: CachedFlag on MsgMigratePush selects the
// if-absent restore, so resident keys survive a stale image.
func TestNodePushKeepExisting(t *testing.T) {
	src, dst := newNodeEngine(t), newNodeEngine(t)
	srcSrv, err := NewNodeServer("127.0.0.1:0", NodeConfig{Engine: src, RingSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer srcSrv.Close()
	dstSrv, err := NewNodeServer("127.0.0.1:0", NodeConfig{Engine: dst, RingSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer dstSrv.Close()
	srcCl, dstCl := dialTestNode(t, srcSrv), dialTestNode(t, dstSrv)

	for k := uint64(1); k <= 100; k++ {
		if err := srcCl.Update(k, 1); err != nil { // stale image values
			t.Fatal(err)
		}
	}
	if err := dstCl.Update(50, 2); err != nil { // fresher resident write
		t.Fatal(err)
	}
	stream, err := srcCl.OpenPull([][2]uint64{{0, 0}}) // whole circle
	if err != nil {
		t.Fatal(err)
	}
	n, err := dstCl.Push(stream, true)
	stream.Close()
	if err != nil {
		t.Fatalf("Push keep-existing: %v", err)
	}
	if n != 99 {
		t.Fatalf("installed %d pairs, want 99 (one key was already resident)", n)
	}
	if v, _, ok := dst.Query(50); !ok || v != 2 {
		t.Fatalf("resident key rolled back to %d (ok=%v), want 2", v, ok)
	}
}

// TestNodeClientTypedErrors: a dead peer surfaces ErrTimeout (datagrams
// vanish) so per-peer breakers can classify the failure.
func TestNodeClientTypedErrors(t *testing.T) {
	eng := newNodeEngine(t)
	s, err := NewNodeServer("127.0.0.1:0", NodeConfig{Engine: eng, RingSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	udp, tcp := s.UDPAddr(), s.TCPAddr()
	s.Close() // the node dies

	c, err := DialNode(udp, tcp, 30*time.Millisecond, NoRetries)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	pingErr := c.Ping()
	if pingErr == nil {
		t.Fatal("Ping against a dead node succeeded")
	}
	if !errors.Is(pingErr, ErrTimeout) && !errors.Is(pingErr, ErrUnreachable) {
		t.Fatalf("Ping error %v is not typed as timeout or unreachable", pingErr)
	}
}

// TestNodeClientRejectsStaleUpdateAck: an update ack that arrives after its
// own attempt timed out must not acknowledge the next write of the same key.
// The fake node holds back the ack for Update(7, 1) until the next datagram
// arrives, sends it then and drops that datagram, so the only ack
// Update(7, 2) ever sees is the late one for value 1.
func TestNodeClientRejectsStaleUpdateAck(t *testing.T) {
	node, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	go func() {
		buf := make([]byte, packetBufSize)
		var held []byte
		for {
			n, from, err := node.ReadFromUDP(buf)
			if err != nil {
				return
			}
			if held != nil {
				_, _ = node.WriteToUDP(held, from)
				held = nil
				continue
			}
			var m Message
			if m.Unmarshal(buf[:n]) == nil && m.Type == MsgUpdate {
				held = (&Message{Type: MsgUpdateAck, Key: m.Key, CachedIndex: m.CachedIndex}).Marshal()
			}
		}
	}()

	c, err := DialNode(node.LocalAddr().(*net.UDPAddr), "", 20*time.Millisecond, NoRetries)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Update(7, 1); err == nil {
		t.Fatal("Update(7, 1) succeeded though the node held its ack back")
	}
	if err := c.Update(7, 2); err == nil {
		t.Fatal("Update(7, 2) took the late ack for value 1 as its own; the node never applied 2")
	}
}

// TestRemoteStoreTypedErrors: the backing.Store adapter surfaces the same
// typed sentinels, so a breaker in front of it can tell "down" from "slow".
func TestRemoteStoreTypedErrors(t *testing.T) {
	// An address nothing listens on: every attempt times out.
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	addr := conn.LocalAddr().(*net.UDPAddr)
	conn.Close()

	store, err := NewRemoteStore(addr, 1, 30*time.Millisecond, NoRetries)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	_, getErr := store.Get(context.Background(), 1)
	if getErr == nil {
		t.Fatal("Get against a dead address succeeded")
	}
	if !errors.Is(getErr, ErrTimeout) && !errors.Is(getErr, ErrUnreachable) {
		t.Fatalf("Get error %v is not typed as timeout or unreachable", getErr)
	}
}
