package cluster

import (
	"fmt"
	"testing"
	"time"

	"github.com/p4lru/p4lru/internal/engine"
	"github.com/p4lru/p4lru/internal/netproto"
)

// newRemoteNode serves a fresh test engine from a loopback NodeServer and
// dials it. The server and the client close at cleanup; the engine is
// returned so tests can reach the node behind the router's back.
func newRemoteNode(t *testing.T) (*netproto.NodeClient, *engine.Engine) {
	t.Helper()
	eng := newTestEngine(t)
	srv, err := netproto.NewNodeServer("127.0.0.1:0", netproto.NodeConfig{Engine: eng, RingSeed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	cl, err := netproto.DialNode(srv.UDPAddr(), srv.TCPAddr(), 200*time.Millisecond, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl, eng
}

// TestRouterOverRemotePeers runs the router against real NodeServers on
// loopback — *netproto.NodeClient as the Peer implementation — covering
// query, synchronous update acks, join-time migration and graceful leave
// over the actual wire.
func TestRouterOverRemotePeers(t *testing.T) {
	const seed = testSeed
	r := New(Config{Seed: seed, HeartbeatEvery: -1})
	defer r.Close()

	newNode := func(i int) (string, *netproto.NodeClient) {
		cl, _ := newRemoteNode(t)
		return fmt.Sprintf("node-%d", i), cl
	}

	for i := 0; i < 2; i++ {
		id, cl := newNode(i)
		if err := r.Join(id, cl); err != nil {
			t.Fatalf("Join(%s): %v", id, err)
		}
	}

	const keys = 800
	for k := uint64(1); k <= keys; k++ {
		if err := r.Update(k, k+1); err != nil {
			t.Fatalf("Update(%d): %v", k, err)
		}
	}
	for k := uint64(1); k <= keys; k++ {
		if v, ok, err := r.Query(k); !ok || v != k+1 || err != nil {
			t.Fatalf("Query(%d) = (%d, %v, %v)", k, v, ok, err)
		}
	}

	// A third node joins over the wire and is warmed by TCP migration.
	id, cl := newNode(2)
	if err := r.Join(id, cl); err != nil {
		t.Fatalf("Join(%s): %v", id, err)
	}
	for k := uint64(1); k <= keys; k++ {
		if v, ok, err := r.Query(k); !ok || v != k+1 || err != nil {
			t.Fatalf("Query(%d) after remote join = (%d, %v, %v)", k, v, ok, err)
		}
	}

	// Graceful leave streams the departing node's ranges back out.
	if err := r.Leave("node-0"); err != nil {
		t.Fatalf("Leave: %v", err)
	}
	for k := uint64(1); k <= keys; k++ {
		if v, ok, err := r.Query(k); !ok || v != k+1 || err != nil {
			t.Fatalf("Query(%d) after remote leave = (%d, %v, %v)", k, v, ok, err)
		}
	}
}
