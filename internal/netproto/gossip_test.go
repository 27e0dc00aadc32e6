package netproto

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

func TestMemberDigestRoundTrip(t *testing.T) {
	in := []MemberDigest{
		{ID: "node-a", UDPAddr: "10.0.0.1:7000", TCPAddr: "10.0.0.1:7001", Status: MemberAlive, Incarnation: 0},
		{ID: "node-b", Status: MemberSuspect, Incarnation: 3},
		{ID: "node-c", UDPAddr: "x", TCPAddr: "y", Status: MemberDead, Incarnation: ^uint64(0)},
		{ID: "node-d", Status: MemberLeft, Incarnation: 1},
	}
	buf, err := appendMemberDigests(make([]byte, 0, packetBufSize), in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := parseMemberDigests(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", in, out)
	}
}

func TestMemberDigestEmptyAndTruncated(t *testing.T) {
	buf, err := appendMemberDigests(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out, err := parseMemberDigests(buf); err != nil || len(out) != 0 {
		t.Fatalf("empty digest list = (%v, %v)", out, err)
	}
	full, err := appendMemberDigests(nil, []MemberDigest{{ID: "node", UDPAddr: "u", TCPAddr: "t", Incarnation: 9}})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(full); cut++ {
		if _, err := parseMemberDigests(full[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d bytes parsed successfully", cut, len(full))
		}
	}
}

func TestMemberDigestOverflowRejected(t *testing.T) {
	long := make([]MemberDigest, MaxGossipEntries)
	for i := range long {
		long[i] = MemberDigest{
			ID:      fmt.Sprintf("node-%02d-%s", i, string(make([]byte, 40))),
			UDPAddr: "203.0.113.255:65535",
			TCPAddr: "203.0.113.255:65534",
		}
	}
	if _, err := appendMemberDigests(make([]byte, 0, packetBufSize), long); err == nil {
		t.Fatal("digest list exceeding the datagram bound encoded without error")
	}
}

// TestNodeGossipExchange runs a digest exchange over the live UDP plane: the
// node's handler merges what the client sends and answers with its own view.
func TestNodeGossipExchange(t *testing.T) {
	eng := newNodeEngine(t)
	nodeView := []MemberDigest{
		{ID: "self", UDPAddr: "u", TCPAddr: "t", Status: MemberAlive, Incarnation: 2},
		{ID: "other", Status: MemberSuspect, Incarnation: 1},
	}
	// The handler runs on the node's UDP goroutine; the mutex orders its
	// write before the test's read (the reply datagram is invisible to the
	// race detector).
	var (
		mu    sync.Mutex
		sawIn []MemberDigest
	)
	s, err := NewNodeServer("127.0.0.1:0", NodeConfig{
		Engine:   eng,
		RingSeed: 7,
		Gossip: func(in []MemberDigest) []MemberDigest {
			mu.Lock()
			sawIn = in
			mu.Unlock()
			return nodeView
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := dialTestNode(t, s)

	sent := []MemberDigest{{ID: "router-knows", Status: MemberAlive, Incarnation: 4}}
	reply, err := c.Gossip(sent)
	if err != nil {
		t.Fatalf("Gossip: %v", err)
	}
	mu.Lock()
	got := sawIn
	mu.Unlock()
	if !reflect.DeepEqual(got, sent) {
		t.Fatalf("handler saw %+v, want %+v", got, sent)
	}
	if !reflect.DeepEqual(reply, nodeView) {
		t.Fatalf("reply = %+v, want the node's view %+v", reply, nodeView)
	}

	// A node with no handler ignores the payload but still answers.
	mute, err := NewNodeServer("127.0.0.1:0", NodeConfig{Engine: newNodeEngine(t), RingSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer mute.Close()
	mc := dialTestNode(t, mute)
	if reply, err := mc.Gossip(sent); err != nil || len(reply) != 0 {
		t.Fatalf("mute node gossip = (%v, %v), want empty reply", reply, err)
	}
}
