package cluster

import (
	"fmt"
	"testing"
	"time"

	"github.com/p4lru/p4lru/internal/netproto"
)

func TestMembershipMergePrecedence(t *testing.T) {
	m := NewMembership("", "", "")
	m.Alive("a", "", "")

	// Equal incarnation: the graver status wins.
	if !m.Merge([]netproto.MemberDigest{{ID: "a", Status: netproto.MemberSuspect, Incarnation: 0}}) {
		t.Fatal("suspect at equal incarnation not adopted")
	}
	if s, _ := m.Status("a"); s != netproto.MemberSuspect {
		t.Fatalf("status = %d, want suspect", s)
	}
	// A stale alive at the same incarnation loses to the accusation.
	if m.Merge([]netproto.MemberDigest{{ID: "a", Status: netproto.MemberAlive, Incarnation: 0}}) {
		t.Fatal("stale alive at the accused incarnation was adopted")
	}
	// A higher incarnation wins outright, even downgrading the status.
	if !m.Merge([]netproto.MemberDigest{{ID: "a", Status: netproto.MemberAlive, Incarnation: 1}}) {
		t.Fatal("refutation at a higher incarnation not adopted")
	}
	if s, _ := m.Status("a"); s != netproto.MemberAlive {
		t.Fatalf("status after refutation = %d, want alive", s)
	}
	// Dead outranks suspect at the same incarnation; Left outranks dead.
	m.Merge([]netproto.MemberDigest{{ID: "a", Status: netproto.MemberDead, Incarnation: 1}})
	if m.Suspect("a") {
		t.Fatal("Suspect downgraded a dead verdict")
	}
	if !m.Left("a") {
		t.Fatal("Left did not outrank dead")
	}
}

func TestMembershipSelfRefutation(t *testing.T) {
	m := NewMembership("self", "u:1", "t:1")
	// An accusation against self is never adopted — it is out-bid.
	m.Merge([]netproto.MemberDigest{{ID: "self", Status: netproto.MemberDead, Incarnation: 5}})
	for _, d := range m.Entries() {
		if d.ID != "self" {
			continue
		}
		if d.Status != netproto.MemberAlive {
			t.Fatalf("self status = %d after accusation, want alive", d.Status)
		}
		if d.Incarnation != 6 {
			t.Fatalf("self incarnation = %d, want 6 (accusation+1)", d.Incarnation)
		}
	}
	// The refutation now beats the accusation in any peer's table.
	peer := NewMembership("", "", "")
	peer.Merge([]netproto.MemberDigest{{ID: "self", Status: netproto.MemberDead, Incarnation: 5}})
	peer.Merge(m.Digest())
	if s, _ := peer.Status("self"); s != netproto.MemberAlive {
		t.Fatalf("peer adopted stale death over refutation: status %d", s)
	}
}

func TestMembershipAliveRevivesWithBump(t *testing.T) {
	m := NewMembership("", "", "")
	m.Alive("a", "", "")
	m.Confirm("a")
	m.Alive("a", "udp", "tcp") // operator re-join: bump past the death
	for _, d := range m.Entries() {
		if d.Status != netproto.MemberAlive || d.Incarnation != 1 {
			t.Fatalf("revived entry = %+v, want alive at incarnation 1", d)
		}
		if d.UDPAddr != "udp" || d.TCPAddr != "tcp" {
			t.Fatalf("addresses not adopted on revive: %+v", d)
		}
	}
}

func TestMembershipExchangeConverges(t *testing.T) {
	// Three tables with disjoint knowledge converge through pairwise
	// exchanges regardless of order.
	a, b, c := NewMembership("a", "", ""), NewMembership("b", "", ""), NewMembership("c", "", "")
	b.Merge(a.Exchange(b.Digest())) // a<->b
	c.Merge(b.Exchange(c.Digest())) // b<->c
	a.Merge(c.Exchange(a.Digest())) // c<->a
	for name, m := range map[string]*Membership{"a": a, "b": b, "c": c} {
		if got := len(m.Entries()); got != 3 {
			t.Fatalf("table %s has %d entries after full exchange cycle, want 3", name, got)
		}
	}
}

func TestMembershipDigestBounded(t *testing.T) {
	m := NewMembership("", "", "")
	for i := 0; i < netproto.MaxGossipEntries*2; i++ {
		m.Alive(fmt.Sprintf("node-%03d", i), "", "")
	}
	d := m.Digest()
	if len(d) != netproto.MaxGossipEntries {
		t.Fatalf("digest carries %d entries, want cap %d", len(d), netproto.MaxGossipEntries)
	}
	// Freshest first: the most recently changed member leads the digest.
	m.Suspect("node-000")
	if d = m.Digest(); d[0].ID != "node-000" || d[0].Status != netproto.MemberSuspect {
		t.Fatalf("digest head = %+v, want the freshest change (node-000 suspect)", d[0])
	}
}

func TestMembershipSuspectTimer(t *testing.T) {
	m := NewMembership("", "", "")
	m.Alive("a", "", "")
	if d := m.SuspectedFor("a", time.Now()); d != 0 {
		t.Fatalf("alive member suspected for %v, want 0", d)
	}
	m.Suspect("a")
	time.Sleep(5 * time.Millisecond)
	if d := m.SuspectedFor("a", time.Now()); d <= 0 {
		t.Fatalf("SuspectedFor = %v after suspicion, want > 0", d)
	}
	v := m.Version()
	m.Suspect("a") // idempotent: no change, no version bump
	if m.Version() != v {
		t.Fatal("repeated Suspect bumped the table version")
	}
}
