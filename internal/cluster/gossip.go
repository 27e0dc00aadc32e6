package cluster

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/p4lru/p4lru/internal/netproto"
)

// Membership is a SWIM-style converging view of the cluster: one entry per
// known member carrying an (incarnation, status) verdict, merged with peers'
// views by gossip exchange. Verdict precedence is total and deterministic —
// a higher incarnation wins outright; at equal incarnation the graver status
// wins (alive < suspect < dead < left) — so any two tables that have seen
// the same evidence agree, regardless of message order, and the whole
// cluster converges without a coordinator.
//
// Incarnations implement refutation: only fresh evidence can resurrect a
// member someone declared suspect or dead. A node that learns of its own
// suspicion bumps its incarnation past the accusation (Merge does this when
// the table was built with a self id); an operator explicitly re-joining a
// failed node does the same through Alive. A stale "it's fine" at the old
// incarnation loses to the standing accusation, which is what stops a
// flapping node from oscillating the ring.
//
// The table version counts accepted changes — a cheap convergence gauge
// (cluster_membership_version): stable cluster, stable number; two routers
// disagreeing will both still be moving.
//
// Safe for concurrent use.
type Membership struct {
	self string

	version atomic.Uint64

	mu      sync.Mutex
	entries map[string]*memberInfo
}

// memberInfo is one tracked member: the gossiped digest plus local
// bookkeeping (when the verdict last changed, for suspicion timeouts and
// digest selection).
type memberInfo struct {
	d       netproto.MemberDigest
	changed uint64    // table version when d last changed (digest selection)
	since   time.Time // wall time of the last status change (suspect expiry)
}

// NewMembership builds a table. self, when non-empty, is the id this table
// speaks for: its entry is seeded alive at the given plane addresses, and
// Merge refutes accusations against it by incarnation bump. Routers (which
// are observers, not members) pass "".
func NewMembership(self, udpAddr, tcpAddr string) *Membership {
	m := &Membership{self: self, entries: make(map[string]*memberInfo)}
	if self != "" {
		m.entries[self] = &memberInfo{
			d:       netproto.MemberDigest{ID: self, UDPAddr: udpAddr, TCPAddr: tcpAddr, Status: netproto.MemberAlive},
			changed: m.bump(),
			since:   time.Now(),
		}
	}
	return m
}

// Version returns the count of accepted table changes.
func (m *Membership) Version() uint64 { return m.version.Load() }

// bump advances the table version and returns the new value.
func (m *Membership) bump() uint64 { return m.version.Add(1) }

// touch stamps e as changed now. Caller holds m.mu.
func (m *Membership) touch(e *memberInfo) {
	e.changed = m.bump()
	e.since = time.Now()
}

// Alive records a positive local observation of id (an explicit Join, or
// the prober seeing a suspected peer answer again): if the member was under
// any accusation, the verdict is overridden at incarnation+1 so it beats
// the standing accusation in every peer's table. Pure SWIM reserves the
// bump for the accused itself; this table also grants it to the prober,
// which has the same direct evidence — it converges identically and lets
// an address-less in-process cluster recover without the node gossiping.
// Empty addr arguments preserve any previously known addresses.
func (m *Membership) Alive(id, udpAddr, tcpAddr string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.entries[id]
	if e == nil {
		e = &memberInfo{d: netproto.MemberDigest{ID: id, Status: netproto.MemberAlive}}
		m.entries[id] = e
		e.d.UDPAddr, e.d.TCPAddr = udpAddr, tcpAddr
		m.touch(e)
		return
	}
	if udpAddr != "" {
		e.d.UDPAddr = udpAddr
	}
	if tcpAddr != "" {
		e.d.TCPAddr = tcpAddr
	}
	if e.d.Status != netproto.MemberAlive {
		e.d.Status = netproto.MemberAlive
		e.d.Incarnation++
		m.touch(e)
	}
}

// Suspect records a local accusation against id at its current incarnation.
// Only an alive member can become suspect; reports whether anything changed.
func (m *Membership) Suspect(id string) bool {
	return m.accuse(id, netproto.MemberSuspect)
}

// Confirm records a local death verdict for id at its current incarnation.
func (m *Membership) Confirm(id string) bool {
	return m.accuse(id, netproto.MemberDead)
}

// Left records id's deliberate departure.
func (m *Membership) Left(id string) bool {
	return m.accuse(id, netproto.MemberLeft)
}

func (m *Membership) accuse(id string, status uint8) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.entries[id]
	if e == nil || e.d.Status >= status {
		return false
	}
	e.d.Status = status
	m.touch(e)
	return true
}

// Status returns id's current verdict and whether the member is known.
func (m *Membership) Status(id string) (uint8, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.entries[id]
	if e == nil {
		return 0, false
	}
	return e.d.Status, true
}

// SuspectedFor returns how long id has held a suspect verdict at now (0 if
// it is not currently suspect) — the prober's suspect → dead escalation
// timer.
func (m *Membership) SuspectedFor(id string, now time.Time) time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.entries[id]
	if e == nil || e.d.Status != netproto.MemberSuspect {
		return 0
	}
	return now.Sub(e.since)
}

// Entries returns the full table as digests, sorted by id.
func (m *Membership) Entries() []netproto.MemberDigest {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]netproto.MemberDigest, 0, len(m.entries))
	for _, e := range m.entries {
		out = append(out, e.d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Digest selects what one gossip datagram carries: the most recently
// changed entries first (news spreads before stable state), capped at the
// wire bound. Small clusters ship their whole table every exchange.
func (m *Membership) Digest() []netproto.MemberDigest {
	m.mu.Lock()
	defer m.mu.Unlock()
	infos := make([]*memberInfo, 0, len(m.entries))
	for _, e := range m.entries {
		infos = append(infos, e)
	}
	sort.Slice(infos, func(i, j int) bool {
		if infos[i].changed != infos[j].changed {
			return infos[i].changed > infos[j].changed
		}
		return infos[i].d.ID < infos[j].d.ID
	})
	if len(infos) > netproto.MaxGossipEntries {
		infos = infos[:netproto.MaxGossipEntries]
	}
	out := make([]netproto.MemberDigest, len(infos))
	for i, e := range infos {
		out[i] = e.d
	}
	return out
}

// Merge folds a peer's digest into the table under the precedence rules and
// reports whether anything was accepted — the caller's cue to reconcile the
// ring against the new view. Accusations against the table's own id are not
// adopted; they are refuted by bumping the self incarnation past them.
func (m *Membership) Merge(in []netproto.MemberDigest) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	changed := false
	for _, d := range in {
		if d.ID == "" {
			continue
		}
		e := m.entries[d.ID]
		if d.ID == m.self {
			// Refutation: out-live any accusation at or ahead of our
			// incarnation; ignore stale ones.
			if e != nil && d.Status != netproto.MemberAlive && d.Incarnation >= e.d.Incarnation {
				e.d.Incarnation = d.Incarnation + 1
				e.d.Status = netproto.MemberAlive
				m.touch(e)
				changed = true
			}
			continue
		}
		if e == nil {
			cp := d
			m.entries[d.ID] = &memberInfo{d: cp}
			m.touch(m.entries[d.ID])
			changed = true
			continue
		}
		// Addresses travel independently of verdicts: adopt whatever fills
		// a gap (an in-process join learns its wire addresses later).
		if e.d.UDPAddr == "" && d.UDPAddr != "" {
			e.d.UDPAddr = d.UDPAddr
		}
		if e.d.TCPAddr == "" && d.TCPAddr != "" {
			e.d.TCPAddr = d.TCPAddr
		}
		switch {
		case d.Incarnation > e.d.Incarnation:
			e.d.Incarnation, e.d.Status = d.Incarnation, d.Status
			m.touch(e)
			changed = true
		case d.Incarnation == e.d.Incarnation && d.Status > e.d.Status:
			e.d.Status = d.Status
			m.touch(e)
			changed = true
		}
	}
	return changed
}

// Exchange is one gossip round from the receiving side: merge the sender's
// digest, answer with our own (post-merge) view. Its signature matches
// netproto.NodeConfig.Gossip so a node server can be wired directly:
//
//	netproto.NewNodeServer(addr, netproto.NodeConfig{Engine: e, Gossip: m.Exchange})
func (m *Membership) Exchange(in []netproto.MemberDigest) []netproto.MemberDigest {
	m.Merge(in)
	return m.Digest()
}
