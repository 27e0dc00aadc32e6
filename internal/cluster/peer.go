package cluster

import (
	"fmt"
	"io"
	"sync/atomic"

	"github.com/p4lru/p4lru/internal/engine"
	"github.com/p4lru/p4lru/internal/hashing"
	"github.com/p4lru/p4lru/internal/netproto"
	"github.com/p4lru/p4lru/internal/policy"
)

// Peer is one engine node as the router sees it: point operations plus the
// two halves of a migration stream. *netproto.NodeClient implements it over
// the wire; LocalPeer implements it in-process for single-binary clusters,
// benchmarks and chaos tests.
type Peer interface {
	// Ping round-trips a heartbeat.
	Ping() error
	// Query reads key: (value, true) on a hit.
	Query(key uint64) (uint64, bool, error)
	// Update installs key → val; a nil return means the node applied it
	// before acking (the router's durability point).
	Update(key, val uint64) error
	// OpenPull streams the node's contents inside arcs as a self-delimiting
	// snapshot image; the caller closes the stream.
	OpenPull(arcs [][2]uint64) (io.ReadCloser, error)
	// Push restores a snapshot image into the node, returning the installed
	// pair count. keepExisting skips keys already resident — the mode used
	// after a ring swap, when the node may hold fresher writes.
	Push(r io.Reader, keepExisting bool) (int, error)
	// Gossip exchanges membership digests: the node merges out and answers
	// with its own (post-merge) view. A node with no membership attached
	// answers (nil, nil).
	Gossip(out []netproto.MemberDigest) ([]netproto.MemberDigest, error)
	// Addrs returns the node's advertised plane addresses (UDP ops, TCP
	// migration), or empty strings for an in-process peer.
	Addrs() (udp, tcp string)
	// Close releases the peer handle (not the node behind it).
	Close() error
}

var _ Peer = (*netproto.NodeClient)(nil)

// ErrPeerDown reports an operation against a LocalPeer whose node was
// killed. It wraps netproto.ErrUnreachable so the router's breaker
// classification treats in-process and remote node death identically.
var ErrPeerDown = fmt.Errorf("cluster: peer down: %w", netproto.ErrUnreachable)

// LocalPeer adapts an in-process engine to the Peer interface. Kill makes
// every subsequent operation fail like an unreachable remote node —
// deterministic node death for chaos tests — and Revive undoes it. CutLink
// fails the same way but models a network partition instead of node death:
// the engine keeps its data and other handles to the same engine still
// reach it, so HealLink restores a node that diverged rather than died.
type LocalPeer struct {
	eng    *engine.Engine
	hash   hashing.Hash
	dead   atomic.Bool
	cut    atomic.Bool
	down   atomic.Bool // dead || cut, pre-folded for the router's fast path
	member atomic.Pointer[Membership]
}

// NewLocalPeer wraps eng. ringSeed must match the cluster's Config.Seed so
// migration range filters slice the same key sets the ring assigns.
func NewLocalPeer(eng *engine.Engine, ringSeed uint64) *LocalPeer {
	return &LocalPeer{eng: eng, hash: hashing.New(ringSeed)}
}

// Engine exposes the wrapped engine (tests assert on its contents).
func (p *LocalPeer) Engine() *engine.Engine { return p.eng }

// AttachMembership gives the peer a node-side membership table: Gossip
// exchanges route through it, making the in-process node a full gossip
// participant (it spreads what it knows, including itself).
func (p *LocalPeer) AttachMembership(m *Membership) { p.member.Store(m) }

// Membership returns the attached node-side table, or nil.
func (p *LocalPeer) Membership() *Membership { return p.member.Load() }

// refreshDown folds the two failure flags into the single load the router's
// devirtualized query path checks.
func (p *LocalPeer) refreshDown() { p.down.Store(p.dead.Load() || p.cut.Load()) }

// Kill makes the peer unreachable (node death). Idempotent.
func (p *LocalPeer) Kill() { p.dead.Store(true); p.refreshDown() }

// Revive brings a killed peer back. Idempotent.
func (p *LocalPeer) Revive() { p.dead.Store(false); p.refreshDown() }

// CutLink severs this handle's link to the node — a partition, not a death.
// The cut is per-handle: wrap the same engine in two LocalPeers to partition
// one router's view while another still reaches the node. Idempotent.
func (p *LocalPeer) CutLink() { p.cut.Store(true); p.refreshDown() }

// HealLink restores a cut link. Idempotent.
func (p *LocalPeer) HealLink() { p.cut.Store(false); p.refreshDown() }

// Ping implements Peer.
func (p *LocalPeer) Ping() error {
	if p.down.Load() {
		return ErrPeerDown
	}
	return nil
}

// Query implements Peer.
func (p *LocalPeer) Query(key uint64) (uint64, bool, error) {
	if p.down.Load() {
		return 0, false, ErrPeerDown
	}
	v, _, ok := p.eng.Query(key)
	return v, ok, nil
}

// Update implements Peer: synchronous apply, so returning nil is an ack.
func (p *LocalPeer) Update(key, val uint64) error {
	if p.down.Load() {
		return ErrPeerDown
	}
	p.eng.Apply(engine.Op{Key: key, Value: val, Token: policy.NoToken, Now: p.eng.Now()})
	return nil
}

// OpenPull implements Peer: the snapshot is streamed through a pipe so
// local and remote sources look identical to the migration executor.
func (p *LocalPeer) OpenPull(arcs [][2]uint64) (io.ReadCloser, error) {
	if p.down.Load() {
		return nil, ErrPeerDown
	}
	pr, pw := io.Pipe()
	go func() {
		pw.CloseWithError(p.eng.SnapshotFiltered(pw, func(key uint64) bool {
			return arcsContain(arcs, p.hash.Uint64(key))
		}))
	}()
	return pr, nil
}

// Push implements Peer.
func (p *LocalPeer) Push(r io.Reader, keepExisting bool) (int, error) {
	if p.down.Load() {
		return 0, ErrPeerDown
	}
	if keepExisting {
		return p.eng.RestoreSnapshotIfAbsent(r)
	}
	return p.eng.RestoreSnapshot(r)
}

// Gossip implements Peer through the attached membership table; a node
// without one is mute but not broken — it answers with an empty view.
func (p *LocalPeer) Gossip(out []netproto.MemberDigest) ([]netproto.MemberDigest, error) {
	if p.down.Load() {
		return nil, ErrPeerDown
	}
	m := p.member.Load()
	if m == nil {
		return nil, nil
	}
	return m.Exchange(out), nil
}

// Addrs implements Peer: an in-process node has no wire addresses.
func (p *LocalPeer) Addrs() (string, string) { return "", "" }

// Close implements Peer. The engine is owned by the caller.
func (p *LocalPeer) Close() error { return nil }
