package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/p4lru/p4lru/internal/netproto"
	"github.com/p4lru/p4lru/internal/obs"
	"github.com/p4lru/p4lru/internal/obs/span"
	"github.com/p4lru/p4lru/internal/resilience"
)

// ErrNoNodes reports an operation against a router whose ring is empty.
var ErrNoNodes = errors.New("cluster: ring has no nodes")

// ErrHinted reports an update whose owner was unreachable: the write was
// parked in the hint log for replay when the owner (or its successor)
// recovers. It is acceptance at reduced durability, not an ack — the value
// is not resident anywhere yet.
var ErrHinted = errors.New("cluster: owner unreachable; update parked as hint")

// ErrDegraded reports a miss-path load shed while the router is partitioned
// away from the ring majority: serving local arcs stays correct, but
// re-loading every unreachable arc's key from the backing store would hand
// the origin the full remote working set at the worst possible moment.
var ErrDegraded = errors.New("cluster: degraded (minority partition); remote-miss load shed")

// Config parameterizes New. The zero value gets sane defaults.
type Config struct {
	// Seed derives the ring-position hash and vnode placement. Every router
	// and NodeServer in one cluster must share it.
	Seed uint64
	// VNodes is the virtual nodes per member (0 = 64). More vnodes smooth
	// ownership imbalance at the cost of a deeper membership-change plan.
	VNodes int
	// Replicas is the total copy count for hot keys, owner included
	// (0 or 1 = no replication).
	Replicas int
	// HotK is how many top keys the CU-sketch tracker promotes to the
	// replicated hot set (0 = 128; negative disables hot tracking, and with
	// it replication fan-out).
	HotK int
	// Breaker parameterizes the per-peer circuit breakers. Name is
	// overridden per peer; Obs defaults to Config.Obs.
	Breaker resilience.BreakerConfig
	// HeartbeatEvery is the cadence of the heartbeat round: pings, the
	// gossip exchange and the suspect → dead verdicts (0 = 250ms; negative
	// turns the round off — membership then changes only through explicit
	// Join/Leave/Fail, while window expiry, hint replay and repairs still
	// run).
	HeartbeatEvery time.Duration
	// DualReadFor is how long after a Leave or Fail a miss in a moved arc
	// retries the arc's previous holder (0 = 2s). It must comfortably cover
	// a migration stream's duration. A join opens no window.
	DualReadFor time.Duration
	// SuspectAfter is how long a member stays suspect before this router
	// confirms it dead and removes it (0 = 4×HeartbeatEvery, or 1s when the
	// heartbeat round is off). A suspect whose breaker re-closes within the
	// window is refuted back to alive at a higher incarnation.
	SuspectAfter time.Duration
	// Resolver dials a peer handle for a member learned through gossip.
	// nil = DialNode on the digest's advertised addresses (address-less
	// digests are skipped). Handles the router resolves itself are owned by
	// the router and closed when the member is pruned.
	Resolver func(netproto.MemberDigest) (Peer, error)
	// RepairRate caps repair installs per second (0 = 128).
	RepairRate int
	// RepairSweepEvery is the anti-entropy sweep cadence over the published
	// hot set (0 = 2s; negative disables the sweep, leaving only read-path
	// repair).
	RepairSweepEvery time.Duration
	// Obs, when non-nil, receives the cluster_* metrics.
	Obs *obs.Registry
	// Span, when non-nil, records one KindMigrate span per executed
	// range transfer (StageFetch = pull open, StageApply = push+restore).
	Span *span.Tracer
}

func (c Config) withDefaults() Config {
	if c.VNodes <= 0 {
		c.VNodes = 64
	}
	if c.Replicas <= 0 {
		c.Replicas = 1
	}
	if c.HotK == 0 {
		c.HotK = 128
	}
	if c.HeartbeatEvery == 0 {
		c.HeartbeatEvery = 250 * time.Millisecond
	}
	if c.DualReadFor <= 0 {
		c.DualReadFor = 2 * time.Second
	}
	if c.SuspectAfter <= 0 {
		if c.HeartbeatEvery > 0 {
			c.SuspectAfter = 4 * c.HeartbeatEvery
		} else {
			c.SuspectAfter = time.Second
		}
	}
	if c.RepairRate <= 0 {
		c.RepairRate = 128
	}
	if c.RepairSweepEvery == 0 {
		c.RepairSweepEvery = 2 * time.Second
	}
	if c.Breaker.Obs == nil {
		c.Breaker.Obs = c.Obs
	}
	return c
}

// dualWindow marks a set of hash arcs that a Leave or Fail recently moved:
// until the deadline, a read miss inside the arcs retries source (the
// previous holder) and re-installs hits at the new owner. Windows ride the
// immutable ringState, so the query path reads them without locks, and a
// published window is open: step republishes the state without it at its
// deadline, so the query path reads no clock.
type dualWindow struct {
	arcs   [][2]uint64
	source string
	until  time.Time

	// Resolved by ringState.index into the state that carries the window.
	cover arcIndex // arcsContain(arcs, ·) in O(1)
	src   int      // source's slot in the state's peer arrays; -1 = no handle
}

// move is one set of arcs a join is copying to its destination. While a
// state carrying it is published, every write to the arcs also goes to
// dest, under mu, which the join's stream of the arcs holds from the pull
// to the restore (see Router.join).
type move struct {
	arcs [][2]uint64
	dest string
	mu   *sync.Mutex

	// Resolved by ringState.index into the state that carries the move.
	cover arcIndex
	dst   int // dest's slot
}

// ringState is the router's atomically-swapped view of the cluster: the
// ring, the peer handles (including tombstones — departed members kept
// reachable while a dual-read window still points at them — and a joiner
// while its moves run), the active windows and moves. It is built whole
// and never mutated once published.
//
// ids/peerArr/locArr/brkArr are the per-op paths' view of peers and the
// peer gate, indexed by slot: slot i < ring.Size() is ring.Members()[i],
// later slots are the tombstones the windows read from and the joiner the
// moves write to. Every per-op call
// indexes them instead of paying string-map lookups and the gate's lock.
// locArr devirtualizes in-process peers: where peerArr[i] is a *LocalPeer,
// locArr[i] is that peer, so reads reach the engine with a direct call
// instead of an interface-dispatched frame.
type ringState struct {
	ring    *Ring
	peers   map[string]Peer
	ids     []string
	peerArr []Peer
	locArr  []*LocalPeer
	brkArr  []*resilience.Breaker
	windows []dualWindow
	moves   []move
}

// index builds the slot arrays and resolves every window and move against
// them. Called once per swap, before the state is published.
func (st *ringState) index(gate *resilience.PeerGate) {
	for _, id := range st.ring.Members() {
		st.addSlot(id, gate)
	}
	for i := range st.windows {
		w := &st.windows[i]
		w.cover = newArcIndex(w.arcs)
		// A source out of the ring is a tombstone slot, or -1 for a corpse
		// (no handle kept, no dual reads).
		w.src = slices.Index(st.ids, w.source)
		if w.src < 0 && st.peers[w.source] != nil {
			w.src = st.addSlot(w.source, gate)
		}
	}
	for i := range st.moves {
		m := &st.moves[i]
		m.cover = newArcIndex(m.arcs)
		if m.dst = slices.Index(st.ids, m.dest); m.dst < 0 {
			m.dst = st.addSlot(m.dest, gate)
		}
	}
}

// addSlot appends id's peer handle and breaker as a new slot.
func (st *ringState) addSlot(id string, gate *resilience.PeerGate) int {
	p := st.peers[id]
	lp, _ := p.(*LocalPeer)
	st.ids = append(st.ids, id)
	st.peerArr = append(st.peerArr, p)
	st.locArr = append(st.locArr, lp)
	st.brkArr = append(st.brkArr, gate.Peer(id))
	return len(st.ids) - 1
}

// Router fronts a set of engine nodes as one Engine-shaped cache: Query,
// Update and GetOrLoad place keys on ring owners, fan hot keys across
// replicas, and survive node death behind per-peer circuit breakers.
// Membership changes (Join/Leave/Fail, or the heartbeat failure detector)
// move only the affected hash ranges, streamed as range-filtered snapshots.
// A join sends the writes to its moving arcs to the joiner as well while
// they stream, so it swaps warm with no read window; a Leave or Fail opens
// a dual-read window to mask the handoff, since its source may be gone. A
// write that raced a membership change lands again where the new state
// routes it before it returns, so no acked write is lost to the stream.
//
// All methods are safe for concurrent use. The per-op paths (Query, Update,
// GetOrLoad) take no gate lock, read no clock and, while peers answer,
// allocate nothing: one atomic state load, an O(1) ring lookup, and per
// peer call a breaker liveness load; a write loads the state once more
// when it returns.
type Router struct {
	cfg  Config
	gate *resilience.PeerGate
	hot  *hotKeys

	// member is the router's gossip view of the cluster; hints is the
	// hinted-handoff log.
	member *Membership
	hints  *hintLog

	state atomic.Pointer[ringState]

	mu     sync.Mutex      // serializes membership changes
	owned  map[string]Peer // handles the router dialed itself; guarded by mu
	closed atomic.Bool

	// run, the one background goroutine, calls step when its timer fires or
	// kick sends on wake; Close closes stop and waits for done.
	wake       chan struct{}
	stop, done chan struct{}

	// stepMu serializes step and guards the schedule below it.
	stepMu                          sync.Mutex
	nextBeat, nextRepair, nextSweep time.Time
	jitter                          *rand.Rand // seeds the heartbeat's ±10% jitter
	gossipRR                        int        // rotates the per-beat gossip partner

	repairQ chan repairJob

	degraded atomic.Bool // minority-partition mode, refreshed each heartbeat

	okSample atomic.Uint64 // samples breaker success recording in do
	rr       atomic.Uint64 // rotates hot-key read fan-out across replicas

	queries, hits, fanReads       *obs.Counter
	dualReads, dualHits           *obs.Counter
	updates, replicaFanFails      *obs.Counter
	migrations, migratedPairs     *obs.Counter
	autoFails                     *obs.Counter
	gossipRounds, gossipMerges    *obs.Counter
	suspects, confirms            *obs.Counter
	repairsQueued, repairsApplied *obs.Counter
	repairsDropped, sweeps        *obs.Counter
	sweepDiverged                 *obs.Counter
	hintsParked, hintsReplayed    *obs.Counter
	hintsDropped, degradedSheds   *obs.Counter
	nodesGauge, degradedGauge     *obs.Gauge
}

// New builds a router with an empty ring; add nodes with Join, or join one
// seed and let the digest exchange find the rest.
func New(cfg Config) *Router {
	cfg = cfg.withDefaults()
	r := &Router{
		cfg: cfg,
		// The router is a gossip observer, not a member: it has no self
		// entry, so it spreads and adopts verdicts but never refutes one.
		member:  NewMembership("", "", ""),
		owned:   map[string]Peer{},
		hints:   newHintLog(hintsPerPeer),
		wake:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
		jitter:  rand.New(rand.NewSource(int64(cfg.Seed)*0x9e3779b9 + 0x5bd1e995)),
		repairQ: make(chan repairJob, repairQueueCap),
	}
	// Chain the router's own breaker observer in front of any caller's: the
	// recovery edge (→ closed) refutes a suspicion and wakes the loop to
	// replay hints, the trip edge (→ open) feeds the gossip suspect pipeline.
	userCB := cfg.Breaker.OnStateChange
	cfg.Breaker.OnStateChange = func(name string, from, to resilience.State) {
		if userCB != nil {
			userCB(name, from, to)
		}
		r.onBreakerChange(name, from, to)
	}
	r.cfg.Breaker = cfg.Breaker
	r.gate = resilience.NewPeerGate(cfg.Breaker)
	if cfg.HotK > 0 && cfg.Replicas > 1 {
		// Hot-key tracking only matters when there are successors to
		// replicate to; without replication the tracker would tax every
		// query for nothing.
		r.hot = newHotKeys(cfg.HotK, cfg.Seed)
	}
	empty := &ringState{
		ring:  NewRing(cfg.Seed, cfg.VNodes, nil),
		peers: map[string]Peer{},
	}
	empty.index(r.gate)
	r.state.Store(empty)
	if reg := cfg.Obs; reg != nil {
		r.queries = reg.Counter("cluster_queries_total")
		r.hits = reg.Counter("cluster_hits_total")
		r.fanReads = reg.Counter("cluster_fan_reads_total")
		r.dualReads = reg.Counter("cluster_dual_reads_total")
		r.dualHits = reg.Counter("cluster_dual_hits_total")
		r.updates = reg.Counter("cluster_updates_total")
		r.replicaFanFails = reg.Counter("cluster_replica_fan_fails_total")
		r.migrations = reg.Counter("cluster_migrations_total")
		r.migratedPairs = reg.Counter("cluster_migrated_pairs_total")
		r.autoFails = reg.Counter("cluster_auto_fails_total")
		r.gossipRounds = reg.Counter("cluster_gossip_rounds_total")
		r.gossipMerges = reg.Counter("cluster_gossip_merges_total")
		r.suspects = reg.Counter("cluster_suspects_total")
		r.confirms = reg.Counter("cluster_confirms_total")
		r.repairsQueued = reg.Counter("cluster_repairs_enqueued_total")
		r.repairsApplied = reg.Counter("cluster_repairs_applied_total")
		r.repairsDropped = reg.Counter("cluster_repairs_dropped_total")
		r.sweeps = reg.Counter("cluster_sweeps_total")
		r.sweepDiverged = reg.Counter("cluster_sweep_divergence_total")
		r.hintsParked = reg.Counter("cluster_hints_parked_total")
		r.hintsReplayed = reg.Counter("cluster_hints_replayed_total")
		r.hintsDropped = reg.Counter("cluster_hints_dropped_total")
		r.degradedSheds = reg.Counter("cluster_degraded_sheds_total")
		r.nodesGauge = reg.Gauge("cluster_nodes")
		r.degradedGauge = reg.Gauge("cluster_degraded")
		reg.GaugeFunc("cluster_hot_keys", func() float64 {
			return float64(len(r.hot.Keys()))
		})
		reg.GaugeFunc("cluster_hints_pending", func() float64 {
			return float64(r.hints.pending())
		})
		reg.GaugeFunc("cluster_membership_version", func() float64 {
			return float64(r.member.Version())
		})
	}
	now := time.Now()
	r.nextBeat = now.Add(r.beatEvery())
	r.nextSweep = now.Add(cfg.RepairSweepEvery)
	go r.run()
	return r
}

// Close stops the background loop and waits for it, then closes peer
// handles the router dialed itself. Handles passed to Join (and their
// engines) belong to the caller and are left open.
func (r *Router) Close() {
	if !r.closed.CompareAndSwap(false, true) {
		return
	}
	close(r.stop)
	<-r.done
	r.mu.Lock()
	defer r.mu.Unlock()
	for id, p := range r.owned {
		_ = p.Close()
		delete(r.owned, id)
	}
}

// Membership returns the router's gossip view.
func (r *Router) Membership() *Membership { return r.member }

// Degraded reports whether the router is in minority-partition mode: more
// than half its ring members unreachable, remote-miss loads being shed.
func (r *Router) Degraded() bool { return r.degraded.Load() }

// PendingHints reports how many writes are parked in the hint log awaiting
// an unreachable peer's recovery.
func (r *Router) PendingHints() int { return r.hints.pending() }

// Ring returns the current ring (immutable).
func (r *Router) Ring() *Ring { return r.state.Load().ring }

// Members returns the current sorted member list.
func (r *Router) Members() []string { return r.state.Load().ring.Members() }

// HotKeys returns the currently-published replicated hot set.
func (r *Router) HotKeys() []uint64 { return r.hot.Keys() }

// replicas returns the effective copy count.
func (r *Router) replicas() int {
	if r.hot == nil {
		return 1
	}
	return r.cfg.Replicas
}

// do runs one call against peer id through its breaker. While the breaker
// is live (closed) the call proceeds on the lock-free path — failures are
// always recorded, successes on a 1-in-16 sample, which keeps the breaker's
// mutex off the call path. Once the breaker trips, calls fall back to the
// full Allow/Record protocol that owns the half-open probe bookkeeping.
//
// do addresses a peer by id through the gate and a closure: it serves the
// background calls that are not key operations (heartbeat pings, gossip).
// Every Query and Update goes through queryIdx or updateIdx.
func (r *Router) do(id string, f func() error) error {
	b := r.gate.Peer(id)
	if b.Live() {
		err := f()
		if err != nil {
			b.Record(false)
		} else if r.okSample.Add(1)&15 == 0 {
			b.Record(true)
		}
		return err
	}
	if !b.Allow() {
		return fmt.Errorf("cluster: peer %s: %w", id, resilience.ErrOpen)
	}
	err := f()
	b.Record(err == nil)
	return err
}

// queryIdx reads key from the peer in slot i through its breaker — every
// per-op read goes through it. It touches only the slot arrays built at
// swap time, so a hit costs one breaker liveness load and the peer call
// (direct, not interface-dispatched, for in-process peers). Success
// recording is sampled on key bits rather than a shared counter: across a
// key population it still averages 1-in-16, without an atomic RMW
// contended by every query. The tripped-breaker branch lives apart, in
// queryIdxSlow.
func (r *Router) queryIdx(st *ringState, i int, key uint64) (uint64, bool, error) {
	b := st.brkArr[i]
	if !b.Live() {
		return r.queryIdxSlow(st, i, key)
	}
	if lp := st.locArr[i]; lp != nil && !lp.down.Load() {
		v, _, ok := lp.eng.Query(key)
		if key&15 == 0 {
			b.Record(true)
		}
		return v, ok, nil
	}
	v, ok, err := st.peerArr[i].Query(key)
	if err != nil {
		b.Record(false)
	} else if key&15 == 0 {
		b.Record(true)
	}
	return v, ok, err
}

// queryIdxSlow is queryIdx's tripped-breaker path: the full Allow/Record
// protocol that owns the half-open probe bookkeeping.
func (r *Router) queryIdxSlow(st *ringState, i int, key uint64) (uint64, bool, error) {
	b := st.brkArr[i]
	if !b.Allow() {
		return 0, false, fmt.Errorf("cluster: peer %s: %w", st.ids[i], resilience.ErrOpen)
	}
	v, ok, err := st.peerArr[i].Query(key)
	b.Record(err == nil)
	return v, ok, err
}

// updateIdx is queryIdx's write twin: it installs key → val at the peer in
// slot i through its breaker, with the same liveness gate and key-bit
// success sampling. Every write goes through it: the owner write and
// replica fan that Update and GetOrLoad's install share, the dual-read
// re-install and the repair drain's install.
func (r *Router) updateIdx(st *ringState, i int, key, val uint64) error {
	b := st.brkArr[i]
	if !b.Live() {
		return r.updateIdxSlow(st, i, key, val)
	}
	err := st.peerArr[i].Update(key, val)
	if err != nil {
		b.Record(false)
	} else if key&15 == 0 {
		b.Record(true)
	}
	return err
}

// updateIdxSlow is updateIdx's tripped-breaker path.
func (r *Router) updateIdxSlow(st *ringState, i int, key, val uint64) error {
	b := st.brkArr[i]
	if !b.Allow() {
		return fmt.Errorf("cluster: peer %s: %w", st.ids[i], resilience.ErrOpen)
	}
	err := st.peerArr[i].Update(key, val)
	b.Record(err == nil)
	return err
}

// Query reads key from its ring owner; hot keys rotate across the replica
// set instead, so elephant flows spread over R nodes and survive any
// single replica's death. A miss inside an active dual-read window retries
// the arc's previous holder and re-installs hits at the new owner.
//
// The error is non-nil only when no replica could answer at all — a miss
// from a live owner is (0, false, nil), exactly like engine.Query plus ok.
func (r *Router) Query(key uint64) (uint64, bool, error) {
	st := r.state.Load()
	if st.ring.Size() == 0 {
		return 0, false, ErrNoNodes
	}
	r.queries.Inc()
	if r.hot != nil {
		r.hot.Touch(key)
	}

	if st.ring.Size() == 1 && len(st.windows) == 0 {
		// Solo fast path: one member owns the whole circle, so skip the
		// position hash and ring walk entirely. The in-process happy path is
		// additionally hand-inlined — this is the benchmarked overhead of
		// fronting a single engine with the router.
		if b := st.brkArr[0]; b.Live() {
			if lp := st.locArr[0]; lp != nil && !lp.down.Load() {
				v, _, ok := lp.eng.Query(key)
				if key&15 == 0 {
					b.Record(true)
				}
				if ok {
					r.hits.Inc()
				}
				return v, ok, nil
			}
		}
		v, ok, err := r.queryIdx(st, 0, key)
		if ok {
			r.hits.Inc()
		}
		return v, ok, err
	}
	v, ok, _, err := r.query(st, key)
	return v, ok, err
}

// query is Query's routed read of key in st, a non-empty ring, after the
// counter and the hot-key touch. It also returns where Update would install
// key in st: the owner's slot for a key that is not hot, or -1 for a hot
// key, whose install fans to its replicas. GetOrLoad installs there without
// routing again.
func (r *Router) query(st *ringState, key uint64) (uint64, bool, int, error) {
	pos := st.ring.Pos(key)
	if !r.hot.Hot(key) {
		owner := st.ring.OwnerIdxAt(pos)
		v, ok, err := r.queryIdx(st, owner, key)
		if ok {
			r.hits.Inc()
			return v, true, owner, nil
		}
		read := [8]int{owner}
		if v, ok = r.dualRead(st, pos, key, read[:1]); ok {
			return v, true, owner, nil
		}
		return 0, false, owner, err
	}

	r.fanReads.Inc()
	var buf [8]int
	reps := st.ring.replicaIdxAt(buf[:], pos, r.replicas())
	start := int(r.rr.Add(1)) % len(reps)
	var lastErr error
	answered := false
	// Replicas that answered a miss before another replica hit have observably
	// diverged from the hot set — free read-repair triggers. The fixed array
	// keeps the fan path allocation-free.
	var missed [8]int
	nm := 0
	for i := range reps {
		m := reps[(start+i)%len(reps)]
		v, ok, err := r.queryIdx(st, m, key)
		if err != nil {
			lastErr = err
			continue
		}
		answered = true
		if ok {
			r.hits.Inc()
			for _, j := range missed[:nm] {
				r.enqueueRepair(key, st.ids[j])
			}
			return v, true, -1, nil
		}
		if nm < len(missed) {
			missed[nm] = m
			nm++
		}
	}
	if v, ok := r.dualRead(st, pos, key, reps); ok {
		return v, true, -1, nil
	}
	if answered {
		return 0, false, -1, nil
	}
	return 0, false, -1, lastErr
}

// dualRead retries a miss at the previous holders of pos's arc while
// migration windows are open, re-installing a hit at the owner. read holds
// the slots this query already asked, the owner first. dualRead skips them
// and asks every other source once, however many covering windows name it:
// it appends each source it asks to read, up to read's capacity (past it, a
// repeated source costs a read, never an allocation). A published window is
// open, so no clock is read here.
func (r *Router) dualRead(st *ringState, pos, key uint64, read []int) (uint64, bool) {
	for i := range st.windows {
		w := &st.windows[i]
		if w.src < 0 || slices.Contains(read, w.src) || !w.cover.contains(pos) {
			continue
		}
		if len(read) < cap(read) {
			read = append(read, w.src)
		}
		r.dualReads.Inc()
		v, ok, err := r.queryIdx(st, w.src, key)
		if err != nil || !ok {
			continue
		}
		r.dualHits.Inc()
		r.hits.Inc()
		_ = r.put(st, read[0], key, v) // warm the new owner; best-effort
		return v, true
	}
	return 0, false
}

// Update installs key → val at its ring owner synchronously — a nil return
// means the owner applied and acked it. Hot keys additionally fan to the
// replica successors, best-effort: a replica that misses an update serves a
// stale read only until the next fan reaches it, and the owner remains the
// authority.
//
// When the owner is unreachable (breaker open, node mute), the write is
// parked in the owner's hint log and ErrHinted returned: accepted at
// reduced durability, replayed when the owner recovers or rerouted if it
// leaves the ring. Callers that need the hard ack treat ErrHinted as a
// failure; callers that want availability treat it as success. An acked
// write drops the hints parked for its key, so no later replay rolls it
// back.
func (r *Router) Update(key, val uint64) error {
	return r.write(r.state.Load(), -1, key, val)
}

// write is update in the newest state: it writes key → val in st, then
// again in each newer state it finds published when that write returns,
// until a state stays current through a whole write. A write that loaded
// the state from before a swap or a join's moves may reach a holder after
// the migration stream has read it; it then finds the new state and lands
// again where that state routes it, so a membership change need not wait
// for writes in flight. owner is update's and holds for st only.
func (r *Router) write(st *ringState, owner int, key, val uint64) error {
	for {
		if st.ring.Size() == 0 {
			return ErrNoNodes
		}
		err := r.update(st, owner, key, val)
		cur := r.state.Load()
		if cur == st {
			return err
		}
		st, owner = cur, -1
	}
}

// update is one write of key → val in st, a non-empty ring: at the owner,
// or the replica set of a hot key, and at the joiner of a move covering
// key. owner is the slot of key's owner when the caller has already routed
// a key that is not hot (GetOrLoad's install, from its query), or -1 to
// route here.
func (r *Router) update(st *ringState, owner int, key, val uint64) error {
	r.updates.Inc()
	var pos uint64
	if owner < 0 {
		pos = st.ring.Pos(key)
		if !r.hot.Hot(key) {
			owner = st.ring.OwnerIdxAt(pos)
		}
	}
	var buf [8]int
	reps := append(buf[:0], owner)
	if owner < 0 {
		reps = st.ring.replicaIdxAt(buf[:], pos, r.replicas())
	}
	err := r.updateIdx(st, reps[0], key, val)
	if err == nil {
		// Before the fan: the hints it parks carry the new value.
		r.hints.supersede(key)
	} else if r.parkHint(st.ids[reps[0]], key, val, err) {
		err = ErrHinted
	}
	for _, m := range reps[1:] {
		if ferr := r.updateIdx(st, m, key, val); ferr != nil {
			r.replicaFanFails.Inc()
			r.parkHint(st.ids[m], key, val, ferr)
		}
	}
	if derr := r.dualWrite(st, key, val); err == nil {
		err = derr
	}
	return err
}

// put installs key → val at slot i of st and at the joiner of a move
// covering key: the best-effort writes that are not Update's, the dual-read
// re-install and the repair drain's install.
func (r *Router) put(st *ringState, i int, key, val uint64) error {
	err := r.updateIdx(st, i, key, val)
	if derr := r.dualWrite(st, key, val); err == nil {
		err = derr
	}
	return err
}

// dualWrite sends key → val to the joiner of every move in st that covers
// key, after key's holders took it. The move's lock orders the write
// against the join's stream of the arcs (see join). A joiner that cannot
// be reached gets a hint, and the write reports ErrHinted.
func (r *Router) dualWrite(st *ringState, key, val uint64) error {
	if len(st.moves) == 0 {
		return nil
	}
	pos := st.ring.Pos(key)
	var err error
	for i := range st.moves {
		m := &st.moves[i]
		if !m.cover.contains(pos) {
			continue
		}
		m.mu.Lock()
		merr := r.updateIdx(st, m.dst, key, val)
		m.mu.Unlock()
		if merr != nil && r.parkHint(m.dest, key, val, merr) {
			merr = ErrHinted
		}
		if err == nil {
			err = merr
		}
	}
	return err
}

// parkHint parks key → val for an unreachable peer, reporting whether it
// did. Only down-class failures (unreachable, timed out, breaker open) are
// hintable — an error from a node that answered means the write was seen
// and refused, and replaying it later would be wrong.
func (r *Router) parkHint(id string, key, val uint64, err error) bool {
	if !isDownClass(err) {
		return false
	}
	if r.hints.park(id, key, val) {
		r.hintsDropped.Inc()
	}
	r.hintsParked.Inc()
	return true
}

// isDownClass reports whether err says the peer could not be reached at
// all, as opposed to reached-and-refused.
func isDownClass(err error) bool {
	return errors.Is(err, netproto.ErrUnreachable) ||
		errors.Is(err, netproto.ErrTimeout) ||
		errors.Is(err, resilience.ErrOpen)
}

// GetOrLoad reads key, falling back to load on a miss and installing the
// loaded value — the cluster-wide analogue of tiered GetOrLoad. A failed
// install is not an error (it costs a future miss, not correctness).
//
// While the router is degraded (minority partition), misses caused by an
// unreachable owner are shed instead of loaded: local arcs keep serving at
// full fidelity, but the partitioned arcs' working set is not re-fetched
// from the backing store wholesale.
//
// The key is routed once: the install reuses the query's state and owner
// slot, and routes again only when a membership change swapped the state
// during load, so it lands exactly where Update would put it. Like Update,
// an install that races a later swap lands again in the new state.
func (r *Router) GetOrLoad(key uint64, load func(key uint64) (uint64, error)) (uint64, error) {
	st := r.state.Load()
	if st.ring.Size() == 0 {
		return 0, ErrNoNodes
	}
	r.queries.Inc()
	r.hot.Touch(key)
	v, ok, owner, err := r.query(st, key)
	if ok {
		return v, nil
	}
	if err != nil && r.degraded.Load() {
		// The miss is unreachability, not absence — the owner may well hold
		// the key on the other side of the partition.
		r.degradedSheds.Inc()
		return 0, ErrDegraded
	}
	v, err = load(key)
	if err != nil {
		return 0, err
	}
	if cur := r.state.Load(); cur != st {
		st, owner = cur, -1
	}
	_ = r.write(st, owner, key, v)
	return v, nil
}

// Join adds node id (reached through peer) to the ring. Ownership of the
// affected arcs is migrated to the new node *before* the ring swap, so the
// node serves its first query already warm, and no read window follows
// (see join). The router does not take ownership of the peer handle. The
// join also asserts the member alive in the membership table (refuting any
// standing accusation), so a re-joined node spreads to other routers.
func (r *Router) Join(id string, peer Peer) error {
	return r.join(id, peer, false)
}

func (r *Router) join(id string, peer Peer, owned bool) error {
	if id == "" || peer == nil {
		return fmt.Errorf("cluster: Join needs a node id and a peer")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed.Load() {
		return fmt.Errorf("cluster: router closed")
	}
	st := r.state.Load()
	if containsStr(st.ring.Members(), id) {
		return fmt.Errorf("cluster: %q is already a member", id)
	}
	next := NewRing(r.cfg.Seed, r.cfg.VNodes, append(append([]string{}, st.ring.Members()...), id))
	peers := clonePeers(st.peers)
	peers[id] = peer
	if owned {
		r.owned[id] = peer
	}
	udp, tcp := peer.Addrs()
	r.member.Alive(id, udp, tcp)

	// Migrate-then-swap. The moves are published on the old ring first:
	// from then on every write to a moving arc reaches the joiner too, and
	// a write that loaded an older state writes again once it sees them
	// (write). Each arc set streams under its move's lock, which the
	// joiner's dual writes take too, so a dual write lands before the pull,
	// when the source already holds its value, or after the restore. The
	// restore can therefore overwrite, as it must for a joiner that comes
	// back holding older pairs, without rolling a write back, and the swap
	// needs no read window.
	transfers := Plan(st.ring, next, r.replicas())
	if len(transfers) > 0 {
		moves := make([]move, len(transfers))
		for i, t := range transfers {
			moves[i] = move{arcs: t.Arcs, dest: t.Dest, mu: new(sync.Mutex)}
		}
		r.swap(st, st.ring, peers, nil, moves, time.Now())
		r.execute(peers, transfers, "", moves)
		st = r.state.Load()
	}
	r.swap(st, next, clonePeers(peers), nil, nil, time.Now())
	return nil
}

// Leave removes node id gracefully: the ring is swapped first (writes stop
// arriving; one that raced the swap lands again at the new holders), then
// the departing node streams the moved arcs to their new holders, with a
// dual-read window covering reads in between. The peer handle stays
// reachable as a tombstone until its windows expire — close it after
// ~DualReadFor, not immediately.
func (r *Router) Leave(id string) error {
	return r.remove(id, false)
}

// Fail removes node id as dead: the ring is swapped immediately and the
// moved arcs are re-streamed from surviving replicas (there are none to
// recover from unless Replicas > 1 — un-replicated keys on a dead node are
// a cache miss, not data loss). The heartbeat round removes a member the
// same way once its suspect verdict hardens to dead.
func (r *Router) Fail(id string) error {
	return r.remove(id, true)
}

func (r *Router) remove(id string, dead bool) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.state.Load()
	if !containsStr(st.ring.Members(), id) {
		return fmt.Errorf("cluster: %q is not a member", id)
	}
	if !dead {
		r.member.Left(id)
	} else if r.member.Confirm(id) {
		r.confirms.Inc()
	}
	members := make([]string, 0, st.ring.Size()-1)
	for _, m := range st.ring.Members() {
		if m != id {
			members = append(members, m)
		}
	}
	next := NewRing(r.cfg.Seed, r.cfg.VNodes, members)
	peers := clonePeers(st.peers)
	if dead {
		delete(peers, id) // no dual reads at a corpse
		r.gate.Drop(id)
	}

	// Swap-then-migrate: traffic leaves the node at the swap; the streams
	// that follow restore keep-existing, so writes landing at the new
	// owners meanwhile are never rolled back, and dual-read windows mask
	// the gap until each arc's stream completes.
	transfers := Plan(st.ring, next, r.replicas())
	skip := ""
	if dead {
		skip = id
	}
	r.swap(st, next, peers, r.windowsFor(transfers, skip), nil, time.Now())
	r.execute(r.state.Load().peers, transfers, skip, nil)
	return nil
}

// windowsFor opens one dual-read window per transfer before the streams
// run, pointing at the first usable source.
func (r *Router) windowsFor(transfers []Transfer, skip string) []dualWindow {
	st := r.state.Load()
	until := time.Now().Add(r.cfg.DualReadFor)
	var out []dualWindow
	for _, t := range transfers {
		for _, s := range t.Sources {
			if s == skip || st.peers[s] == nil {
				continue
			}
			out = append(out, dualWindow{arcs: t.Arcs, source: s, until: until})
			break
		}
	}
	return out
}

// execute streams every transfer from its first healthy source into its
// destination. A join passes its moves, one per transfer: each stream then
// runs under its move's lock and restores in overwrite mode. Leave and Fail
// pass nil: their destinations already take writes as members, so they
// restore keep-existing.
func (r *Router) execute(peers map[string]Peer, transfers []Transfer, skip string, moves []move) {
	for i, t := range transfers {
		dst := peers[t.Dest]
		if dst == nil {
			continue
		}
		var mu *sync.Mutex
		if moves != nil {
			mu = moves[i].mu
		}
		for _, s := range t.Sources {
			if s != skip && peers[s] != nil && r.stream(peers[s], dst, t.Arcs, mu) == nil {
				break
			}
		}
	}
}

// stream copies the pairs src holds in arcs into dst, holding mu from the
// pull to the restore when a join passes one, and then overwriting.
func (r *Router) stream(src, dst Peer, arcs [][2]uint64, mu *sync.Mutex) error {
	if mu != nil {
		mu.Lock()
		defer mu.Unlock()
	}
	sp := r.cfg.Span.Start(0, 0)
	defer sp.Finish(span.KindMigrate)
	rc, err := src.OpenPull(arcs)
	if err != nil {
		return err
	}
	sp.Mark(span.StageFetch)
	n, err := dst.Push(rc, mu == nil)
	rc.Close()
	sp.Mark(span.StageApply)
	sp.SetBatch(n)
	if err != nil {
		return err
	}
	r.migrations.Inc()
	r.migratedPairs.Add(uint64(n))
	return nil
}

// swap publishes the new membership with moves and with the windows still
// open at now, new and carried over, prunes tombstone peers no window
// references anymore, and kicks the loop, whose next step times the
// earliest deadline left. Caller holds r.mu.
func (r *Router) swap(st *ringState, next *Ring, peers map[string]Peer, windows []dualWindow, moves []move, now time.Time) {
	windows = slices.DeleteFunc(append(windows, st.windows...), func(w dualWindow) bool {
		return !now.Before(w.until)
	})
	// Peers out of the ring stay only while a window reads from them (a
	// tombstone) or a move writes to them (the joiner).
	for id := range peers {
		if containsStr(next.Members(), id) ||
			slices.ContainsFunc(windows, func(w dualWindow) bool { return w.source == id }) ||
			slices.ContainsFunc(moves, func(m move) bool { return m.dest == id }) {
			continue
		}
		delete(peers, id)
	}
	ns := &ringState{ring: next, peers: peers, windows: windows, moves: moves}
	ns.index(r.gate)
	r.state.Store(ns)
	r.nodesGauge.Set(float64(next.Size()))
	r.kick()
	// Handles the router dialed itself die with their membership: once a
	// resolved peer is out of the ring and past its windows, close it.
	for id, p := range r.owned {
		if peers[id] == nil {
			_ = p.Close()
			delete(r.owned, id)
		}
	}
}

// run is the router's one background goroutine: it calls step whenever the
// time step asked for comes, or kick reports new work, until Close.
func (r *Router) run() {
	defer close(r.done)
	t := time.NewTimer(0)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-r.wake:
		case <-t.C:
		}
		next := r.step(time.Now())
		if !t.Stop() {
			select {
			case <-t.C:
			default:
			}
		}
		t.Reset(time.Until(next))
	}
}

// kick asks run for a step now, without blocking: a repair job was filed,
// the published state changed (new window deadlines or members), or a
// breaker closed (its hints can replay).
func (r *Router) kick() {
	select {
	case r.wake <- struct{}{}:
	default:
	}
}

// step runs every background duty due at now, in this order, and returns
// the earliest time one falls due next:
//
//  1. the heartbeat round (heartbeatTick), when HeartbeatEvery > 0 and the
//     jittered beat is due;
//  2. window expiry: windows whose deadline is at or before now are
//     unpublished, with any departed member only they still read from;
//  3. hint replay (replayHints);
//  4. the repair drain (drainRepair), one job per 1/RepairRate;
//  5. the sweep (sweepOnce), every RepairSweepEvery, when the router tracks
//     hot keys.
//
// Every due-time decision reads now, not the wall clock, so a test can
// advance the router by calling step at a chosen time; stepMu serializes it
// with run's calls.
func (r *Router) step(now time.Time) time.Time {
	r.stepMu.Lock()
	defer r.stepMu.Unlock()
	beat := r.cfg.HeartbeatEvery > 0
	if beat && !now.Before(r.nextBeat) {
		r.heartbeatTick(now)
		r.nextBeat = now.Add(r.beatEvery())
	}
	r.expireWindows(now)
	r.replayHints()
	r.drainRepair(now)
	sweep := r.hot != nil && r.cfg.RepairSweepEvery > 0
	if sweep && !now.Before(r.nextSweep) {
		r.sweepOnce()
		r.nextSweep = now.Add(r.cfg.RepairSweepEvery)
	}

	next := now.Add(time.Hour) // nothing due: kick brings new work forward
	due := func(t time.Time) {
		if t.Before(next) {
			next = t
		}
	}
	if beat {
		due(r.nextBeat)
	}
	for _, w := range r.state.Load().windows {
		due(w.until)
	}
	if len(r.repairQ) > 0 {
		due(r.nextRepair)
	}
	if sweep {
		due(r.nextSweep)
	}
	return next
}

// beatEvery draws the interval to the next heartbeat round: HeartbeatEvery
// with seeded ±10% jitter, so a fleet of routers stamped from one config
// does not land its whole ping fan on each node at the same instant.
// Caller holds stepMu (or is New).
func (r *Router) beatEvery() time.Duration {
	j := r.cfg.HeartbeatEvery / 10
	if j <= 0 {
		return r.cfg.HeartbeatEvery
	}
	return r.cfg.HeartbeatEvery - j + time.Duration(r.jitter.Int63n(int64(2*j)))
}

// expireWindows is step's window duty: it republishes the state without
// the windows whose deadline is at or before now, and so without the
// departed members only they read from.
func (r *Router) expireWindows(now time.Time) {
	if !slices.ContainsFunc(r.state.Load().windows, func(w dualWindow) bool { return !now.Before(w.until) }) {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.state.Load()
	r.swap(st, st.ring, clonePeers(st.peers), nil, st.moves, now)
}

// heartbeatTick is the heartbeat round at now: it pings every slot through
// its breaker, exchanges digests with one rotating member, turns breaker
// evidence into verdicts (open → suspect, re-closed → alive, suspect past
// SuspectAfter → dead), reconciles the ring against the table and
// recomputes degraded mode. Caller holds stepMu.
func (r *Router) heartbeatTick(now time.Time) {
	st := r.state.Load()
	for i, p := range st.peerArr {
		_ = r.do(st.ids[i], p.Ping)
	}
	members := st.ring.Members()
	if len(members) > 0 {
		r.gossipRR++
		i := r.gossipRR % len(members)
		var reply []netproto.MemberDigest
		err := r.do(st.ids[i], func() error {
			var gerr error
			reply, gerr = st.peerArr[i].Gossip(r.member.Digest())
			return gerr
		})
		r.gossipRounds.Inc()
		if err == nil && r.member.Merge(reply) {
			r.gossipMerges.Inc()
		}
	}
	for _, id := range r.gate.Open() {
		if containsStr(members, id) && r.member.Suspect(id) {
			r.suspects.Inc()
		}
	}
	for _, d := range r.member.Entries() {
		if d.Status != netproto.MemberSuspect {
			continue
		}
		if containsStr(members, d.ID) && r.gate.Peer(d.ID).State() == resilience.Closed {
			// The breaker recovered inside the suspicion window: direct
			// evidence the accusation was wrong — refute it.
			r.member.Alive(d.ID, "", "")
			continue
		}
		if r.member.SuspectedFor(d.ID, now) > r.cfg.SuspectAfter && r.member.Confirm(d.ID) {
			r.confirms.Inc()
		}
	}
	r.reconcile()
	r.refreshDegraded()
}

// reconcile drives the ring toward the membership table's verdicts: alive
// members not yet in the ring are resolved and joined (warm, via the
// migrate-then-swap path), dead and departed members are removed (replica
// re-streaming; the next hint replay re-routes their hints). Suspects stay
// in the ring — their breakers shield the query path while the accusation
// either hardens or is refuted.
func (r *Router) reconcile() {
	for _, d := range r.member.Entries() {
		inRing := containsStr(r.state.Load().ring.Members(), d.ID)
		switch d.Status {
		case netproto.MemberAlive:
			if inRing {
				continue
			}
			p, owned, err := r.resolve(d)
			if err != nil || p == nil {
				continue
			}
			if err := r.join(d.ID, p, owned); err != nil && owned {
				_ = p.Close()
			}
		case netproto.MemberDead:
			if inRing {
				r.autoFails.Inc()
				_ = r.remove(d.ID, true)
			}
		case netproto.MemberLeft:
			if inRing {
				_ = r.remove(d.ID, false)
			}
		}
	}
}

// resolve dials a peer handle for a gossip-learned member. The returned
// owned flag marks handles the router must close when the member is pruned.
func (r *Router) resolve(d netproto.MemberDigest) (Peer, bool, error) {
	if r.cfg.Resolver != nil {
		p, err := r.cfg.Resolver(d)
		return p, true, err
	}
	if d.UDPAddr == "" || d.TCPAddr == "" {
		return nil, false, nil // nothing to dial; wait for addresses to gossip in
	}
	ua, err := net.ResolveUDPAddr("udp", d.UDPAddr)
	if err != nil {
		return nil, false, err
	}
	p, err := netproto.DialNode(ua, d.TCPAddr, 0, 0)
	if err != nil {
		return nil, false, err
	}
	return p, true, nil
}

// onBreakerChange is the router's own breaker observer (chained in front of
// any caller-provided one): the recovery edge refutes a suspicion and kicks
// the loop, whose next step replays the peer's hints; the trip edge files
// the gossip accusation without waiting for the next heartbeat round.
func (r *Router) onBreakerChange(id string, from, to resilience.State) {
	switch {
	case to == resilience.Closed && from != resilience.Closed:
		if s, known := r.member.Status(id); known && s == netproto.MemberSuspect {
			r.member.Alive(id, "", "")
		}
		r.kick()
	case to == resilience.Open:
		if containsStr(r.state.Load().ring.Members(), id) && r.member.Suspect(id) {
			r.suspects.Inc()
		}
	}
}

// refreshDegraded recomputes minority-partition mode: degraded when more
// than half the ring's members sit behind open breakers — this router, not
// the cluster, is probably the one cut off.
func (r *Router) refreshDegraded() {
	st := r.state.Load()
	open := 0
	for _, id := range r.gate.Open() {
		if containsStr(st.ring.Members(), id) {
			open++
		}
	}
	deg := st.ring.Size() > 1 && open*2 > st.ring.Size()
	if r.degraded.Swap(deg) != deg {
		v := 0.0
		if deg {
			v = 1
		}
		r.degradedGauge.Set(v)
	}
}

func clonePeers(in map[string]Peer) map[string]Peer {
	out := make(map[string]Peer, len(in)+1)
	for k, v := range in {
		out[k] = v
	}
	return out
}
