package cluster

import (
	"errors"
	"io"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/p4lru/p4lru/internal/engine"
	"github.com/p4lru/p4lru/internal/resilience"
)

// hintsPerPeer bounds each peer's hint log, in distinct keys.
const hintsPerPeer = 1024

// hintLog parks updates addressed to unreachable peers — hinted handoff.
// One entry per (peer, key) holding the latest value: hints are idempotent
// installs, so a key rewritten while its owner is down costs one slot, not
// one per write. Each peer's log is bounded; at capacity the oldest distinct
// key is evicted (the newest write is the one worth keeping), and the caller
// counts the drop. A write its owner acks supersedes every hint parked for
// its key: replaying the older value later would roll the acked one back.
//
// Replay drains a peer's log in one take and streams it as a synthesized
// snapshot restored keep-existing: writes the recovered node accepted after
// it came back are fresher than any parked hint and are never rolled back.
// Until the replay settles the take, supersede still reaches its pairs, and
// a failed replay re-parks only the pairs nothing newer replaced. The
// inverse staleness — a partitioned (not dead) node whose old residents
// beat the hints — is not the replay's to fix. The anti-entropy sweep reads
// only hot keys and makes each replica agree with the owner, so it heals a
// stale replica but copies a stale owner's value; any other stale copy stays
// until its key is next written or evicted.
type hintLog struct {
	mu     sync.Mutex
	capPer int
	byPeer map[string]*peerHints
	taken  map[string]*peerHints // taken by a replay that has not settled
	n      atomic.Int64          // parked and taken hints, read without mu
}

// peerHints is one peer's parked updates: latest value per key, plus the
// distinct-key insertion order the capacity eviction walks. In a take,
// order keeps every taken key and vals only those nothing superseded.
type peerHints struct {
	vals  map[uint64]uint64
	order []uint64
}

// hint is one taken update.
type hint struct{ key, val uint64 }

func newHintLog(capPer int) *hintLog {
	return &hintLog{capPer: capPer, byPeer: make(map[string]*peerHints), taken: make(map[string]*peerHints)}
}

// park records key → val for peer id, reporting whether an older hint was
// evicted to make room.
func (h *hintLog) park(id string, key, val uint64) (evicted bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	ph := h.byPeer[id]
	if ph == nil {
		ph = &peerHints{vals: make(map[uint64]uint64)}
		h.byPeer[id] = ph
	}
	if _, dup := ph.vals[key]; !dup {
		if len(ph.order) >= h.capPer {
			delete(ph.vals, ph.order[0])
			// Shift rather than re-slice: the backing array is at capacity
			// and stays bounded instead of crawling forward.
			copy(ph.order, ph.order[1:])
			ph.order = ph.order[:len(ph.order)-1]
			evicted = true
		} else {
			h.n.Add(1)
		}
		ph.order = append(ph.order, key)
	}
	ph.vals[key] = val
	return
}

// supersede drops every hint for key, parked or taken by a replay that has
// not settled. The count check keeps the lock off the write path while
// nothing is parked or taken.
func (h *hintLog) supersede(key uint64) {
	if h.n.Load() == 0 {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for id, ph := range h.byPeer {
		if _, ok := ph.vals[key]; !ok {
			continue
		}
		delete(ph.vals, key)
		i := slices.Index(ph.order, key)
		ph.order = slices.Delete(ph.order, i, i+1)
		h.n.Add(-1)
		if len(ph.vals) == 0 {
			delete(h.byPeer, id)
		}
	}
	for _, t := range h.taken {
		if _, ok := t.vals[key]; ok {
			delete(t.vals, key)
			h.n.Add(-1)
		}
	}
}

// take removes every hint parked for id and returns them oldest first (nil
// if none). The caller must settle the take once its replay is done.
func (h *hintLog) take(id string) []hint {
	h.mu.Lock()
	defer h.mu.Unlock()
	ph := h.byPeer[id]
	if ph == nil {
		return nil
	}
	delete(h.byPeer, id)
	h.taken[id] = ph
	out := make([]hint, len(ph.order))
	for i, k := range ph.order {
		out[i] = hint{k, ph.vals[k]}
	}
	return out
}

// settle ends id's take. A delivered take is dropped. A failed one is
// parked again at the front of id's log, oldest first, except for keys
// something newer replaced since the take: a hint parked for id, or a write
// its owner acked. If that overfills the log, the oldest hints go; settle
// returns how many.
func (h *hintLog) settle(id string, delivered bool) (dropped int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	t := h.taken[id]
	if t == nil {
		return 0
	}
	delete(h.taken, id)
	if delivered {
		h.n.Add(-int64(len(t.vals)))
		return 0
	}
	ph := h.byPeer[id]
	if ph == nil {
		ph = &peerHints{vals: make(map[uint64]uint64)}
	}
	back := make([]uint64, 0, len(t.vals)+len(ph.order))
	for _, k := range t.order {
		v, ok := t.vals[k]
		if !ok {
			continue // superseded by an acked write
		}
		if _, newer := ph.vals[k]; newer {
			h.n.Add(-1) // already counted in ph
			continue
		}
		ph.vals[k] = v
		back = append(back, k)
	}
	ph.order = append(back, ph.order...)
	if over := len(ph.order) - h.capPer; over > 0 {
		for _, k := range ph.order[:over] {
			delete(ph.vals, k)
		}
		ph.order = slices.Delete(ph.order, 0, over)
		h.n.Add(-int64(over))
		dropped = over
	}
	if len(ph.order) > 0 {
		h.byPeer[id] = ph
	}
	return dropped
}

// peers returns the ids with hints parked, sorted.
func (h *hintLog) peers() []string {
	if h.n.Load() == 0 {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	ids := make([]string, 0, len(h.byPeer))
	for id := range h.byPeer {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// pendingFor reports how many hints are parked for id or taken by its
// unsettled replay.
func (h *hintLog) pendingFor(id string) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := 0
	if ph := h.byPeer[id]; ph != nil {
		n += len(ph.vals)
	}
	if t := h.taken[id]; t != nil {
		n += len(t.vals)
	}
	return n
}

// pending reports the hints parked or taken across all peers (the gauge).
func (h *hintLog) pending() int { return int(h.n.Load()) }

// replayHints is step's hint duty. For every peer with hints parked, in id
// order: a ring member whose breaker is closed gets them pushed
// keep-existing, and a failed push parks again what nothing newer replaced
// meanwhile, for a later step; an id no longer in the ring has them
// re-routed through Update to the keys' new owners; a member behind a
// breaker that is not closed keeps them. Nothing replays while a join's
// moves are published, and a push that a swap or move overtook counts as
// failed: the pairs it took might have landed after a stream read them.
func (r *Router) replayHints() {
	for _, id := range r.hints.peers() {
		st := r.state.Load()
		if len(st.moves) > 0 {
			return
		}
		i := slices.Index(st.ids, id)
		member := i >= 0 && i < st.ring.Size()
		if member && st.brkArr[i].State() != resilience.Closed {
			continue
		}
		pairs := r.hints.take(id)
		if pairs == nil {
			continue
		}
		n := 0
		if member {
			var err error
			if n, err = pushPairs(st.peerArr[i], pairs); err != nil || r.state.Load() != st {
				r.hintsDropped.Add(uint64(r.hints.settle(id, false)))
				continue
			}
		} else {
			for _, p := range pairs {
				if err := r.Update(p.key, p.val); err == nil || errors.Is(err, ErrHinted) {
					n++
				}
			}
		}
		r.hints.settle(id, true)
		r.hintsReplayed.Add(uint64(n))
	}
}

// pushPairs streams pairs into p as a synthesized snapshot image restored
// keep-existing — RestoreSnapshotIfAbsent semantics, the replay contract
// (see hintLog). Returns the installed pair count.
func pushPairs(p Peer, pairs []hint) (int, error) {
	pr, pw := io.Pipe()
	go func() {
		sw, err := engine.NewSnapshotWriter(pw)
		if err != nil {
			pw.CloseWithError(err)
			return
		}
		for _, h := range pairs {
			if err := sw.Add(h.key, h.val); err != nil {
				pw.CloseWithError(err)
				return
			}
		}
		pw.CloseWithError(sw.Close())
	}()
	n, err := p.Push(pr, true)
	// A push that failed without draining the image must not strand the
	// producer on a write nobody reads.
	pr.Close()
	return n, err
}
