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
// The inverse staleness — a partitioned (not dead) node whose old residents
// beat the hints — is not the replay's to fix. The anti-entropy sweep reads
// only hot keys and makes each replica agree with the owner, so it heals a
// stale replica but copies a stale owner's value; any other stale copy stays
// until its key is next written or evicted.
type hintLog struct {
	mu     sync.Mutex
	capPer int
	byPeer map[string]*peerHints
	n      atomic.Int64 // parked hints across all peers, read without mu
}

// peerHints is one peer's parked updates: latest value per key, plus the
// distinct-key insertion order the capacity eviction walks.
type peerHints struct {
	vals  map[uint64]uint64
	order []uint64
}

func newHintLog(capPer int) *hintLog {
	return &hintLog{capPer: capPer, byPeer: make(map[string]*peerHints)}
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

// supersede drops every hint parked for key. The count check keeps the
// lock off the write path while nothing is parked.
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
}

// take removes and returns every hint parked for id (nil if none).
func (h *hintLog) take(id string) map[uint64]uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	ph := h.byPeer[id]
	if ph == nil {
		return nil
	}
	delete(h.byPeer, id)
	h.n.Add(-int64(len(ph.vals)))
	return ph.vals
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

// pendingFor reports how many hints are parked for id.
func (h *hintLog) pendingFor(id string) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	ph := h.byPeer[id]
	if ph == nil {
		return 0
	}
	return len(ph.vals)
}

// pending reports the total parked hints across all peers (the gauge).
func (h *hintLog) pending() int { return int(h.n.Load()) }

// replayHints is step's hint duty. For every peer with hints parked, in id
// order: a ring member whose breaker is closed gets them pushed
// keep-existing, and a failed push re-parks them for a later step; an id no
// longer in the ring has them re-routed through Update to the keys' new
// owners; a member behind a breaker that is not closed keeps them.
func (r *Router) replayHints() {
	for _, id := range r.hints.peers() {
		st := r.state.Load()
		i := slices.Index(st.ids, id)
		member := i >= 0 && i < st.ring.Size()
		if member && st.brkArr[i].State() != resilience.Closed {
			continue
		}
		pairs := r.hints.take(id)
		n := 0
		if member {
			var err error
			if n, err = pushPairs(st.peerArr[i], pairs); err != nil {
				for k, v := range pairs {
					r.hints.park(id, k, v)
				}
				continue
			}
		} else {
			for k, v := range pairs {
				if err := r.Update(k, v); err == nil || errors.Is(err, ErrHinted) {
					n++
				}
			}
		}
		r.hintsReplayed.Add(uint64(n))
	}
}

// pushPairs streams pairs into p as a synthesized snapshot image restored
// keep-existing — RestoreSnapshotIfAbsent semantics, the replay contract
// (see hintLog). Returns the installed pair count.
func pushPairs(p Peer, pairs map[uint64]uint64) (int, error) {
	pr, pw := io.Pipe()
	go func() {
		sw, err := engine.NewSnapshotWriter(pw)
		if err != nil {
			pw.CloseWithError(err)
			return
		}
		for k, v := range pairs {
			if err := sw.Add(k, v); err != nil {
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
