package cluster

import (
	"slices"
	"time"
)

// Anti-entropy keeps replicas of the hot set convergent through one repair
// path with two triggers, the fan read and the sweep. Both read a hot key's
// copies with queryIdx, the read path's own point read, and both file jobs
// on one bounded queue that the router's step drains through repairOne.
//
// Read repair rides the query path. The hot-key fan probes replicas in
// rotation; when one replica hits after another answered a miss, the miss is
// divergence observed for free, and a repair job is enqueued for the lagging
// replica. The queue is bounded (overflow is dropped and counted — repair is
// an optimization, never backpressure on reads) and drained by step at a
// configured rate. The drain re-reads the key from its current ring owner
// at drain time — the owner is the authority, and the value that triggered
// the job may itself be stale by then — and installs the owner's value at
// the divergent replica.
//
// The sweep catches what the fan can't see: value divergence. A replica
// that holds a *different* value still answers "hit", and the fan stops at
// the first hit. Periodically the sweep reads every published hot key at its
// owner and at each replica, and enqueues a repair through the same queue
// wherever a replica's (hit, value) differs from the owner's.

// repairQueueCap bounds the repair queue, in jobs: room for the jobs of one
// sweep that finds every replica diverged, at the default HotK of 128 and
// Replicas up to 3. Past it, jobs are dropped and counted.
const repairQueueCap = 256

// repairJob names one suspected-divergent copy: key, and the replica to
// re-fill from the owner.
type repairJob struct {
	key uint64
	dst string
}

// enqueueRepair offers a job to the bounded queue and kicks the loop to
// drain it, never blocking the caller; a full queue drops the job and
// counts it.
func (r *Router) enqueueRepair(key uint64, dst string) {
	select {
	case r.repairQ <- repairJob{key: key, dst: dst}:
		r.repairsQueued.Inc()
		r.kick()
	default:
		r.repairsDropped.Inc()
	}
}

// drainRepair is step's repair duty: it runs one queued job when the rate
// allows one at now. Jobs run at most one per 1/RepairRate, so a divergence
// storm (a node returning from a partition with a cold or stale hot set)
// refills at a bounded trickle, and an idle spell banks no burst.
func (r *Router) drainRepair(now time.Time) {
	if now.Before(r.nextRepair) {
		return
	}
	select {
	case j := <-r.repairQ:
		r.repairOne(j)
		r.nextRepair = now.Add(time.Second / time.Duration(r.cfg.RepairRate))
	default:
	}
}

// repairOne re-reads j.key from its current owner and installs the owner's
// value at j.dst. Each part is best-effort: a vanished member, a miss at
// the owner (the key cooled off and was evicted) or a failed install just
// abandons the job — the next read or sweep will re-detect live divergence.
func (r *Router) repairOne(j repairJob) {
	st := r.state.Load()
	// Every peer the state holds has a slot, so a missing slot is a member
	// that has since left (or died) with no window still reading from it.
	dst := slices.Index(st.ids, j.dst)
	if st.ring.Size() == 0 || dst < 0 {
		return
	}
	owner := st.ring.OwnerIdxAt(st.ring.Pos(j.key))
	if owner == dst {
		return // ownership moved; the migration path owns this copy now
	}
	v, ok, err := r.queryIdx(st, owner, j.key)
	if err != nil || !ok {
		return
	}
	if r.put(st, dst, j.key, v) == nil {
		r.repairsApplied.Inc()
	}
}

// sweepOnce reads every published hot key at its owner and replicas — one
// point read per copy — and enqueues a repair for each replica whose (hit,
// value) differs from the owner's. A copy whose read fails is skipped.
// Tests with the sweep disabled call it directly for deterministic timing.
func (r *Router) sweepOnce() {
	st := r.state.Load()
	if r.hot == nil || st.ring.Size() < 2 {
		return
	}
	keys := r.hot.Keys()
	if len(keys) == 0 {
		return
	}
	r.sweeps.Inc()
	for _, key := range keys {
		var buf [8]int
		reps := st.ring.replicaIdxAt(buf[:], st.ring.Pos(key), r.replicas())
		want, wantOK, err := r.queryIdx(st, reps[0], key)
		if err != nil {
			continue
		}
		for _, m := range reps[1:] {
			v, ok, err := r.queryIdx(st, m, key)
			if err == nil && (ok != wantOK || ok && v != want) {
				r.sweepDiverged.Inc()
				r.enqueueRepair(key, st.ids[m])
			}
		}
	}
}
