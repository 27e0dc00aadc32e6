package lru

import (
	"fmt"
	"runtime"

	"github.com/p4lru/p4lru/internal/hashing"
	"github.com/p4lru/p4lru/internal/perm"
)

// FlatArray is the parallel-connection array of P4LRUn units (§1.2) for the
// three data-plane widths n = 2, 3, 4 (§2.3.1–§2.3.3), in a struct-of-arrays
// layout: instead of m heap-allocated units behind an interface, the state
// of all units lives in three contiguous slabs
//
//	keys : []uint64, n per unit — the key registers of stages 1..n
//	vals : []uint64, n per unit — the value registers of stages 1..n
//	meta : []uint32, 1 per unit — the seqlock word: version<<8 | meta byte
//
// indexed by unit number. This is the memory model of the hardware itself:
// on Tofino each stage owns one register array indexed by h(key), and a
// packet's unit index addresses the same row of every array ("Packet
// Transactions" formalizes exactly this per-stage register-array
// discipline). In software the layout removes the per-access interface
// dispatch and pointer chase of Array — a unit's address is computed
// arithmetically from slab bases already in registers, so the key/value
// line loads issue in parallel instead of serializing behind an interface
// data-pointer load — and shrinks the footprint of 2^16 P4LRU3 units from
// ~6MB of scattered heap objects to ~4MB of slabs.
//
// The meta byte has one layout for every width:
//
//	bits 0–4 : the cache-state code — the State2 swap bit (n=2), the Table 1
//	           code (n=3), or the s3 | v4<<3 pair (n=4): exactly the code
//	           Unit2.State, Unit3.State and Unit4.StatePair report
//	bits 5–7 : the occupancy (0..n)
//
// The widths differ only in how the state permutation is encoded and how it
// steps, so that is all that varies: a per-width flatTable, built once from
// the permutation algebra, maps (operation, meta byte) to the successor meta
// byte and (state code, key position) to the value slot.
//
// FlatArray is behaviourally identical to the generic Array of Unit2, Unit3
// or Unit4 with the same seed: same index hash, same key rotation, same
// state codes, same value-slot placement. The differential tests pin this
// equivalence, so the generic Array remains the readable oracle while
// FlatArray is the serving core. Update, Lookup, InsertTail and the batch
// walks perform zero heap allocations.
//
// Concurrency: one writer, any number of readers. Lookup, QueryBatch, Len
// and Range are safe to run concurrently with the writer's Update,
// InsertTail, UpdateBatch and Reset — every unit mutation is bracketed by
// its seqlock word (see flatseq.go), and readers retry the rare snapshot
// that a concurrent mutation tears. Mutators themselves must still be
// serialized by the caller; the serving engine gives each shard a private
// array behind its single writer.
type FlatArray struct {
	keys  []uint64 // len n·units, keys[n·u .. n·u+n-1] in LRU order (0 = MRU)
	vals  []uint64 // len n·units, fixed slots permuted by the unit state
	meta  []uint32 // len units, seqlock word (version<<8 | meta byte)
	n     int      // unit capacity: 2, 3 or 4
	tab   *flatTable
	hash  hashing.Hash
	merge MergeFunc[uint64]

	// batchUnits is the reusable scratch of the writer's batch walk: unit
	// indexes are hashed up front so the apply pass streams through the
	// slabs with the next units' lines already warming (see UpdateBatch).
	// Writer-owned; the reader-side QueryBatch uses stack scratch instead.
	batchUnits []int32
}

const (
	flatStateMask = 0x1f // bits 0–4: the width's cache-state code
	flatSizeShift = 5    // bits 5–7: occupancy
)

// flatTable is the width-specific part of a FlatArray.
type flatTable struct {
	// next[op][m] holds, in its low byte, the successor of meta byte m
	// under operation op — a hit at key position op, or the insert/evict
	// rotation ending at op: the state pre-multiplied by
	// RotationInverse(n, op) (Algorithm 1 step 2), with the occupancy
	// bumped when op is the first free position. Its high byte is the
	// value slot of the new most recently used key (step 3), so one load
	// yields both and the value line's address is known early. Indexed by
	// the whole byte, so the hot path needs no mask or bounds check; only
	// the bytes of valid (state, occupancy) pairs are set.
	next [4][256]uint16
	// valPos[code][i] is the value slot of key position i under state code.
	valPos [32][4]uint8
	// initial is the code of the identity permutation — the empty unit.
	initial uint8
}

// flatTables holds one table per data-plane width, built at start-up.
var flatTables = [5]*flatTable{2: newFlatTable(2), 3: newFlatTable(3), 4: newFlatTable(4)}

// flatCode returns the meta-byte state code of a size-2, -3 or -4
// permutation: the encodings of §2.3.1 (0 identity, 1 swap), Table 1, and
// §2.3.3's factorization g = r(k)·h stored as State3(k) | h<<3.
func flatCode(p perm.Perm) uint8 {
	switch len(p) {
	case 2:
		return uint8(p[0])
	case 3:
		return State3Encode(p)
	default:
		d := perm.DecomposeS4(p)
		return State3Encode(d.K) | uint8(d.H)<<3
	}
}

// newFlatTable derives the width-n table from the permutation algebra alone:
// for every state permutation and operation it encodes R⁻¹·S. It shares
// only the state codes with Unit2/3/4, not their transition arithmetic, so
// the differential tests compare two independent derivations.
func newFlatTable(n int) *flatTable {
	t := &flatTable{initial: flatCode(perm.Identity(n))}
	for _, p := range perm.All(n) {
		code := flatCode(p)
		for i := 0; i < n; i++ {
			t.valPos[code][i] = uint8(p.Apply(i))
		}
		for op := 0; op < n; op++ {
			q := perm.RotationInverse(n, op).Compose(p)
			succ := int(flatCode(q)) | q.Apply(0)<<8
			for size := 0; size <= n; size++ {
				newSize := size
				if op == size {
					newSize++
				}
				t.next[op][int(code)|size<<flatSizeShift] = uint16(succ | newSize<<flatSizeShift)
			}
		}
	}
	return t
}

// batchLookahead is how many ops ahead of the apply cursor the batch walks
// touch the target unit's key line. Far enough to cover a main
// memory load, near enough that the lines survive until use.
const batchLookahead = 8

// flatQueryChunk is the stack-scratch width of QueryBatch: keys are hashed
// and walked in chunks of this many, so the read path needs no shared
// scratch and stays safe under concurrent readers.
const flatQueryChunk = 64

// NewFlatArray builds a flat array of numUnits empty P4LRUn units, n = 2, 3
// or 4 — the three data-plane unit designs of §2.3; other widths have no
// flat core (the generic Array serves them) and panic. seed selects the
// index-hash family member exactly as NewArray does, so a FlatArray and a
// generic Array with equal seeds place every key in the same unit. merge
// may be nil for replace-on-hit semantics.
func NewFlatArray(n, numUnits int, seed uint64, merge MergeFunc[uint64]) *FlatArray {
	if n < 2 || n > 4 {
		panic(fmt.Sprintf("lru: no flat core for unit capacity %d", n))
	}
	if numUnits < 1 {
		panic(fmt.Sprintf("lru: flat array with %d units", numUnits))
	}
	a := &FlatArray{
		keys:  make([]uint64, n*numUnits),
		vals:  make([]uint64, n*numUnits),
		meta:  make([]uint32, numUnits),
		n:     n,
		tab:   flatTables[n],
		hash:  hashing.New(seed),
		merge: merge,
	}
	for u := range a.meta {
		a.meta[u] = uint32(a.tab.initial)
	}
	return a
}

// Units returns the number of units.
func (a *FlatArray) Units() int { return len(a.meta) }

// UnitCap returns the per-unit capacity n.
func (a *FlatArray) UnitCap() int { return a.n }

// Capacity returns the total entry capacity (n per unit).
func (a *FlatArray) Capacity() int { return a.n * len(a.meta) }

// Len returns the total number of occupied entries across all units. Safe
// concurrent with the writer; each unit's occupancy is one word read, so
// the sum is per-unit consistent but not a cross-unit snapshot.
func (a *FlatArray) Len() int {
	total := 0
	for u := range a.meta {
		total += int(seqLoad32(&a.meta[u])&flatMetaMask) >> flatSizeShift
	}
	return total
}

// UnitIndex returns the unit addressed by h(k) — the paper's per-packet
// register index.
func (a *FlatArray) UnitIndex(k uint64) int {
	return a.hash.Index(k, len(a.meta))
}

// UnitLen returns the occupancy of unit u.
func (a *FlatArray) UnitLen(u int) int {
	return int(seqLoad32(&a.meta[u])&flatMetaMask) >> flatSizeShift
}

// UnitState returns the cache-state code of unit u: the State2 bit, the
// Table 1 code, or s3 | v4<<3 of Unit4.StatePair, by width.
func (a *FlatArray) UnitState(u int) uint8 {
	return uint8(seqLoad32(&a.meta[u]) & flatStateMask)
}

// UnitKeyAt returns the i-th key of unit u in LRU order (0 = most recently
// used). It panics if i ≥ UnitLen(u). For the differential tests and
// debugging, mirroring UnitCache.KeyAt; unlike Lookup it does not retry
// torn snapshots, so call it only while the writer is quiescent.
func (a *FlatArray) UnitKeyAt(u, i int) uint64 {
	if i < 0 || i >= a.UnitLen(u) {
		panic(fmt.Sprintf("lru: UnitKeyAt(%d) with %d entries", i, a.UnitLen(u)))
	}
	return seqLoad64(&a.keys[a.n*u+i])
}

// Lookup returns the value for k without modifying the array. Safe
// concurrent with the writer.
func (a *FlatArray) Lookup(k uint64) (uint64, bool) {
	return a.lookupInUnit(a.UnitIndex(k), k)
}

func (a *FlatArray) lookupInUnit(u int, k uint64) (uint64, bool) {
	base := a.n * u
	kk := a.keys[base : base+a.n : base+a.n]
	vv := a.vals[base : base+a.n : base+a.n]
	for spin := 0; ; spin++ {
		w := seqLoad32(&a.meta[u])
		if w&flatSeqOdd == 0 {
			size := int(w&flatMetaMask) >> flatSizeShift
			pos := &a.tab.valPos[w&flatStateMask]
			var v uint64
			found := false
			for i := 0; i < size; i++ {
				if seqLoad64(&kk[i]) == k {
					v = seqLoad64(&vv[pos[i]])
					found = true
					break
				}
			}
			// An unchanged word proves no mutation overlapped the reads
			// above, so the (key, value, state) triple is consistent.
			if seqLoad32(&a.meta[u]) == w {
				return v, found
			}
		}
		if spin&seqSpinMask == seqSpinMask {
			runtime.Gosched()
		}
	}
}

// Update inserts or refreshes k in its unit: Algorithm 1 operating directly
// on the slabs. It is step-for-step the slab form of UnitCache.Update, with
// the register rewrites seqlock-bracketed so concurrent readers never
// observe a half-applied transition.
func (a *FlatArray) Update(k, v uint64) Result[uint64] {
	return a.updateInUnit(a.UnitIndex(k), k, v)
}

func (a *FlatArray) updateInUnit(u int, k, v uint64) Result[uint64] {
	var res Result[uint64]
	n := a.n
	base := n * u
	kk := a.keys[base : base+n : base+n]
	w := a.meta[u]
	m := uint8(w)
	size := int(m >> flatSizeShift)

	// Find the rotation endpoint: the hit position, the first free slot, or
	// the LRU slot on a full miss. The writer owns all mutation, so its own
	// reads need no snapshot protocol.
	op := 0
	for op < size && kk[op] != k {
		op++
	}
	switch {
	case op < size:
		res.Hit = true
	case size == n:
		op = n - 1
		res.Evicted = true
		res.EvictedKey = kk[op]
	}

	// The state transition with the occupancy bump folded in, and the value
	// slot of the (new) most recently used key.
	e := a.tab.next[op&3][m]
	nm := uint8(e)
	slot := base + int(e>>8)
	if res.Evicted {
		res.EvictedValue = a.vals[slot]
	}
	nv := v
	if res.Hit && a.merge != nil {
		nv = a.merge(a.vals[slot], v)
	}

	// Publish: mark the unit in-flight, rotate keys[0..op] forward with the
	// incoming key at position 0, store the value, land the new word.
	seqBegin(&a.meta[u])
	for i := op; i > 0; i-- {
		seqStore64(&kk[i], kk[i-1])
	}
	seqStore64(&kk[0], k)
	seqStore64(&a.vals[slot], nv)
	seqPublish(&a.meta[u], (w+flatSeqStep)&^uint32(flatMetaMask)|uint32(nm))
	return res
}

// InsertTail stores k as the least recently used entry of its unit without
// a state transition (series-connection demotion, §3.2) — the slab form of
// UnitCache.InsertTail, seqlock-bracketed like Update.
func (a *FlatArray) InsertTail(k, v uint64) Result[uint64] {
	u := a.UnitIndex(k)
	var res Result[uint64]
	base := a.n * u
	w := a.meta[u]
	m := uint8(w)
	pos := &a.tab.valPos[m&flatStateMask]
	size := int(m >> flatSizeShift)

	for i := 0; i < size; i++ {
		if a.keys[base+i] == k {
			res.Hit = true
			seqBegin(&a.meta[u])
			seqStore64(&a.vals[base+int(pos[i])], v)
			seqPublish(&a.meta[u], w+flatSeqStep)
			return res
		}
	}
	if size < a.n {
		seqBegin(&a.meta[u])
		seqStore64(&a.keys[base+size], k)
		seqStore64(&a.vals[base+int(pos[size])], v)
		seqPublish(&a.meta[u], w+flatSeqStep+1<<flatSizeShift)
		return res
	}
	last := base + a.n - 1
	slot := base + int(pos[a.n-1])
	res.Evicted = true
	res.EvictedKey = a.keys[last]
	res.EvictedValue = a.vals[slot]
	seqBegin(&a.meta[u])
	seqStore64(&a.keys[last], k)
	seqStore64(&a.vals[slot], v)
	seqPublish(&a.meta[u], w+flatSeqStep)
	return res
}

// units ensures the writer's batch scratch covers n ops and returns it. The
// scratch is grown amortized, so steady-state batch walks allocate nothing.
func (a *FlatArray) units(n int) []int32 {
	if cap(a.batchUnits) < n {
		a.batchUnits = make([]int32, n)
	}
	return a.batchUnits[:n]
}

// QueryBatch looks up every keys[i], writing the value into vals[i] and the
// residency into oks[i]. Keys are hashed and walked in stack-scratch chunks
// with the next units' key lines touched ahead of the cursor — the
// cache-friendly counterpart of len(keys) Lookup calls. vals and oks must
// be at least len(keys) long. Zero heap allocations; safe concurrent with
// the writer and with other readers (no shared scratch).
func (a *FlatArray) QueryBatch(keys []uint64, vals []uint64, oks []bool) {
	var units [flatQueryChunk]int32
	var touched uint64
	for start := 0; start < len(keys); start += flatQueryChunk {
		part := keys[start:min(start+flatQueryChunk, len(keys))]
		for i, k := range part {
			units[i] = int32(a.UnitIndex(k))
		}
		for i, k := range part {
			if j := i + batchLookahead; j < len(part) {
				touched += seqLoad64(&a.keys[a.n*int(units[j])])
			}
			vals[start+i], oks[start+i] = a.lookupInUnit(int(units[i]), k)
		}
	}
	sinkUint64(touched)
}

// UpdateBatch applies Update(keys[i], vals[i]) for every i in order and
// reports the hit and eviction totals. Like QueryBatch it hashes all keys
// up front and streams through the slabs with lookahead line touches; the
// serving engine's shard writers apply whole op batches through this walk.
// vals must be at least len(keys) long. Zero heap allocations at steady
// state.
func (a *FlatArray) UpdateBatch(keys, vals []uint64) (hits, evictions int) {
	units := a.units(len(keys))
	for i, k := range keys {
		units[i] = int32(a.UnitIndex(k))
	}
	var touched uint64
	for i, k := range keys {
		if j := i + batchLookahead; j < len(units) {
			touched += seqLoad64(&a.keys[a.n*int(units[j])])
		}
		res := a.updateInUnit(int(units[i]), k, vals[i])
		if res.Hit {
			hits++
		}
		if res.Evicted {
			evictions++
		}
	}
	sinkUint64(touched)
	return hits, evictions
}

// Range calls fn for every cached (key, value) pair until fn returns false.
// Iteration order is unit order, then LRU order within a unit — the same
// order as Array.Range. Safe concurrent with the writer: each unit is
// snapshotted through its seqlock before fn sees it, so fn never observes a
// torn unit (though the walk as a whole is not a cross-unit snapshot).
func (a *FlatArray) Range(fn func(k, v uint64) bool) {
	var ks, vs [4]uint64
	for u := range a.meta {
		base := a.n * u
		size := 0
		for spin := 0; ; spin++ {
			w := seqLoad32(&a.meta[u])
			if w&flatSeqOdd == 0 {
				size = int(w&flatMetaMask) >> flatSizeShift
				pos := &a.tab.valPos[w&flatStateMask]
				for i := 0; i < size; i++ {
					ks[i] = seqLoad64(&a.keys[base+i])
					vs[i] = seqLoad64(&a.vals[base+int(pos[i])])
				}
				if seqLoad32(&a.meta[u]) == w {
					break
				}
			}
			if spin&seqSpinMask == seqSpinMask {
				runtime.Gosched()
			}
		}
		for i := 0; i < size; i++ {
			if !fn(ks[i], vs[i]) {
				return
			}
		}
	}
}

// Reset empties every unit and restores the initial cache state. A writer
// operation: each unit is cleared under its seqlock bracket (versions keep
// advancing, so concurrent readers see either the old unit or the empty
// one, never a mix).
func (a *FlatArray) Reset() {
	for u := range a.meta {
		base := a.n * u
		w := a.meta[u]
		seqBegin(&a.meta[u])
		for i := 0; i < a.n; i++ {
			seqStore64(&a.keys[base+i], 0)
			seqStore64(&a.vals[base+i], 0)
		}
		seqPublish(&a.meta[u], (w+flatSeqStep)&^uint32(flatMetaMask)|uint32(a.tab.initial))
	}
}
