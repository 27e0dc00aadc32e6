package lru

import "sync/atomic"

// Seqlock protocol of the flat cores.
//
// A FlatArray keeps one uint32 word per unit:
//
//	bits 0–7  : the meta byte — the cache-state code in bits 0–4 and the
//	            occupancy in bits 5–7, one layout for every width (see
//	            FlatArray)
//	bits 8–31 : the seqlock version; bit 8 doubles as the in-flight marker
//
// The shard writer brackets every unit mutation with two version stores:
// seqBegin sets bit 8 (the version goes odd), the key/value registers are
// rewritten through seqStore64, and seqPublish stores the final word — the
// version advanced past even again, with the successor meta byte folded in.
// A reader snapshots the word, rejects it if the in-flight bit is set, reads
// the unit's registers, and re-reads the word: any concurrent mutation makes
// the second read differ (odd, or a later version), so the reader retries
// instead of acting on a torn unit. This is the same even/odd trick the
// obs/span per-shard rings use, and it is the software image of the
// register-array discipline the paper leans on — on the switch a stage's
// register row is read or rewritten in one atomic transaction per packet, so
// queries never observe a half-applied update.
//
// Memory-model footing. Readers always load shared words through
// sync/atomic (seqLoad32/seqLoad64): on amd64 these compile to plain MOVs,
// so the read path pays nothing for its safety, and the atomic loads double
// as compiler barriers so the version re-check cannot be reordered or
// cached. The writer's stores are build-dependent (flatseq_fast.go /
// flatseq_portable.go): race-detector builds and non-amd64 targets store
// through sync/atomic too, which makes the protocol explicit to the race
// detector and gives the begin marker the full-barrier semantics weaker
// memory models need; plain amd64 builds use plain stores, relying on
// x86-TSO's total store order (and the compiler's in-order lowering of
// stores) to keep the begin-word / registers / publish-word sequence
// visible in program order. The version-word protocol is identical in both
// builds, so the differential and hammer suites exercise the same state
// machine the fast path serves.
//
// The version field wraps every 2^24 mutations of one unit; a reader would
// have to stall between its two word loads for exactly that many writer
// passes to mistake a recycled version for an unchanged one, which the
// nanosecond-scale read window rules out.
const (
	// flatSeqOdd is the in-flight bit: set by seqBegin, cleared (by
	// advancing the version) at seqPublish.
	flatSeqOdd = 1 << 8
	// flatSeqStep is one full begin+publish version advance.
	flatSeqStep = 2 << 8
	// flatMetaMask extracts the meta byte from a seqlock word.
	flatMetaMask = 0xff
	// seqSpinMask throttles reader retry loops: after every 64 failed
	// snapshot attempts the reader yields, so a reader pinned to the
	// writer's CPU (GOMAXPROCS=1) cannot livelock against an in-flight
	// update.
	seqSpinMask = 0x3f
)

// seqLoad32 reads a unit's seqlock word. Always atomic — a free MOV on
// amd64 — so reads are race-detector-clean and ordered in every build.
func seqLoad32(p *uint32) uint32 { return atomic.LoadUint32(p) }

// seqLoad64 reads one key or value register. Always atomic, like seqLoad32.
func seqLoad64(p *uint64) uint64 { return atomic.LoadUint64(p) }

// sinkUint64 defeats dead-code elimination of the batch walks' lookahead
// line touches without writing to shared state (the query walk runs on
// concurrent reader goroutines, so a struct-field sink would itself race).
//
//go:noinline
func sinkUint64(uint64) {}
