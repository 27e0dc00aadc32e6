// Package kvindex implements LruIndex (§3.2): an in-network query
// acceleration system. Unlike NetCache, which caches key-value pairs, the
// switch caches each key's database *index* (a 48-bit memory address), so
// the server can skip its B+ tree walk; values of arbitrary length stay on
// the server.
//
// The packet protocol carries two extra header fields:
//
//	cached_flag  — 0, or the 1-based series level that holds the key
//	cached_index — the cached address when cached_flag ≠ 0
//
// Query packets consult the cache read-only; reply packets perform the only
// cache mutations (promote on hit, insert + demote-cascade on miss) — the
// query/update separation that makes the series connection duplicate-free.
//
// The simulator is a closed-loop client model over the discrete-event
// engine: each of T threads keeps one query outstanding; the server has a
// bounded number of cores, each query costing a B+ tree walk (skipped when
// pre-resolved) plus a value fetch.
package kvindex

import (
	"encoding/binary"
	"math/rand"
	"time"

	"github.com/p4lru/p4lru/internal/btree"
	"github.com/p4lru/p4lru/internal/lru"
	"github.com/p4lru/p4lru/internal/obs"
	"github.com/p4lru/p4lru/internal/policy"
	"github.com/p4lru/p4lru/internal/quantile"
	"github.com/p4lru/p4lru/internal/simnet"
)

// ValueSize is the server's value length (the paper's configuration).
const ValueSize = 64

// Server is the database: a B+ tree index over a flat value arena.
type Server struct {
	index *btree.Tree
	arena []byte
}

// NewServer loads `items` sequential keys (1..items) with deterministic
// 64-byte values. The index is bulk-loaded into the shape ascending Puts
// would produce, so a walk costs what it would on a tree grown by inserts.
// The value arena is allocated and filled on a second goroutine while the
// index is built (zeroing a reused 64 MiB arena alone takes milliseconds);
// NewServer returns once both are done.
func NewServer(items int) *Server {
	var arena []byte
	filled := make(chan struct{})
	go func() {
		defer close(filled)
		arena = make([]byte, items*ValueSize)
		for i := range items {
			binary.LittleEndian.PutUint64(arena[i*ValueSize:], uint64(i+1)^0xbadc0ffee)
		}
	}()
	index := btree.BuildAscending(items, func(i int) (k, off uint64) {
		return uint64(i + 1), uint64(i * ValueSize)
	})
	<-filled
	return &Server{index: index, arena: arena}
}

// Items returns the number of stored keys.
func (s *Server) Items() int { return len(s.arena) / ValueSize }

// IndexHeight returns the B+ tree height (walk length a cached index skips).
func (s *Server) IndexHeight() int { return s.index.Height() }

// Resolve is the exported lookup used by the wire-protocol server in
// internal/netproto: it resolves a key via the cached index when provided
// (nodes = 0) or through the B+ tree, returning the index, the raw 64-byte
// value, and the walk's node count.
func (s *Server) Resolve(key uint64, cachedIndex uint64, cached bool) (idx uint64, value []byte, nodes int, ok bool) {
	idx, _, nodes, ok = s.lookup(key, cachedIndex, cached)
	if !ok {
		return 0, nil, nodes, false
	}
	return idx, s.arena[idx : idx+ValueSize], nodes, true
}

// Write stores an 8-byte value word at key's arena slot, returning the B+
// tree walk cost of locating it — the server-side write a write-behind
// drain performs. It is not safe to call concurrently with reads of the
// same slot; callers that mix the two (the backing-store adapter) serialize
// around it.
func (s *Server) Write(key, val uint64) (nodes int, ok bool) {
	off, nodes, ok := s.index.Get(key)
	if !ok {
		return nodes, false
	}
	binary.LittleEndian.PutUint64(s.arena[off:], val)
	return nodes, true
}

// lookup resolves a key: via the cached index if provided (nodes = 0), else
// through the B+ tree. It returns the index, the first value word, and the
// node count of the walk.
func (s *Server) lookup(key uint64, cachedIndex uint64, cached bool) (idx uint64, val uint64, nodes int, ok bool) {
	if cached {
		// Only a slot start inside the arena is a valid index; written as a
		// bound on cachedIndex alone so a wire-supplied value cannot
		// overflow. A corrupt cached index falls back to the walk.
		if cachedIndex%ValueSize == 0 && cachedIndex < uint64(len(s.arena)) {
			return cachedIndex, binary.LittleEndian.Uint64(s.arena[cachedIndex:]), 0, true
		}
	}
	off, nodes, ok := s.index.Get(key)
	if !ok {
		return 0, 0, nodes, false
	}
	return off, binary.LittleEndian.Uint64(s.arena[off:]), nodes, true
}

// Config parameterizes a run.
type Config struct {
	// Items is the database size.
	Items int
	// Threads is the number of closed-loop query threads.
	Threads int
	// Queries is the total query budget across threads.
	Queries int
	// ZipfSkew shapes key popularity (>1; the paper's YCSB workload at
	// α=0.9 corresponds to the default 1.1 head concentration).
	ZipfSkew float64
	// Seed drives the workload.
	Seed int64
	// Cache is the in-network cache (nil = the Naive Solution: no cache).
	Cache policy.Cache
	// RTT is the client↔server network round trip through the switch.
	RTT time.Duration
	// NodeTime is the per-B+tree-node walk cost on the server (the work a
	// cached index avoids); ArenaTime the value fetch.
	NodeTime  time.Duration
	ArenaTime time.Duration
	// ServerCores bounds server parallelism.
	ServerCores int
	// TrackSimilarity enables the §4.2 LRU-similarity metric over the
	// cache's admissions and evictions.
	TrackSimilarity bool
	// Obs, when non-nil, receives live run counters (kvindex_queries_total,
	// kvindex_hits_total, kvindex_nodes_walked_total) and a query-latency
	// histogram (kvindex_query_latency_seconds). nil costs nothing.
	Obs *obs.Registry
	// Tracer, when non-nil, records each completed query as a virtual-time
	// event (kvindex.query.done, payload = round-trip latency in ns).
	Tracer *obs.Tracer
}

// metrics holds the pre-resolved handles of one run; the zero value is a
// no-op (nil-safe obs methods).
type metrics struct {
	queries, hits, nodesWalked *obs.Counter
	latency                    *obs.Histogram
}

func newMetrics(r *obs.Registry) metrics {
	return metrics{
		queries:     r.Counter("kvindex_queries_total"),
		hits:        r.Counter("kvindex_hits_total"),
		nodesWalked: r.Counter("kvindex_nodes_walked_total"),
		// 1 µs .. ~4 ms in ×2 steps, covering RTT through deep-tree walks.
		latency: r.Histogram("kvindex_query_latency_seconds", obs.ExponentialBuckets(1e-6, 2, 12)),
	}
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Items <= 0 {
		out.Items = 100_000
	}
	if out.Threads <= 0 {
		out.Threads = 1
	}
	if out.Queries <= 0 {
		out.Queries = 100_000
	}
	if out.ZipfSkew == 0 {
		out.ZipfSkew = 1.1
	}
	if out.RTT == 0 {
		out.RTT = 8 * time.Microsecond
	}
	if out.NodeTime == 0 {
		out.NodeTime = 400 * time.Nanosecond
	}
	if out.ArenaTime == 0 {
		out.ArenaTime = 600 * time.Nanosecond
	}
	if out.ServerCores <= 0 {
		out.ServerCores = 4
	}
	return out
}

// Result aggregates a run.
type Result struct {
	Queries       int
	Hits          int
	HitRate       float64
	AvgLatency    time.Duration
	ThroughputTPS float64
	NodesWalked   int64 // total B+ tree nodes visited (work not saved)
	Errors        int   // value mismatches (must be zero)
	Similarity    float64
	// P50Latency/P99Latency are streaming-quantile estimates of the
	// client-observed round trip (P² estimator).
	P50Latency time.Duration
	P99Latency time.Duration
}

// Run executes the closed-loop simulation.
func Run(cfg Config) Result {
	c := cfg.withDefaults()
	eng := simnet.New()
	eng.SetTracer(c.Tracer)
	var m metrics
	if c.Obs != nil {
		m = newMetrics(c.Obs)
	}
	srv := NewServer(c.Items)
	rng := rand.New(rand.NewSource(c.Seed))
	zipf := rand.NewZipf(rng, c.ZipfSkew, 1, uint64(c.Items-1))

	var res Result
	var totalLatency time.Duration
	issued := 0
	var tracker *lru.SimilarityTracker
	if c.TrackSimilarity && c.Cache != nil {
		tracker = lru.NewSimilarityTracker()
	}

	p50, p99 := quantile.New(0.5), quantile.New(0.99)

	// Server cores: earliest-free assignment.
	cores := make([]time.Duration, c.ServerCores)

	var issue func()
	issue = func() {
		if issued >= c.Queries {
			return
		}
		issued++
		key := zipf.Uint64() + 1 // stored keys are 1-based
		start := eng.Now()

		// Switch, query direction: read-only cache consult. The token
		// carries the series level (cached_flag); hit is the residency
		// signal for every cache shape.
		var cachedIdx uint64
		tok := policy.NoToken
		hit := false
		if c.Cache != nil {
			cachedIdx, tok, hit = c.Cache.Query(key)
		}

		// Arrive at the server after half an RTT; wait for a core.
		arrival := start + c.RTT/2
		coreIdx := 0
		for i := 1; i < len(cores); i++ {
			if cores[i] < cores[coreIdx] {
				coreIdx = i
			}
		}
		begin := arrival
		if cores[coreIdx] > begin {
			begin = cores[coreIdx]
		}
		idx, val, nodes, ok := srv.lookup(key, cachedIdx, hit)
		service := c.ArenaTime + time.Duration(nodes)*c.NodeTime
		finish := begin + service
		cores[coreIdx] = finish
		res.NodesWalked += int64(nodes)

		if !ok || val != key^0xbadc0ffee {
			res.Errors++
		}
		if hit {
			res.Hits++
			m.hits.Inc()
		}
		m.nodesWalked.Add(uint64(nodes))

		// Reply traverses the switch (cache mutation) and reaches the
		// client after the other half RTT.
		eng.At(finish, func() {
			if c.Cache != nil {
				r := c.Cache.Update(key, idx, tok, eng.Now())
				if tracker != nil {
					if r.Hit || r.Admitted {
						tracker.Touch(key)
					}
					if r.Evicted {
						tracker.Evict(r.EvictedKey)
					}
				}
			}
		})
		eng.At(finish+c.RTT/2, func() {
			res.Queries++
			lat := eng.Now() - start
			totalLatency += lat
			p50.Add(float64(lat))
			p99.Add(float64(lat))
			m.queries.Inc()
			m.latency.Observe(lat.Seconds())
			eng.Trace("kvindex.query.done", uint64(lat))
			issue() // closed loop: this thread issues its next query
		})
	}

	for t := 0; t < c.Threads && t < c.Queries; t++ {
		issue()
	}
	eng.Run()

	res.Similarity = 1
	if tracker != nil {
		res.Similarity = tracker.Similarity()
	}
	if res.Queries > 0 {
		res.AvgLatency = totalLatency / time.Duration(res.Queries)
		res.P50Latency = time.Duration(p50.Value())
		res.P99Latency = time.Duration(p99.Value())
		res.HitRate = float64(res.Hits) / float64(res.Queries)
		if eng.Now() > 0 {
			res.ThroughputTPS = float64(res.Queries) / eng.Now().Seconds()
		}
	}
	return res
}
