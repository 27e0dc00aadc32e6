package netproto

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"testing/quick"

	"github.com/p4lru/p4lru/internal/policy"
)

// seriesSpec is the test shorthand for the old positional geometry: a
// `levels`-deep P4LRU3 series with `units` total units.
func seriesSpec(levels, units int) policy.Spec {
	return policy.Spec{
		Kind:     policy.KindSeries,
		Levels:   levels,
		MemBytes: policy.SeriesMemBytes(levels, 3, units),
		Seed:     1,
	}
}

func TestMessageRoundTrip(t *testing.T) {
	m := Message{
		Type:        MsgReply,
		CachedFlag:  3,
		Key:         0xdeadbeefcafe,
		CachedIndex: 4096,
		Value:       []byte("sixty-four bytes of payload....."),
	}
	var got Message
	if err := got.Unmarshal(m.Marshal()); err != nil {
		t.Fatal(err)
	}
	if got.Type != m.Type || got.CachedFlag != m.CachedFlag ||
		got.Key != m.Key || got.CachedIndex != m.CachedIndex ||
		!bytes.Equal(got.Value, m.Value) {
		t.Errorf("round trip mismatch: %+v vs %+v", got, m)
	}
}

func TestMessageRoundTripProperty(t *testing.T) {
	f := func(flag uint8, key, idx uint64, val []byte, isQuery bool) bool {
		typ := MsgReply
		if isQuery {
			typ = MsgQuery
		}
		m := Message{Type: typ, CachedFlag: flag, Key: key, CachedIndex: idx, Value: val}
		var got Message
		if err := got.Unmarshal(m.Marshal()); err != nil {
			return false
		}
		return got.Type == m.Type && got.CachedFlag == flag &&
			got.Key == key && got.CachedIndex == idx && bytes.Equal(got.Value, val)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		make([]byte, 10), // short
		append([]byte{0, 0}, make([]byte, 22)...), // bad magic
		(&Message{Type: 99, Key: 1}).Marshal(),    // bad type
	}
	// Craft a bad-version packet.
	badVer := (&Message{Type: MsgQuery}).Marshal()
	badVer[2] = 99
	cases = append(cases, badVer)

	var m Message
	for i, c := range cases {
		if err := m.Unmarshal(c); !errors.Is(err, ErrBadMessage) {
			t.Errorf("case %d: err = %v, want ErrBadMessage", i, err)
		}
	}
}

// startStack brings up server + switch on loopback.
func startStack(t *testing.T, items, levels, units int) (*Server, *Switch) {
	t.Helper()
	srv, err := NewServer("127.0.0.1:0", items)
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	sw, err := NewSwitch(SwitchConfig{
		ServerAddr: srv.Addr(),
		Policy:     seriesSpec(levels, units),
	})
	if err != nil {
		srv.Close()
		t.Fatalf("switch: %v", err)
	}
	t.Cleanup(func() {
		sw.Close()
		srv.Close()
	})
	return srv, sw
}

func TestEndToEndQuery(t *testing.T) {
	srv, sw := startStack(t, 1000, 2, 64)
	cl, err := NewClient(sw.Addr(), ClientConfig{Items: 1000, Skew: 1.1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// First query for a key: a miss that walks the index.
	res, err := cl.Query(42)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached {
		t.Error("first query reported cached")
	}
	if !res.Valid {
		t.Error("first query returned a bad value")
	}

	// Second query: the switch must now resolve the index.
	res, err = cl.Query(42)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cached {
		t.Error("second query not served from the index cache")
	}
	if !res.Valid {
		t.Error("cached query returned a bad value — stale index")
	}

	sst := srv.Stats()
	if sst.Queries != 2 || sst.IndexWalks != 1 {
		t.Errorf("server stats: queries=%d walks=%d, want 2/1", sst.Queries, sst.IndexWalks)
	}
	if sst.NodesWalked == 0 {
		t.Error("no nodes walked on the miss")
	}
	if sst.RecvBatches == 0 || sst.RecvPackets != sst.Queries {
		t.Errorf("server batch accounting: batches=%d packets=%d queries=%d",
			sst.RecvBatches, sst.RecvPackets, sst.Queries)
	}
	if wst := sw.Stats(); wst.Queries != 2 || wst.Hits != 1 {
		t.Errorf("switch stats: queries=%d hits=%d, want 2/1", wst.Queries, wst.Hits)
	}
}

func TestEndToEndWorkload(t *testing.T) {
	srv, sw := startStack(t, 5000, 4, 256)
	cl, err := NewClient(sw.Addr(), ClientConfig{Items: 5000, Skew: 1.2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	st := cl.Run(3000)
	if st.Failures > 30 {
		t.Fatalf("%d/%d queries failed", st.Failures, 3000)
	}
	if st.Invalid != 0 {
		t.Fatalf("%d invalid values — cached indexes must stay correct", st.Invalid)
	}
	hitRate := float64(st.Cached) / float64(st.Queries)
	if hitRate < 0.3 {
		t.Errorf("hit rate %.3f too low for a Zipf workload", hitRate)
	}
	if sw.Stats().CacheLen == 0 {
		t.Error("switch cache empty after workload")
	}
	// Cached queries must skip the index walk.
	if sst := srv.Stats(); sst.IndexWalks >= sst.Queries {
		t.Errorf("every query walked the index (%d/%d) despite caching",
			sst.IndexWalks, sst.Queries)
	}
}

func TestConcurrentClients(t *testing.T) {
	_, sw := startStack(t, 2000, 2, 256)
	const clients = 4
	const per = 500

	var wg sync.WaitGroup
	stats := make([]RunStats, clients)
	for i := 0; i < clients; i++ {
		cl, err := NewClient(sw.Addr(), ClientConfig{Items: 2000, Skew: 1.2, Seed: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		wg.Add(1)
		go func(i int, cl *Client) {
			defer wg.Done()
			stats[i] = cl.Run(per)
		}(i, cl)
	}
	wg.Wait()

	totalInvalid, totalOK := 0, 0
	for _, st := range stats {
		totalInvalid += st.Invalid
		totalOK += st.Queries
	}
	if totalInvalid != 0 {
		t.Errorf("%d invalid values under concurrency", totalInvalid)
	}
	if totalOK < clients*per*9/10 {
		t.Errorf("only %d/%d queries completed", totalOK, clients*per)
	}
}

// TestConcurrentClientsShardedProgress is the regression test for the old
// global-mutex hot path: with the engine in place, concurrent clients are
// served from independent shards instead of serializing on one lock. It
// pins a 4-shard engine (regardless of GOMAXPROCS), drives it from two
// clients at once, and checks that both make full progress and that the
// traffic actually spread across shards — the structural property the
// global mutex could not provide.
func TestConcurrentClientsShardedProgress(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", 4000)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := NewSwitch(SwitchConfig{
		ServerAddr: srv.Addr(),
		Policy:     seriesSpec(2, 256),
		Shards:     4,
	})
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		sw.Close()
		srv.Close()
	})
	if got := sw.Engine().Shards(); got != 4 {
		t.Fatalf("engine has %d shards, want 4", got)
	}

	const per = 400
	var wg sync.WaitGroup
	stats := make([]RunStats, 2)
	for i := range stats {
		cl, err := NewClient(sw.Addr(), ClientConfig{Items: 4000, Skew: 1.2, Seed: int64(i) + 10})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		wg.Add(1)
		go func(i int, cl *Client) {
			defer wg.Done()
			stats[i] = cl.Run(per)
		}(i, cl)
	}
	wg.Wait()

	for i, st := range stats {
		if st.Queries < per*9/10 {
			t.Errorf("client %d completed only %d/%d queries", i, st.Queries, per)
		}
		if st.Invalid != 0 {
			t.Errorf("client %d saw %d invalid values", i, st.Invalid)
		}
	}

	// The cache population must be spread across shards, proving queries
	// and replies were served by per-shard state, not one locked cache.
	active := 0
	for _, s := range sw.Engine().Stats() {
		if s.Len > 0 {
			active++
		}
	}
	if active < 2 {
		t.Errorf("only %d/4 shards hold cache entries — serving is not sharded", active)
	}
}

// TestQueryBatchEndToEnd drives the pipelined window through the full
// client → switch → server stack: one window of distinct keys, then the
// same window again. Every key must come back valid and in order, and the
// second pass must be served from the switch cache.
func TestQueryBatchEndToEnd(t *testing.T) {
	srv, sw := startStack(t, 1000, 2, 128)
	cl, err := NewClient(sw.Addr(), ClientConfig{Items: 1000, Skew: 1.1, Seed: 5, Batch: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	keys := make([]uint64, 40) // > Batch, so QueryBatch chunks into windows
	for i := range keys {
		keys[i] = uint64(i + 1)
	}
	results := make([]QueryResult, len(keys))

	for pass := 0; pass < 2; pass++ {
		n, err := cl.QueryBatch(keys, results)
		if err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		if n != len(keys) {
			t.Fatalf("pass %d: answered %d/%d keys", pass, n, len(keys))
		}
		for i, res := range results {
			if res.Key != keys[i] {
				t.Fatalf("pass %d: result %d carries key %d, want %d", pass, i, res.Key, keys[i])
			}
			if !res.Valid {
				t.Fatalf("pass %d: key %d returned a bad value", pass, keys[i])
			}
		}
	}

	wst := sw.Stats()
	if wst.Hits < int64(len(keys)) {
		t.Errorf("switch hits = %d after repeat pass, want ≥ %d", wst.Hits, len(keys))
	}
	if sst := srv.Stats(); sst.IndexWalks >= sst.Queries {
		t.Errorf("repeat pass still walked the index: walks=%d queries=%d",
			sst.IndexWalks, sst.Queries)
	}
}

func TestCloseIsIdempotentAndUnblocks(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", 100)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := NewSwitch(SwitchConfig{ServerAddr: srv.Addr(), Policy: seriesSpec(1, 8)})
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Errorf("switch close: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("server close: %v", err)
	}
}

func BenchmarkEndToEndQuery(b *testing.B) {
	srv, err := NewServer("127.0.0.1:0", 10000)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	sw, err := NewSwitch(SwitchConfig{ServerAddr: srv.Addr(), Policy: seriesSpec(4, 512)})
	if err != nil {
		b.Fatal(err)
	}
	defer sw.Close()
	cl, err := NewClient(sw.Addr(), ClientConfig{Items: 10000, Skew: 1.2, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Query(cl.NextKey()); err != nil {
			b.Fatal(err)
		}
	}
}
