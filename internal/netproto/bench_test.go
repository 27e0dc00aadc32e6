package netproto

import (
	"fmt"
	"testing"

	"github.com/p4lru/p4lru/internal/engine"
	"github.com/p4lru/p4lru/internal/netproto/batchio"
	"github.com/p4lru/p4lru/internal/policy"
)

// benchStack brings up a full loopback server + switch pair sized for
// sustained benchmark traffic.
func benchStack(b *testing.B) *Switch {
	b.Helper()
	srv, err := NewServer("127.0.0.1:0", 10000)
	if err != nil {
		b.Fatal(err)
	}
	sw, err := NewSwitch(SwitchConfig{ServerAddr: srv.Addr(), Policy: seriesSpec(4, 512)})
	if err != nil {
		srv.Close()
		b.Fatal(err)
	}
	b.Cleanup(func() {
		sw.Close()
		srv.Close()
	})
	return sw
}

// BenchmarkWireLadder is the packets-per-second ladder: the same Zipf
// workload driven through the full client → switch → server loopback stack
// at batch sizes 1/8/32/64. batch=1 is the classic one-datagram-per-syscall
// request/response path; the batched rungs pipeline a whole window through
// QueryBatch, so the per-query cost amortizes the syscalls (recvmmsg /
// sendmmsg on Linux) across the window — the wire analogue of the paper's
// per-stage packet parallelism. b.N counts individual queries on every rung,
// so ns/op is directly comparable across batch sizes.
func BenchmarkWireLadder(b *testing.B) {
	for _, batch := range []int{1, 8, 32, 64} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			sw := benchStack(b)
			cl, err := NewClient(sw.Addr(), ClientConfig{
				Items: 10000, Skew: 1.2, Seed: 1, Batch: batch,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer cl.Close()

			// Warm the cache so the ladder measures the serving path, not
			// cold-miss index walks.
			for i := 0; i < 2048; i++ {
				if _, err := cl.Query(cl.NextKey()); err != nil {
					b.Fatal(err)
				}
			}

			b.ResetTimer()
			if batch == 1 {
				for i := 0; i < b.N; i++ {
					if _, err := cl.Query(cl.NextKey()); err != nil {
						b.Fatal(err)
					}
				}
			} else {
				keys := make([]uint64, batch)
				results := make([]QueryResult, batch)
				for i := 0; i < b.N; i += batch {
					n := batch
					if rem := b.N - i; rem < n {
						n = rem
					}
					for j := 0; j < n; j++ {
						keys[j] = cl.NextKey()
					}
					if _, err := cl.QueryBatch(keys[:n], results[:n]); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			qps := float64(b.N) / b.Elapsed().Seconds()
			b.ReportMetric(qps, "queries/s")
		})
	}
}

// BenchmarkNetDecode measures the switch's per-packet decode work in
// isolation: unmarshal straight out of a ring slot, stamp the cached fields
// in place, and build the engine.Op the reply path submits. This is the
// inner loop of both batched reader goroutines and must never allocate —
// the -zeroalloc bench gate pins it.
func BenchmarkNetDecode(b *testing.B) {
	ring := batchio.NewRing(64, 2048)
	ds := ring.Datagrams()
	for i := range ds {
		ds[i].N = PutReply(ds[i].Buf, 1, uint64(i+1), uint64(i*64), []byte("sixty-four bytes of reply payload..."))
	}

	var msg Message
	var op engine.Op
	var sink uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := &ds[i&63]
		if err := msg.Unmarshal(d.Bytes()); err != nil {
			b.Fatal(err)
		}
		PatchCached(d.Bytes(), 2, msg.CachedIndex)
		op = engine.Op{Key: msg.Key, Value: msg.CachedIndex}
		sink += op.Key
	}
	if sink == 0 {
		b.Fatal("impossible: keys start at 1")
	}
}

// BenchmarkNodeCall is one cluster node round trip over loopback: a
// NodeClient.Query of a resident key against a NodeServer, one op in
// flight, the way the router drives each peer. Allocations count both
// ends, so the -zeroalloc bench gate pins the node's serve path and the
// client's call path together.
func BenchmarkNodeCall(b *testing.B) {
	eng, err := engine.NewFromSpec(
		policy.Spec{Kind: policy.KindP4LRU3, MemBytes: 256 << 10, Seed: 1},
		engine.Config{Shards: 2, Block: true},
	)
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	s, err := NewNodeServer("127.0.0.1:0", NodeConfig{Engine: eng, RingSeed: 7})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	c, err := DialNode(s.UDPAddr(), s.TCPAddr(), 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	if err := c.Update(1, 10); err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := c.Query(1); err != nil || !ok {
			b.Fatalf("Query = (%v, %v)", ok, err)
		}
	}
}
