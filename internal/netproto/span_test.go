package netproto

import (
	"testing"
	"time"

	"github.com/p4lru/p4lru/internal/obs/span"
)

// enabledTracer is a capture-everything tracer for wire-path tests.
func enabledTracer() *span.Tracer {
	tr := span.New(span.Config{Shards: 4, SampleN: 1, RingSize: 256, RecalcEvery: 1 << 20})
	tr.SetEnabled(true)
	return tr
}

// TestServerSpans drives queries end to end against a traced server and
// checks the reply records decompose into decode / resolve / wire stages.
func TestServerSpans(t *testing.T) {
	tr := enabledTracer()
	srv, err := NewServer("127.0.0.1:0", 1000, ServerWithSpan(tr))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := NewClient(srv.Addr(), ClientConfig{Items: 1000, Skew: 1.1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	for i := 0; i < 10; i++ {
		if _, err := cl.Query(uint64(i + 1)); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}

	var replies int
	for _, rec := range tr.Snapshot() {
		if rec.Kind != span.KindReply {
			continue
		}
		replies++
		if rec.Key == 0 {
			t.Fatalf("reply record without key: %+v", rec)
		}
		if rec.Stages[span.StageApply] <= 0 {
			t.Fatalf("reply record without resolve time: %+v", rec)
		}
		if diff := rec.Total - rec.StageSum(); diff < 0 || diff > int64(time.Millisecond) {
			t.Fatalf("stage sum %v vs total %v: %+v",
				time.Duration(rec.StageSum()), time.Duration(rec.Total), rec)
		}
	}
	if replies == 0 {
		t.Fatal("no KindReply records captured on the server")
	}
}

// TestSwitchSpans checks both proxy directions on a traced switch: query
// packets (KindQuery, FlagHit once cached) and reply packets (KindReply
// with the synchronous cache mutation attributed to StageApply).
func TestSwitchSpans(t *testing.T) {
	tr := enabledTracer()
	srv, err := NewServer("127.0.0.1:0", 1000)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	sw, err := NewSwitch(SwitchConfig{
		ServerAddr: srv.Addr(), Policy: seriesSpec(2, 64), Span: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sw.Close()
	cl, err := NewClient(sw.Addr(), ClientConfig{Items: 1000, Skew: 1.1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Query the same key twice: miss then cached hit.
	for i := 0; i < 2; i++ {
		res, err := cl.Query(42)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Valid {
			t.Fatal("bad value")
		}
	}

	// The switch finishes a span only after WriteBatch has delivered the
	// packet, so the last one may still be open when the client holds its
	// reply; Close waits for both loops.
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	var queryRecs, hitRecs, replyRecs int
	for _, rec := range tr.Snapshot() {
		switch rec.Kind {
		case span.KindQuery:
			queryRecs++
			if rec.Stages[span.StageQuery] <= 0 {
				t.Fatalf("query record without lookup time: %+v", rec)
			}
			if rec.Flags&span.FlagHit != 0 {
				hitRecs++
			}
		case span.KindReply:
			replyRecs++
			if rec.Stages[span.StageApply] <= 0 {
				t.Fatalf("reply record without mutation time: %+v", rec)
			}
		}
	}
	if queryRecs < 2 {
		t.Fatalf("captured %d KindQuery records, want ≥ 2", queryRecs)
	}
	if hitRecs == 0 {
		t.Fatal("second query of key 42 produced no FlagHit record")
	}
	if replyRecs < 2 {
		t.Fatalf("captured %d KindReply records, want ≥ 2", replyRecs)
	}
}
