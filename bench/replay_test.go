package main

import (
	"testing"

	"github.com/p4lru/p4lru/internal/kvindex"
)

// TestReplayDeterministic: the replay counts depend only on the seed. The
// same seed gives identical counts; another seed changes them, so the seed
// reaches the generator and only generated inputs reach the program.
func TestReplayDeterministic(t *testing.T) {
	sc := newScale(1, true)
	db := kvindex.NewServer(sc.items)
	counts := func(w *workload, seed int64) [3]float64 {
		t.Helper()
		keys := opStream(rngFor(seed, streamReplay), w.gen(sc), 20000)
		rp, err := replayProtocol(db, keys.keys)
		if err != nil {
			t.Fatal(err)
		}
		return [3]float64{float64(rp.hits), float64(rp.evictions), float64(rp.walks) / float64(rp.queries)}
	}
	for _, name := range []string{"index-ycsb", "index-churn"} {
		w := findWorkload(name)
		a, b, c := counts(w, 1), counts(w, 1), counts(w, 2)
		if a != b {
			t.Errorf("%s: seed 1 replays differ: %v vs %v", name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 replay identically: %v", name, a)
		}
	}
}
