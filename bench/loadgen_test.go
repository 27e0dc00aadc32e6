package main

import (
	"testing"
	"time"
)

// TestPacerChargesStall: a target that stalls once for 50 ms must show the
// stall in p99 — every request due during the stall is charged the wait
// from its intended send time, not just the one request that hit it — and
// in the generator's lateness.
func TestPacerChargesStall(t *testing.T) {
	if !pacerValid {
		t.Skip("no precise pacer on this OS")
	}
	const rate = 2000
	g := &opGen{items: 1000}
	s := poissonSchedule(rngFor(1, streamFixed), g, rate, time.Second)
	stalled := false
	op := func(_ int, _ uint64, _ bool, seq uint64) (bool, error) {
		if !stalled && seq >= 600 {
			stalled = true
			time.Sleep(50 * time.Millisecond)
		}
		return true, nil
	}
	res := runPaced(s.split(1), op, nil)
	if res.failed != 0 || res.attempted != len(s.at) {
		t.Fatalf("attempted %d of %d, failed %d", res.attempted, len(s.at), res.failed)
	}
	// About 100 requests (5%) fall due during the stall, waiting 0–50 ms.
	if p99 := res.latQ(0.99); p99 < 25_000 {
		t.Errorf("p99 = %.0f µs; the 50 ms stall is not charged to the requests behind it", p99)
	}
	if late := quantile(res.late, 0.99); late < 25_000 {
		t.Errorf("late p99 = %.0f µs; the generator did not report running late", late)
	}
	if p50 := res.latQ(0.5); p50 > 5_000 {
		t.Errorf("p50 = %.0f µs; the stall leaked into the typical request", p50)
	}
}

// TestArrivalRate: for a fixed seed the Poisson schedule offers the target
// rate within 2%, and the paced workers send all of it.
func TestArrivalRate(t *testing.T) {
	const rate, dur = 20000, 2 * time.Second
	g := &opGen{items: 1000}
	s := poissonSchedule(rngFor(7, streamFixed), g, rate, dur)
	got := float64(len(s.at)) / dur.Seconds()
	if got < 0.98*rate || got > 1.02*rate {
		t.Fatalf("schedule offers %.0f/s, want %d/s ± 2%%", got, rate)
	}
	res := runPaced(s.split(loadWorkers), func(int, uint64, bool, uint64) (bool, error) { return true, nil }, nil)
	if res.attempted != len(s.at) || res.failed != 0 {
		t.Fatalf("sent %d of %d, %d failed", res.attempted, len(s.at), res.failed)
	}
	if sent := res.achieved(); sent < 0.98*rate || sent > 1.02*rate {
		t.Errorf("achieved %.0f/s, want %d/s ± 2%%", sent, rate)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}
