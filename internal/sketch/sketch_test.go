package sketch

import (
	"math/rand"
	"testing"
	"time"
)

func TestTowerNeverUndercounts(t *testing.T) {
	tw := NewTower([]int{1 << 12, 1 << 11}, []uint{8, 16}, 0, 1)
	truth := map[uint64]uint32{}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		k := uint64(r.Intn(3000))
		d := uint32(r.Intn(100) + 1)
		truth[k] += d
		tw.Add(k, d, 0)
	}
	for k, want := range truth {
		got := tw.Estimate(k, 0)
		// One-sided within saturation: an estimate below truth is only
		// legal when the truth exceeds what the widest counter can hold.
		if got < want && want <= 65535 {
			t.Fatalf("key %d: estimate %d < truth %d", k, got, want)
		}
	}
}

func TestTowerSaturation(t *testing.T) {
	tw := NewTower([]int{16, 8}, []uint{8, 16}, 0, 1)
	// Push one key past the 8-bit limit: the 16-bit level must take over.
	var est uint32
	for i := 0; i < 30; i++ {
		est = tw.Add(42, 100, 0)
	}
	if est != 3000 {
		t.Errorf("estimate after 30×100 = %d, want 3000 (8-bit row saturated)", est)
	}
	// Past the 16-bit limit too: estimate pins at the widest saturation.
	for i := 0; i < 700; i++ {
		est = tw.Add(42, 100, 0)
	}
	if est != 65535 {
		t.Errorf("fully saturated estimate = %d, want 65535", est)
	}
}

func TestTowerPeriodicReset(t *testing.T) {
	period := 10 * time.Millisecond
	tw := NewTowerDefault(0.001, period, 1)
	tw.Add(7, 500, 0)
	if got := tw.Estimate(7, time.Millisecond); got < 500 {
		t.Fatalf("same interval estimate = %d", got)
	}
	// Next interval: counter lazily resets.
	if got := tw.Add(7, 100, period+time.Millisecond); got != 100 {
		t.Errorf("post-reset estimate = %d, want 100", got)
	}
	// Estimate without Add also sees the stale epoch as zeroed.
	tw2 := NewTowerDefault(0.001, period, 2)
	tw2.Add(9, 300, 0)
	if got := tw2.Estimate(9, 3*period); got != 0 {
		t.Errorf("stale-epoch Estimate = %d, want 0", got)
	}
}

func TestTowerEstimateReadOnly(t *testing.T) {
	tw := NewTowerDefault(0.001, 0, 1)
	tw.Add(5, 100, 0)
	a := tw.Estimate(5, 0)
	b := tw.Estimate(5, 0)
	if a != b || a != 100 {
		t.Errorf("repeated estimates differ or wrong: %d, %d", a, b)
	}
}

func TestCountMinNeverUndercounts(t *testing.T) {
	cm := NewCountMin(2, 1<<12, 0, 3)
	truth := map[uint64]uint32{}
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 20000; i++ {
		k := uint64(r.Intn(3000))
		d := uint32(r.Intn(1500) + 1)
		truth[k] += d
		cm.Add(k, d, 0)
	}
	for k, want := range truth {
		if got := cm.Estimate(k, 0); got < want {
			t.Fatalf("key %d: estimate %d < truth %d", k, got, want)
		}
	}
}

func TestCUNeverUndercountsAndBeatsCM(t *testing.T) {
	cm := NewCountMin(2, 1<<10, 0, 4)
	cu := NewCU(2, 1<<10, 0, 4)
	truth := map[uint64]uint32{}
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 40000; i++ {
		k := uint64(r.Intn(5000))
		d := uint32(r.Intn(100) + 1)
		truth[k] += d
		cm.Add(k, d, 0)
		cu.Add(k, d, 0)
	}
	var cmErr, cuErr float64
	for k, want := range truth {
		cuGot := cu.Estimate(k, 0)
		if cuGot < want {
			t.Fatalf("CU undercounts key %d: %d < %d", k, cuGot, want)
		}
		cmErr += float64(cm.Estimate(k, 0) - want)
		cuErr += float64(cuGot - want)
	}
	if cuErr > cmErr {
		t.Errorf("CU total error %.0f exceeds CM %.0f", cuErr, cmErr)
	}
}

// TestCUAddDoesNotAllocate: the conservative update keeps its row indices
// on the stack, so the per-packet Add allocates nothing. A sketch deeper
// than the stack array takes the heap fallback and still counts right.
func TestCUAddDoesNotAllocate(t *testing.T) {
	cu := NewCU(4, 1<<10, time.Millisecond, 6)
	key := uint64(0)
	if n := testing.AllocsPerRun(1000, func() { key++; cu.Add(key%300, 1, time.Duration(key)) }); n != 0 {
		t.Fatalf("CU Add: %v allocs/op, want 0", n)
	}
	deep := NewCU(12, 1<<10, 0, 6)
	for i := uint32(1); i <= 5; i++ {
		if got := deep.Add(9, 10, 0); got != 10*i {
			t.Fatalf("12-row CU estimate after %d adds of 10 = %d", i, got)
		}
	}
}

func TestCountMinReset(t *testing.T) {
	period := time.Millisecond
	cm := NewCountMin(2, 256, period, 5)
	cm.Add(1, 1000, 0)
	if got := cm.Add(1, 50, 5*period); got != 50 {
		t.Errorf("post-reset add = %d, want 50", got)
	}
}

func TestEpochWraps(t *testing.T) {
	// 8-bit epochs wrap at 256 intervals; a counter untouched for exactly
	// 256 intervals aliases — that is the documented data-plane behaviour,
	// but touching each interval must keep resetting.
	period := time.Millisecond
	cm := NewCountMin(1, 16, period, 6)
	for i := 0; i < 600; i++ {
		got := cm.Add(3, 7, time.Duration(i)*period)
		if got != 7 {
			t.Fatalf("interval %d: estimate %d, want 7 (reset each interval)", i, got)
		}
	}
}

func TestMemoryBytes(t *testing.T) {
	tw := NewTower([]int{1 << 20, 1 << 19}, []uint{8, 16}, 0, 1)
	want := 1<<20 + (1<<19)*2
	if got := tw.MemoryBytes(); got != want {
		t.Errorf("tower memory = %d, want %d", got, want)
	}
	cm := NewCountMin(2, 1000, 0, 1)
	if got := cm.MemoryBytes(); got != 8000 {
		t.Errorf("cm memory = %d, want 8000", got)
	}
}

func TestNames(t *testing.T) {
	if NewTowerDefault(0.01, 0, 1).Name() != "tower" {
		t.Error("tower name")
	}
	if NewCountMin(1, 1, 0, 1).Name() != "cm" {
		t.Error("cm name")
	}
	if NewCU(1, 1, 0, 1).Name() != "cu" {
		t.Error("cu name")
	}
}

func TestConstructorValidation(t *testing.T) {
	for name, fn := range map[string]func(){
		"tower-empty":    func() { NewTower(nil, nil, 0, 1) },
		"tower-mismatch": func() { NewTower([]int{4}, []uint{8, 16}, 0, 1) },
		"row-width":      func() { NewCountMin(1, 0, 0, 1) },
		"cm-depth":       func() { NewCountMin(0, 4, 0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestTowerAccuracyOnSkewedStream: mouse flows must mostly stay below an
// elephant threshold while elephants exceed it — the filter property LruMon
// relies on.
func TestTowerFilterSeparation(t *testing.T) {
	tw := NewTowerDefault(0.01, 0, 7) // ~10k counters
	r := rand.New(rand.NewSource(4))
	// 100 elephants × 100 packets × 1500B; 5000 mice × 1 packet × 64B.
	type pkt struct {
		k uint64
		s uint32
	}
	var pkts []pkt
	for e := 0; e < 100; e++ {
		for i := 0; i < 100; i++ {
			pkts = append(pkts, pkt{uint64(e), 1500})
		}
	}
	for m := 0; m < 5000; m++ {
		pkts = append(pkts, pkt{uint64(1000 + m), 64})
	}
	r.Shuffle(len(pkts), func(i, j int) { pkts[i], pkts[j] = pkts[j], pkts[i] })
	const threshold = 3000
	elephantPass := map[uint64]bool{}
	mousePass := 0
	for _, p := range pkts {
		if tw.Add(p.k, p.s, 0) >= threshold {
			if p.k < 1000 {
				elephantPass[p.k] = true
			} else {
				mousePass++
			}
		}
	}
	if len(elephantPass) != 100 {
		t.Errorf("only %d/100 elephants passed the filter", len(elephantPass))
	}
	if mousePass > 250 { // a few collisions are expected
		t.Errorf("%d mouse packets passed the filter", mousePass)
	}
}

func BenchmarkTowerAdd(b *testing.B) {
	tw := NewTowerDefault(1, 10*time.Millisecond, 1)
	for i := 0; i < b.N; i++ {
		tw.Add(uint64(i%100000), 1500, time.Duration(i)*time.Microsecond)
	}
}

func BenchmarkCUAdd(b *testing.B) {
	cu := NewCU(2, 1<<19, 10*time.Millisecond, 1)
	for i := 0; i < b.N; i++ {
		cu.Add(uint64(i%100000), 1500, time.Duration(i)*time.Microsecond)
	}
}
