package main

import (
	"math/rand"
	"time"
)

type stackKind int

const (
	kindIndex stackKind = iota
	kindClusterRemote
	kindClusterLocal
)

// workload is one traffic mix and the stack it drives. README.md and
// BENCHMARK.json record why each was chosen.
type workload struct {
	name string
	kind stackKind
	// rate is the frozen offered rate (ops/s) of the fixed-rate phases, about
	// a third of the knee first measured on the 2-core host. The closed loop
	// has none; its loopback echo runs at the index rate.
	rate    float64
	zipf    bool    // Zipf α = 0.9 keys, else uniform
	updFrac float64 // share of updates in the cluster mix
}

const indexRate = 9000

var workloads = []workload{
	{name: "index-ycsb", kind: kindIndex, rate: indexRate, zipf: true},
	{name: "index-churn", kind: kindIndex, rate: indexRate},
	{name: "cluster-remote", kind: kindClusterRemote, rate: 3500, zipf: true, updFrac: 0.05},
	{name: "cluster-local", kind: kindClusterLocal, zipf: true, updFrac: 0.05},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// loadWorkers is the number of load goroutines for the cluster workloads:
// one per core of the 2-core reference host.
const loadWorkers = 2

// scale sizes one run.
type scale struct {
	items     int
	setups    int // stacks built to take the median set-up time
	warmOps   int
	replayOps int
	nodeCalls int
	stream    int           // closed-loop ops generated per worker (then cycled)
	fixed     time.Duration // the untraced fixed-rate phase
	trace     time.Duration // each of the traced run's fixed-rate and closed phases
	probe     time.Duration // one knee-search probe
	echo      time.Duration // loopback echo phase
}

// kneeSteps is the number of log-bisection probes over [rate, 8×rate].
const kneeSteps = 6

// newScale sizes a run of s measured seconds. The untraced run spends them
// in one fixed-rate phase. The traced run spends a quarter on each of its
// two fixed-rate phases and its closed phase, 6/16 on the knee probes and
// an eighth on the loopback echo, then replays a fixed op count.
func newScale(s float64, smoke bool) scale {
	if smoke {
		return scale{
			items: 20000, setups: 1, warmOps: 2000, replayOps: 2000, nodeCalls: 200, stream: 1 << 12,
			fixed: 300 * time.Millisecond, trace: 100 * time.Millisecond,
			probe: 50 * time.Millisecond, echo: 100 * time.Millisecond,
		}
	}
	d := time.Duration(s * float64(time.Second))
	return scale{
		items: 1_000_000, setups: 16, warmOps: 200_000, replayOps: 200_000, nodeCalls: 20_000, stream: 1 << 22,
		fixed: d, trace: d / 4, probe: d / 16, echo: d / 8,
	}
}

func (w *workload) gen(sc scale) *opGen {
	g := &opGen{items: uint64(sc.items), updFrac: w.updFrac}
	if w.zipf {
		g.zipf = newZipf(uint64(sc.items), 0.9)
	}
	return g
}

// Every phase draws from its own stream of the seed, so the same seed gives
// the same inputs whichever phases a run makes.
const (
	streamWarm = iota + 1
	streamFixed
	streamTraced
	streamEcho
	streamReplay
	streamClosed
	streamProbe // + probe step
)

func rngFor(seed int64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(stream)))
}

// opStream draws n operations without arrival times: warm-up, replay and
// closed-loop input.
func opStream(rng *rand.Rand, g *opGen, n int) schedule {
	s := schedule{keys: make([]uint64, n), upd: make([]bool, n)}
	for i := range s.keys {
		s.keys[i], s.upd[i] = g.next(rng)
	}
	return s
}
