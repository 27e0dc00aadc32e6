package main

import (
	"errors"
	"math"
	"runtime"
	"time"

	"github.com/p4lru/p4lru/internal/cluster"
	"github.com/p4lru/p4lru/internal/kvindex"
)

// runResult is one workload run: its metrics and how many operations of
// the measured phases were attempted and failed. invalid counts wrong
// replies over every phase; any one makes the run incorrect.
type runResult struct {
	metrics   map[string]float64
	attempted int
	failed    int
	invalid   int
	firstBad  error
}

func (r *runResult) note(p *phaseResult) {
	r.invalid += p.invalid
	if r.firstBad == nil {
		r.firstBad = p.firstBad
	}
}

func (r *runResult) count(p *phaseResult) {
	r.note(p)
	r.attempted += p.attempted
	r.failed += p.failed
}

// noteErr files an error from a replay: a wrong value makes the run
// incorrect; anything else aborts it.
func (r *runResult) noteErr(err error) error {
	if errors.Is(err, errInvalid) {
		r.invalid++
		if r.firstBad == nil {
			r.firstBad = err
		}
		return nil
	}
	return err
}

// runner builds a workload's stack and runs measured phases against it.
type runner struct {
	w     *workload
	sc    scale
	seed  int64
	gen   *opGen
	index *indexStack
	clus  *clusterStack
}

func newRunner(w *workload, sc scale, seed int64) *runner {
	return &runner{w: w, sc: sc, seed: seed, gen: w.gen(sc)}
}

// build constructs the stack n times and returns the set-up times. With
// keep set the last stack stays, warmed; else every stack is closed. An
// index stack's set-up time ends at its first valid reply and only the kept
// one is warmed: its warm-up is seconds of wire round trips. A cluster
// stack is built in about 2 ms, too short to time steadily on a shared
// host, so each is warmed and its set-up time takes in the warm-up, about
// 0.1 s of router and engine work. With rec set, cluster peers are wrapped
// in its timing wrapper.
func (d *runner) build(n int, keep bool, rec *peerRecorder) ([]float64, error) {
	warm := opStream(rngFor(d.seed, streamWarm), d.gen, d.sc.warmOps)
	var times []float64
	for i := 0; i < n; i++ {
		d.close()
		runtime.GC() // each build starts from a clean heap, as in a fresh process
		var t float64
		var err error
		if d.w.kind == kindIndex {
			d.index, t, err = newIndexStack(d.sc.items)
		} else {
			var wrap func(cluster.Peer, bool) cluster.Peer
			if rec != nil {
				wrap = rec.wrap
			}
			d.clus, t, err = newClusterStack(d.w.kind == kindClusterRemote, wrap)
			if err == nil {
				t0 := time.Now()
				err = d.clus.warm(warm)
				t += time.Since(t0).Seconds()
			}
		}
		if err != nil {
			d.close()
			return nil, err
		}
		times = append(times, t)
	}
	if !keep {
		d.close()
		return times, nil
	}
	if d.index != nil {
		if err := d.index.warm(warm); err != nil {
			d.close()
			return nil, err
		}
	}
	return times, nil
}

func (d *runner) close() {
	if d.index != nil {
		d.index.Close()
		d.index = nil
	}
	if d.clus != nil {
		d.clus.Close()
		d.clus = nil
	}
}

func (d *runner) engineDropped() uint64 {
	if d.index != nil {
		return d.index.engineDropped()
	}
	return d.clus.engineDropped()
}

// phase runs one measured phase drawn from the seed's stream. At a rate
// it is open loop: one wire generator, or two paced workers. At rate 0 it
// is closed: the wire generator keeps closedWindow queries outstanding, or
// two workers run ops back to back.
func (d *runner) phase(stream int, rate float64, dur time.Duration, hooks *workerHooks) phaseResult {
	rng := rngFor(d.seed, stream)
	switch {
	case rate > 0 && d.index != nil:
		return d.index.gen.run(poissonSchedule(rng, d.gen, rate, dur))
	case rate > 0:
		return runPaced(poissonSchedule(rng, d.gen, rate, dur).split(loadWorkers), d.clus.op, hooks)
	case d.index != nil:
		return d.index.gen.runWindow(opStream(rng, d.gen, d.sc.stream), closedWindow, dur)
	}
	streams := make([]schedule, loadWorkers)
	for i := range streams {
		streams[i] = opStream(rng, d.gen, d.sc.stream)
	}
	return runClosed(streams, dur, d.clus.op, hooks)
}

// closedWindow is the number of queries the closed wire loop keeps
// outstanding: enough to keep both cores of the 2-core host busy, few
// enough that the socket buffers never drop (256 starts to).
const closedWindow = 64

// Phases are judged window by window and summarized by the median window,
// so a few seconds of interference from the host spoil a window or two, not
// the run.
func p50(w *phaseResult) float64      { return w.latQ(0.5) }
func p99(w *phaseResult) float64      { return w.latQ(0.99) }
func achieved(w *phaseResult) float64 { return w.achieved() }

// knee is the highest rate meeting the SLO, by log bisection over
// [rate, 8×rate] (or [rate/8, rate] when the fixed rate already fails). It
// reports the rate achieved at the highest passing probe. A closed loop has
// no offered rate to search: its knee is its throughput, if that met the SLO.
func (d *runner) knee(fixed *phaseResult, res *runResult) float64 {
	if fixed.rate == 0 {
		if fixed.passes() && fixed.failRatio() <= 0.001 {
			return fixed.overWindows(achieved)
		}
		return 0
	}
	lo, hi, best := fixed.rate, 8*fixed.rate, 0.0
	if fixed.passes() {
		best = fixed.overWindows(achieved)
	} else {
		lo, hi = fixed.rate/8, fixed.rate
	}
	for step := 0; step < kneeSteps; step++ {
		mid := math.Sqrt(lo * hi)
		p := d.phase(streamProbe+step, mid, d.sc.probe, nil)
		res.note(&p)
		if p.passes() {
			lo, best = mid, p.overWindows(achieved)
		} else {
			hi = mid
		}
	}
	return best
}

// runE2E is the untraced run: one fixed-rate phase (the closed loop for
// cluster-local) as long as the run, which gives the hit ratio and checks
// every reply, between two sets of set-ups. The host's speed drifts over
// seconds, so set-ups timed on both sides of the phase give a steadier
// median than the same number timed back to back.
func runE2E(w *workload, sc scale, seed int64) (runResult, error) {
	d := newRunner(w, sc, seed)
	setups, err := d.build((sc.setups+1)/2, true, nil)
	if err != nil {
		return runResult{}, err
	}
	defer d.close()
	p := d.phase(streamFixed, w.rate, sc.fixed, nil)
	after, err := d.build(sc.setups/2, false, nil)
	if err != nil {
		return runResult{}, err
	}
	res := runResult{metrics: map[string]float64{
		"setup_s":   median(append(setups, after...)),
		"hit_ratio": p.hitRatio(),
	}}
	res.count(&p)
	return res, nil
}

// runTrace is the traced run. A plain fixed-rate phase gives the latency
// and harness numbers and starts the knee search; a closed phase gives the
// throughput; the fixed phase runs again with the timing wrappers on; then
// each layer is priced on a replay of the workload's keys.
func runTrace(w *workload, sc scale, seed int64, outDir string) (runResult, error) {
	res := runResult{metrics: map[string]float64{}}
	m := res.metrics
	d := newRunner(w, sc, seed)
	if _, err := d.build(1, true, nil); err != nil {
		return res, err
	}
	defer d.close()

	plain := d.phase(streamFixed, w.rate, sc.trace, nil)
	res.count(&plain)
	m["e2e.p50_us"] = plain.overWindows(p50)
	m["e2e.p99_us"] = plain.overWindows(p99)
	m["e2e.max_qps_slo"] = d.knee(&plain, &res)
	capacity := plain
	if w.rate > 0 {
		capacity = d.phase(streamClosed, 0, sc.trace, nil)
		res.note(&capacity)
	}
	m["e2e.ops_per_s"] = capacity.overWindows(achieved)

	// The cluster stacks are rebuilt with wrapped peers for the traced
	// phase: a wrapper costs something even when it records nothing, and
	// the plain phase must not pay it.
	var rec *peerRecorder
	var hooks *workerHooks
	if d.clus != nil {
		rec = newPeerRecorder(loadWorkers)
		hooks = rec.hooks()
		m["engine.dropped"] = float64(d.engineDropped())
		if _, err := d.build(1, true, rec); err != nil {
			return res, err
		}
	}
	// Switch and server receive counters (packets, batches) and backing
	// loads, over the traced phase.
	var before [4]int64
	recv := func() [4]int64 {
		sw, srv := d.index.sw.Stats(), d.index.srv.Stats()
		return [4]int64{sw.RecvPackets, sw.RecvBatches, srv.RecvPackets, srv.RecvBatches}
	}
	var loadsBefore int64
	if d.index != nil {
		before = recv()
	} else {
		loadsBefore = d.clus.loads[0] + d.clus.loads[1]
	}
	traced := d.phase(streamTraced, w.rate, sc.trace, hooks)
	res.count(&traced)

	m["engine.dropped"] += float64(d.engineDropped())
	if d.index != nil {
		after := recv()
		m["netproto.switch_pkts_per_batch"] = float64(after[0]-before[0]) / float64(after[1]-before[1])
		m["netproto.server_pkts_per_batch"] = float64(after[2]-before[2]) / float64(after[3]-before[3])
	} else {
		// No switch or server on these stacks: no batches.
		m["netproto.switch_pkts_per_batch"] = 0
		m["netproto.server_pkts_per_batch"] = 0
		m["cluster.loads_per_op"] = float64(d.clus.loads[0]+d.clus.loads[1]-loadsBefore) / float64(traced.attempted)
		m["cluster.pending_hints"] = float64(d.clus.router.PendingHints())
		m["cluster.degraded"] = b2f(d.clus.router.Degraded())
	}
	d.close()

	// Harness health, from the plain phase.
	// Served over offered: the nominal rate for the open loop, every op
	// attempted for the closed one.
	m["loadgen.achieved_ratio"] = 1 - plain.failRatio()
	if plain.rate > 0 {
		m["loadgen.achieved_ratio"] = plain.achieved() / plain.rate
	}
	m["loadgen.late_p99_us"] = quantile(plain.late, 0.99)
	m["loadgen.stale_replies"] = float64(plain.stale)
	m["e2e.p999_us"] = plain.latQ(0.999)
	m["e2e.samples"] = float64(len(plain.lat))
	m["e2e.fail_ratio"] = plain.failRatio()

	rate := w.rate
	if rate == 0 {
		rate = indexRate
	}
	echo, err := loopbackRTT(poissonSchedule(rngFor(seed, streamEcho), d.gen, rate, sc.echo))
	if err != nil {
		return res, err
	}
	res.note(&echo)
	m["netproto.loopback_rtt_us"] = echo.latQ(0.5)

	keys := opStream(rngFor(seed, streamReplay), d.gen, sc.replayOps)
	warm := opStream(rngFor(seed, streamWarm), d.gen, sc.warmOps)
	db := kvindex.NewServer(sc.items)
	rp, err := replayProtocol(db, keys.keys)
	if err = res.noteErr(err); err != nil {
		return res, err
	}
	m["engine.replay_hits"] = float64(rp.hits)
	m["engine.evictions"] = float64(rp.evictions)
	m["kvindex.walks_per_query"] = float64(rp.walks) / float64(rp.queries)
	m["kvindex.nodes_per_walk"] = float64(rp.nodes) / math.Max(1, float64(rp.walks))
	if err := layerPrices(db, rp, m); err != nil {
		return res, err
	}

	rr, err := replayRouter(warm, keys, nil)
	if err = res.noteErr(err); err != nil {
		return res, err
	}
	m["cluster.router_op_ns"] = rr.opNs

	var sum traceSummary
	if rec != nil {
		sum = rec.summary()
		m["netproto.node_calls_per_op"] = float64(sum.wireCalls) / float64(max(1, sum.ops))
	} else {
		// No router on the index stack: price its self time on the replay,
		// and its loads and health too.
		r1 := newPeerRecorder(1)
		_, err = replayRouter(warm, keys, r1)
		if err = res.noteErr(err); err != nil {
			return res, err
		}
		sum = r1.summary()
		m["cluster.loads_per_op"] = rr.loadsPerOp
		m["cluster.pending_hints"] = float64(rr.pendingHints)
		m["cluster.degraded"] = b2f(rr.degraded)
		m["netproto.node_calls_per_op"] = 0
	}
	m["cluster.router_self_us"] = median(sum.selfUs)

	callUs := sum.callUs
	if w.kind != kindClusterRemote {
		// The workload makes no node calls; price one on its keys.
		if callUs, err = nodeCalls(keys.keys[:min(sc.nodeCalls, len(keys.keys))]); err != nil {
			return res, err
		}
	}
	m["netproto.node_call_us.p50"] = quantile(callUs, 0.5)
	m["netproto.node_call_us.p99"] = quantile(callUs, 0.99)

	tracedP50 := traced.overWindows(p50)
	var parts float64
	if w.kind == kindIndex {
		// A served query crosses four loopback hops (two echo round trips)
		// and makes one codec pass, one cache consult, one server resolve
		// (a walk on a miss) and one cache apply.
		h := float64(rp.hits) / float64(rp.queries)
		parts = 2*m["netproto.loopback_rtt_us"] + (m["netproto.codec_ns"]+m["engine.query_ns"]+
			m["engine.apply_ns_per_op"]+(1-h)*m["kvindex.resolve_walk_ns"]+h*m["kvindex.resolve_cached_ns"])/1e3
	} else {
		parts = median(sum.peerUs) + median(sum.selfUs)
	}
	m["budget.unexplained_us"] = tracedP50 - parts
	m["trace.overhead_ratio"] = tracedP50 / plain.overWindows(p50)

	if outDir != "" {
		if err := writeSpans(outDir, w.name, append(opSpans(&traced), sum.spans...)); err != nil {
			return res, err
		}
	}
	return res, nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
