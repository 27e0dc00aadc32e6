package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/netip"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/p4lru/p4lru/internal/netproto"
	"github.com/p4lru/p4lru/internal/netproto/batchio"
)

// failAfter is how long a request may stay unanswered before it counts as
// failed. A failed request counts as missing every latency limit.
const failAfter = 100 * time.Millisecond

// zipfGen draws ranks 0..n-1 with P(rank i) ∝ 1/(i+1)^theta — the YCSB
// generator (Gray et al., "Quickly generating billion-record synthetic
// databases"). math/rand's Zipf needs an exponent above 1, and the paper's
// YCSB load uses α = 0.9.
type zipfGen struct {
	n                 uint64
	alpha, zetan, eta float64
	halfPowTheta      float64
}

func newZipf(n uint64, theta float64) *zipfGen {
	var zetan float64
	for i := uint64(1); i <= n; i++ {
		zetan += 1 / math.Pow(float64(i), theta)
	}
	zeta2 := 1 + 1/math.Pow(2, theta)
	return &zipfGen{
		n:            n,
		alpha:        1 / (1 - theta),
		zetan:        zetan,
		eta:          (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta2/zetan),
		halfPowTheta: 1 + math.Pow(0.5, theta),
	}
}

func (z *zipfGen) rank(rng *rand.Rand) uint64 {
	u := rng.Float64()
	uz := u * z.zetan
	switch {
	case uz < 1:
		return 0
	case uz < z.halfPowTheta:
		return 1
	}
	r := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if r >= z.n {
		r = z.n - 1
	}
	return r
}

// opGen draws a workload's operations: a key in 1..items (Zipf when zipf is
// set, else uniform) and, for the cluster mix, whether it is an update.
type opGen struct {
	items   uint64
	zipf    *zipfGen
	updFrac float64
}

func (g *opGen) next(rng *rand.Rand) (key uint64, upd bool) {
	if g.zipf != nil {
		key = g.zipf.rank(rng) + 1
	} else {
		key = uint64(rng.Int63n(int64(g.items))) + 1
	}
	return key, g.updFrac > 0 && rng.Float64() < g.updFrac
}

// schedule is one phase's open-loop input: Poisson arrivals at a fixed
// offered rate, each with its operation.
type schedule struct {
	rate float64
	dur  time.Duration
	at   []int64 // intended send time, ns from phase start
	keys []uint64
	upd  []bool
}

func poissonSchedule(rng *rand.Rand, gen *opGen, rate float64, dur time.Duration) schedule {
	s := schedule{rate: rate, dur: dur}
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate * 1e9
		if t >= float64(dur) {
			return s
		}
		k, u := gen.next(rng)
		s.at = append(s.at, int64(t))
		s.keys = append(s.keys, k)
		s.upd = append(s.upd, u)
	}
}

// split deals a schedule's arrivals round-robin to n paced workers. Each
// worker's share is itself close to a Poisson stream at rate/n.
func (s schedule) split(n int) []schedule {
	out := make([]schedule, n)
	for w := range out {
		out[w] = schedule{rate: s.rate / float64(n), dur: s.dur}
	}
	for i := range s.at {
		w := &out[i%n]
		w.at = append(w.at, s.at[i])
		w.keys = append(w.keys, s.keys[i])
		w.upd = append(w.upd, s.upd[i])
	}
	return out
}

// phaseResult is what one measured phase saw.
type phaseResult struct {
	rate      float64       // offered ops/s (0 for a closed loop)
	dur       time.Duration // schedule length, or elapsed time of a closed loop
	attempted int
	failed    int
	invalid   int   // replies with a wrong value: the run is not correct
	firstBad  error // the first invalid reply
	reads     int   // operations that can hit (all but cluster updates)
	hits      int
	stale     int       // replies that matched no outstanding request
	lat       []float64 // µs from intended send (closed loop: sampled op time); +Inf when failed
	at        []int64   // intended send time of each lat entry, ns from phase start
	stride    int       // ops each lat entry stands for (0 = 1): a closed loop times a sample
	late      []float64 // µs the generator sent late (closed loop: sampled gap between ops)
	base      time.Time // phase start: at and span times count from it
	spans     []spanRec // traced workers only
}

// achieved is the completed ops per second.
func (p *phaseResult) achieved() float64 {
	return float64(p.attempted-p.failed) / p.dur.Seconds()
}

func (p *phaseResult) failRatio() float64 {
	if p.attempted == 0 {
		return 0
	}
	return float64(p.failed) / float64(p.attempted)
}

func (p *phaseResult) hitRatio() float64 {
	if p.reads == 0 {
		return 0
	}
	return float64(p.hits) / float64(p.reads)
}

// latQ returns latency quantile q in µs.
func (p *phaseResult) latQ(q float64) float64 { return quantile(p.lat, q) }

// meetsSLO is the knee criterion: p99 within 1 ms and at most one failure
// per thousand. The latter also means at least 98% of the offered arrivals
// were served: "offered" is the realized Poisson schedule, since a short
// window's arrival count strays from rate×time by more than 2%.
func (p *phaseResult) meetsSLO() bool {
	return p.latQ(0.99) <= 1000 && p.failRatio() <= 0.001
}

// windows splits the phase into windows of about a second (at least
// three) by intended send time. A window's op count comes from its entries,
// so where a closed loop timed a sample, failures of untimed ops do not
// appear in it.
func (p *phaseResult) windows() []phaseResult {
	n := max(3, int((p.dur+time.Second/2)/time.Second))
	ws := make([]phaseResult, n)
	wd := p.dur / time.Duration(n)
	for i := range ws {
		ws[i].rate, ws[i].dur = p.rate, wd
	}
	for i, t := range p.at {
		k := min(max(int(t/int64(wd)), 0), n-1)
		w := &ws[k]
		w.lat = append(w.lat, p.lat[i])
		w.attempted += max(p.stride, 1)
		if math.IsInf(p.lat[i], 1) {
			w.failed++
		}
	}
	return ws
}

// overWindows is the median over the phase's windows of f. A host that
// steals the CPU for a few hundred milliseconds spoils a window or two, not
// the median.
func (p *phaseResult) overWindows(f func(w *phaseResult) float64) float64 {
	ws := p.windows()
	xs := make([]float64, len(ws))
	for i := range ws {
		xs[i] = f(&ws[i])
	}
	return median(xs)
}

// passes reports whether most of the phase's windows meet the SLO.
func (p *phaseResult) passes() bool {
	ws := p.windows()
	ok := 0
	for i := range ws {
		if ws[i].meetsSLO() {
			ok++
		}
	}
	return 2*ok > len(ws)
}

func (p *phaseResult) addInvalid(err error) {
	p.invalid++
	if p.firstBad == nil {
		p.firstBad = err
	}
}

// quantile returns the linearly interpolated q-th quantile of xs (NaN when
// empty), leaving xs in its order.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	if math.IsInf(xs[lo+1], 1) {
		return xs[lo+1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// errInvalid marks a reply whose value is wrong, as opposed to one that
// never came.
var errInvalid = errors.New("invalid reply")

// injectWrongValueAt, when positive, counts down the replies the wire
// generator receives and corrupts the one that reaches zero. The smoke test
// sets it past set-up and warm-up to prove that a wrong value fails the run.
var injectWrongValueAt atomic.Int64

// wireGen is the open-loop generator for the UDP workloads: the caller's
// goroutine paces sends on one socket, a receiver goroutine matches
// replies. Replies carry no request ID, so each is matched to the oldest
// outstanding request for its key.
type wireGen struct {
	conn  *batchio.Conn
	dst   netip.AddrPort
	check func(m *netproto.Message) (hit bool, err error)
	pacer *pacer // used by the goroutine running a phase

	mu    sync.Mutex
	ph    *wirePhase   // open-loop phase, or nil
	win   *windowPhase // closed-window phase, or nil
	stale int

	closed atomic.Bool
	done   chan struct{}
}

// wirePhase is one phase's request table. Requests for one key form a FIFO
// linked through next; q maps a key to its (head, tail).
type wirePhase struct {
	base        time.Time
	sent, recv  []int64 // ns from base; -1 until it happens
	hit         []bool
	next        []int32
	q           map[uint64][2]int32
	outstanding int
	res         *phaseResult
}

func newWireGen(dst netip.AddrPort, check func(*netproto.Message) (bool, error)) (*wireGen, error) {
	uc, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, fmt.Errorf("load socket: %w", err)
	}
	conn, err := batchio.NewConn(uc)
	if err != nil {
		uc.Close()
		return nil, fmt.Errorf("load socket: %w", err)
	}
	g := &wireGen{conn: conn, dst: dst, check: check, pacer: newPacer(), done: make(chan struct{})}
	go g.recvLoop()
	return g, nil
}

// Close stops the receiver and waits for it.
func (g *wireGen) Close() {
	if g.closed.Swap(true) {
		return
	}
	_ = g.conn.SetReadDeadline(time.Now())
	<-g.done
	g.conn.Close()
	g.pacer.close()
}

func (g *wireGen) recvLoop() {
	defer close(g.done)
	ring := batchio.NewRing(64, 2048)
	out := batchio.NewRing(64, 64)
	for {
		n, err := g.conn.ReadBatch(ring)
		if err != nil {
			if g.closed.Load() {
				return
			}
			continue
		}
		g.mu.Lock()
		if wp := g.win; wp != nil {
			k := wp.receive(ring.Datagrams()[:n], g.check, out)
			g.mu.Unlock()
			_, _ = g.conn.WriteBatch(out, k) // a lost query shrinks the window until refill
			continue
		}
		ph := g.ph
		var now int64
		if ph != nil {
			now = int64(time.Since(ph.base))
		}
		for i := range ring.Datagrams()[:n] {
			d := &ring.Datagrams()[i]
			var m netproto.Message
			if err := m.Unmarshal(d.Bytes()); err != nil {
				if ph != nil {
					ph.res.addInvalid(err)
				}
				continue
			}
			if ph == nil {
				g.stale++
				continue
			}
			j := ph.match(m.Key, now)
			if j < 0 {
				g.stale++
				continue
			}
			if injectWrongValueAt.Load() > 0 && injectWrongValueAt.Add(-1) == 0 && len(m.Value) > 0 {
				m.Value[0] ^= 0xff
			}
			hit, err := g.check(&m)
			if err != nil {
				ph.res.addInvalid(fmt.Errorf("key %d: %w", m.Key, err))
			}
			ph.recv[j], ph.hit[j] = now, hit
		}
		g.mu.Unlock()
	}
}

// match pops the oldest live request for key. Requests older than failAfter
// are dropped from the queue on the way: they stay unanswered and fail.
func (ph *wirePhase) match(key uint64, now int64) int32 {
	ht, ok := ph.q[key]
	if !ok {
		return -1
	}
	i := ht[0]
	for i >= 0 && now-ph.sent[i] > int64(failAfter) {
		ph.outstanding--
		i = ph.next[i]
	}
	if i < 0 {
		delete(ph.q, key)
		return -1
	}
	ph.outstanding--
	if nx := ph.next[i]; nx < 0 {
		delete(ph.q, key)
	} else {
		ph.q[key] = [2]int32{nx, ht[1]}
	}
	return i
}

func (ph *wirePhase) push(i int32, key uint64, sent int64) {
	ph.sent[i] = sent
	ph.outstanding++
	if ht, ok := ph.q[key]; ok {
		ph.next[ht[1]] = i
		ph.q[key] = [2]int32{ht[0], i}
		return
	}
	ph.q[key] = [2]int32{i, i}
}

// run drives one phase: every wake of the pacer sends all requests that are
// due in one batch, and latency runs from each request's intended send time,
// so a stall anywhere delays — and is charged to — every request behind it.
func (g *wireGen) run(s schedule) phaseResult {
	n := len(s.at)
	res := phaseResult{rate: s.rate, dur: s.dur, attempted: n, reads: n}
	ph := &wirePhase{
		base: time.Now().Add(time.Millisecond),
		sent: make([]int64, n),
		recv: make([]int64, n),
		hit:  make([]bool, n),
		next: make([]int32, n),
		q:    make(map[uint64][2]int32, 1024),
		res:  &res,
	}
	for i := range ph.sent {
		ph.sent[i], ph.recv[i], ph.next[i] = -1, -1, -1
	}
	g.mu.Lock()
	staleBefore := g.stale
	g.ph = ph
	g.mu.Unlock()

	res.late = make([]float64, 0, n)
	ring := batchio.NewRing(64, 64)
	ds := ring.Datagrams()
	due := func(i int) bool { return s.at[i] <= int64(time.Since(ph.base)) }
	for i := 0; i < n; {
		if !due(i) {
			g.pacer.sleepUntil(ph.base.Add(time.Duration(s.at[i])))
			continue
		}
		j := i
		for ; j < n && j-i < len(ds) && due(j); j++ {
			ds[j-i].N = netproto.PutQuery(ds[j-i].Buf, s.keys[j])
			ds[j-i].Addr = g.dst
		}
		g.mu.Lock()
		sent := int64(time.Since(ph.base))
		for k := i; k < j; k++ {
			ph.push(int32(k), s.keys[k], sent)
		}
		g.mu.Unlock()
		// A failed send leaves its requests unanswered: they fail.
		_, _ = g.conn.WriteBatch(ring, j-i)
		for k := i; k < j; k++ {
			res.late = append(res.late, float64(sent-s.at[k])/1e3)
		}
		i = j
	}

	deadline := time.Now().Add(failAfter)
	for {
		g.mu.Lock()
		out := ph.outstanding
		g.mu.Unlock()
		if out == 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	g.mu.Lock()
	g.ph = nil
	res.stale = g.stale - staleBefore
	g.mu.Unlock()

	res.lat, res.at, res.base = make([]float64, n), s.at, ph.base
	for i := 0; i < n; i++ {
		if ph.recv[i] < 0 || ph.recv[i]-ph.sent[i] > int64(failAfter) {
			res.failed++
			res.lat[i] = math.Inf(1)
			continue
		}
		res.lat[i] = float64(ph.recv[i]-s.at[i]) / 1e3
		if ph.hit[i] {
			res.hits++
		}
	}
	return res
}

// opFunc performs operation seq of worker w: a read (GetOrLoad) of key, or
// an update when upd is set. It reports whether a read hit; a wrong value is
// returned as an error wrapping errInvalid.
type opFunc func(w int, key uint64, upd bool, seq uint64) (hit bool, err error)

// workerHooks lets the traced run bracket each op of a worker.
type workerHooks struct {
	start func(w, tid int)                            // once, on the worker's locked thread
	begin func(w int, op int64)                       // before an op
	end   func(w int, op int64, startNs, endNs int64) // after an op
}

// runPaced drives one open-loop phase with len(scheds) paced workers, each
// calling op synchronously at its own arrivals. A worker that falls behind
// sends at once, and latency still runs from the intended time.
func runPaced(scheds []schedule, op opFunc, hooks *workerHooks) phaseResult {
	base := time.Now().Add(time.Millisecond)
	parts := make([]phaseResult, len(scheds))
	var wg sync.WaitGroup
	wg.Add(len(scheds))
	for w := range scheds {
		go func(w int) {
			defer wg.Done()
			if hooks != nil {
				runtime.LockOSThread() // the wrapper names the worker by its thread
				hooks.start(w, threadID())
			}
			p := newPacer()
			defer p.close()
			s := scheds[w]
			r := &parts[w]
			r.lat, r.at = make([]float64, len(s.at)), s.at
			r.late = make([]float64, len(s.at))
			for i := range s.at {
				p.sleepUntil(base.Add(time.Duration(s.at[i])))
				opID := int64(i*len(scheds) + w)
				if behind := int64(time.Since(base)) - s.at[i]; behind > int64(failAfter) {
					// Not even sent within the limit: it fails unsent, which
					// keeps an overloaded probe from outrunning its slot.
					r.late[i] = float64(behind) / 1e3
					r.failed++
					r.lat[i] = math.Inf(1)
					continue
				}
				if hooks != nil {
					hooks.begin(w, opID)
				}
				st := int64(time.Since(base))
				hit, err := op(w, s.keys[i], s.upd[i], uint64(opID))
				en := int64(time.Since(base))
				if hooks != nil {
					hooks.end(w, opID, st, en)
				}
				r.late[i] = float64(st-s.at[i]) / 1e3
				switch {
				case errors.Is(err, errInvalid):
					r.addInvalid(err)
				case err != nil || en-st > int64(failAfter):
					r.failed++
					r.lat[i] = math.Inf(1)
					continue
				}
				r.lat[i] = float64(en-s.at[i]) / 1e3
				if !s.upd[i] {
					r.reads++
					if hit {
						r.hits++
					}
				}
				if hooks != nil {
					r.spans = append(r.spans, spanRec{name: "op", op: opID, start: s.at[i], end: en})
				}
			}
			r.attempted = len(s.at)
		}(w)
	}
	wg.Wait()
	var total float64
	for _, s := range scheds {
		total += s.rate
	}
	res := merge(parts)
	res.rate, res.dur, res.base = total, scheds[0].dur, base
	return res
}

// windowPhase is a closed-window phase: the receiver answers each reply by
// sending the next query, so a fixed number stay outstanding and the stack
// runs as fast as it can. It times no requests; it counts them.
type windowPhase struct {
	base        time.Time
	end         int64 // ns from base: replies after it are drained, not counted
	keys        []uint64
	next        int // next key to send, cycling
	dst         netip.AddrPort
	outstanding int
	progress    int // replies so far; the refill check watches it
	res         *phaseResult
}

// fill stages up to k next queries in r and returns how many.
func (wp *windowPhase) fill(r *batchio.Ring, k int) int {
	ds := r.Datagrams()
	k = min(k, len(ds))
	for i := 0; i < k; i++ {
		ds[i].N = netproto.PutQuery(ds[i].Buf, wp.keys[wp.next%len(wp.keys)])
		ds[i].Addr = wp.dst
		wp.next++
	}
	wp.outstanding += k
	return k
}

// receive counts a batch of replies and stages one new query per reply
// while the phase runs.
func (wp *windowPhase) receive(ds []batchio.Datagram, check func(*netproto.Message) (bool, error), out *batchio.Ring) int {
	now := int64(time.Since(wp.base))
	got := 0
	for i := range ds {
		var m netproto.Message
		if err := m.Unmarshal(ds[i].Bytes()); err != nil {
			wp.res.addInvalid(err)
			continue
		}
		hit, err := check(&m)
		if err != nil {
			wp.res.addInvalid(fmt.Errorf("key %d: %w", m.Key, err))
		}
		got++
		if now >= wp.end {
			continue
		}
		wp.res.lat = append(wp.res.lat, 0) // untimed: the entry places the reply in a window
		wp.res.at = append(wp.res.at, now)
		wp.res.reads++
		if hit {
			wp.res.hits++
		}
	}
	wp.outstanding = max(wp.outstanding-got, 0)
	wp.progress += got
	if now >= wp.end {
		return 0
	}
	return wp.fill(out, got)
}

// runWindow keeps window queries outstanding for dur, cycling through the
// stream's keys, and reports the replies per second. If replies stop for
// 10 ms with queries outstanding, those are taken as lost and refilled.
func (g *wireGen) runWindow(s schedule, window int, dur time.Duration) phaseResult {
	res := phaseResult{dur: dur}
	wp := &windowPhase{base: time.Now(), end: int64(dur), keys: s.keys, dst: g.dst, res: &res}
	ring := batchio.NewRing(64, 64)
	refill := func() {
		for left := window; left > 0; {
			g.mu.Lock()
			k := wp.fill(ring, left)
			g.mu.Unlock()
			_, _ = g.conn.WriteBatch(ring, k)
			left -= k
		}
	}
	g.mu.Lock()
	g.win = wp
	g.mu.Unlock()
	refill()
	lost, seen := 0, 0
	for time.Since(wp.base) < dur {
		time.Sleep(10 * time.Millisecond)
		g.mu.Lock()
		stuck := wp.progress == seen && wp.outstanding > 0
		seen = wp.progress
		if stuck {
			lost += wp.outstanding
			wp.outstanding = 0
		}
		g.mu.Unlock()
		if stuck {
			refill()
		}
	}
	deadline := time.Now().Add(failAfter)
	for {
		g.mu.Lock()
		left := wp.outstanding
		g.mu.Unlock()
		if left == 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	g.mu.Lock()
	g.win = nil
	res.attempted = len(res.lat) + lost + wp.outstanding
	res.failed = lost + wp.outstanding
	g.mu.Unlock()
	res.base = wp.base
	return res
}

// sampleEvery is the closed loop's timing stride: only every 64th op is
// timed, so the clock reads stay off the measured throughput.
const sampleEvery = 64

// runClosed drives each worker through its op stream back to back for dur.
// Latency is sampled; lateness is the generator's own gap between the end
// of a timed op and the start of the next.
func runClosed(streams []schedule, dur time.Duration, op opFunc, hooks *workerHooks) phaseResult {
	parts := make([]phaseResult, len(streams))
	base := time.Now()
	deadline := base.Add(dur)
	var wg sync.WaitGroup
	wg.Add(len(streams))
	for w := range streams {
		go func(w int) {
			defer wg.Done()
			if hooks != nil {
				runtime.LockOSThread() // the wrapper names the worker by its thread
				hooks.start(w, threadID())
			}
			s := streams[w]
			r := &parts[w]
			n := len(s.keys)
			var seq uint64
			for ; ; seq++ {
				if seq%256 == 0 && time.Now().After(deadline) {
					break
				}
				i := int(seq % uint64(n))
				opID := int64(seq)*int64(len(streams)) + int64(w)
				timed := seq%sampleEvery == 0
				var st int64
				if timed {
					if hooks != nil {
						hooks.begin(w, opID)
					}
					st = int64(time.Since(base))
				}
				hit, err := op(w, s.keys[i], s.upd[i], uint64(opID))
				switch {
				case errors.Is(err, errInvalid):
					r.addInvalid(err)
				case err != nil:
					r.failed++
				}
				if !s.upd[i] {
					r.reads++
					if hit {
						r.hits++
					}
				}
				if timed {
					en := int64(time.Since(base))
					if hooks != nil {
						hooks.end(w, opID, st, en)
						r.spans = append(r.spans, spanRec{name: "op", op: opID, start: st, end: en})
					}
					r.lat = append(r.lat, float64(en-st)/1e3)
					r.at = append(r.at, st)
					gap := int64(time.Since(base)) - en
					r.late = append(r.late, float64(gap)/1e3)
				}
			}
			r.attempted = int(seq)
		}(w)
	}
	wg.Wait()
	res := merge(parts)
	res.dur, res.base, res.stride = time.Since(base), base, sampleEvery
	return res
}

func merge(parts []phaseResult) phaseResult {
	var res phaseResult
	for _, p := range parts {
		res.attempted += p.attempted
		res.failed += p.failed
		res.reads += p.reads
		res.hits += p.hits
		res.lat = append(res.lat, p.lat...)
		res.at = append(res.at, p.at...)
		res.late = append(res.late, p.late...)
		res.spans = append(res.spans, p.spans...)
		res.invalid += p.invalid
		if res.firstBad == nil {
			res.firstBad = p.firstBad
		}
	}
	return res
}
