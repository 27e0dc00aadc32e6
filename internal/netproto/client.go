package netproto

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"sync/atomic"
	"time"

	"github.com/p4lru/p4lru/internal/netproto/batchio"
	"github.com/p4lru/p4lru/internal/quantile"
)

// Typed failure classes for exhausted query attempts, so callers holding a
// per-peer circuit breaker (the cluster router, a Loader over RemoteStore)
// can tell "node down" from "node slow" without string-matching — the same
// role resilience.ErrOpen plays for breaker rejections.
var (
	// ErrTimeout means every attempt ran out its reply deadline: the peer
	// is slow, overloaded, or silently gone (UDP cannot tell which).
	ErrTimeout = errors.New("netproto: no reply within the attempt budget")
	// ErrUnreachable means the socket layer rejected the exchange (e.g. a
	// connected UDP socket observing ICMP port-unreachable): the peer is
	// down, and the caller should fail fast rather than retry.
	ErrUnreachable = errors.New("netproto: peer unreachable")
)

// classifyAttempt wraps the last per-attempt error with the matching typed
// sentinel: timeouts stay ErrTimeout, anything the socket layer surfaced
// becomes ErrUnreachable.
func classifyAttempt(err error) error {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return fmt.Errorf("%w (last: %v)", ErrTimeout, err)
	}
	return fmt.Errorf("%w (last: %v)", ErrUnreachable, err)
}

// NoRetries is the ClientConfig.Retries sentinel for single-shot queries:
// one attempt, no re-send. (0 means "default", so single-shot needs its own
// spelling.)
const NoRetries = -1

// ClientConfig parameterizes NewClient. The zero value is a working
// configuration: 1024-key Zipf(1.1) workload, 500ms attempt timeout, 3
// retries with 10ms..200ms capped exponential backoff, 64-packet batches.
type ClientConfig struct {
	// Items bounds the workload key space (keys 1..Items; 0 = 1024, must
	// be ≥ 2).
	Items int
	// Skew is the Zipf exponent shaping key popularity (0 = 1.1, must be
	// > 1).
	Skew float64
	// Seed drives the workload and jitter randomness.
	Seed int64
	// Timeout bounds each attempt's wait for a reply (0 = 500ms).
	Timeout time.Duration
	// Retries is how many times a timed-out attempt is re-sent (0 = 3;
	// NoRetries = single-shot).
	Retries int
	// Backoff is the delay before the first re-send; it doubles per retry
	// up to BackoffCap (0s = 10ms and 200ms).
	Backoff    time.Duration
	BackoffCap time.Duration
	// Batch is QueryBatch's pipelining window: how many queries are in
	// flight per send batch (0 = 64).
	Batch int
}

func (c ClientConfig) withDefaults() (ClientConfig, error) {
	if c.Items == 0 {
		c.Items = 1024
	}
	if c.Items < 2 {
		return c, fmt.Errorf("netproto: ClientConfig.Items = %d, need ≥ 2", c.Items)
	}
	if c.Skew == 0 {
		c.Skew = 1.1
	}
	if c.Skew <= 1 {
		return c, fmt.Errorf("netproto: ClientConfig.Skew = %v, need > 1", c.Skew)
	}
	if c.Timeout == 0 {
		c.Timeout = 500 * time.Millisecond
	}
	if c.Timeout < 0 {
		return c, fmt.Errorf("netproto: ClientConfig.Timeout = %v, need > 0", c.Timeout)
	}
	switch {
	case c.Retries == 0:
		c.Retries = 3
	case c.Retries == NoRetries:
		c.Retries = 0
	case c.Retries < 0:
		return c, fmt.Errorf("netproto: ClientConfig.Retries = %d (use NoRetries for single-shot)", c.Retries)
	}
	if c.Backoff == 0 {
		c.Backoff = 10 * time.Millisecond
	}
	if c.BackoffCap == 0 {
		c.BackoffCap = 200 * time.Millisecond
	}
	if c.Backoff < 0 || c.BackoffCap < c.Backoff {
		return c, fmt.Errorf("netproto: backoff %v / cap %v out of order", c.Backoff, c.BackoffCap)
	}
	if c.Batch <= 0 {
		c.Batch = 64
	}
	return c, nil
}

// Client issues point queries through the switch and validates replies.
//
// UDP loses datagrams, so a round trip is an attempt, not a guarantee: each
// attempt waits cfg.Timeout for a matching reply, and a lost packet costs
// one attempt instead of failing the whole query — the request is re-sent
// up to cfg.Retries more times with capped exponential backoff plus jitter.
// Queries are idempotent reads and replies carry the key, so duplicate or
// stale replies from earlier attempts are filtered, never mismatched.
//
// Query is the closed-loop path: one packet in flight, its RTT is the
// latency floor. QueryBatch is the pipelined path: a whole window of
// queries rides one sendmmsg and their replies drain in batches, which is
// where the batched wire pays off. A Client is single-goroutine, like its
// workload rng.
type Client struct {
	conn  *net.UDPConn
	bconn *batchio.Conn
	cfg   ClientConfig
	rng   *rand.Rand
	zipf  *rand.Zipf

	// jitterRng drives backoff jitter; kept separate from the workload rng
	// so retries do not perturb the Zipf key sequence.
	jitterRng *rand.Rand

	// recvBuf is the persistent single-query receive buffer (the batched
	// rings serve QueryBatch): no per-attempt allocation on either path.
	recvBuf []byte
	// send/recv rings back QueryBatch.
	sendRing *batchio.Ring
	recvRing *batchio.Ring
	// done marks answered window positions across a QueryBatch chunk.
	done []bool

	resends atomic.Int64
}

// NewClient dials the switch with the given configuration.
func NewClient(switchAddr *net.UDPAddr, cfg ClientConfig) (*Client, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	conn, err := net.DialUDP("udp", nil, switchAddr)
	if err != nil {
		return nil, fmt.Errorf("netproto: dial switch: %w", err)
	}
	bconn, err := batchio.NewConn(conn)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("netproto: batch conn: %w", err)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	return &Client{
		conn:      conn,
		bconn:     bconn,
		cfg:       cfg,
		rng:       rng,
		zipf:      rand.NewZipf(rng, cfg.Skew, 1, uint64(cfg.Items-1)),
		jitterRng: rand.New(rand.NewSource(cfg.Seed ^ 0x6a177e12)),
		recvBuf:   make([]byte, packetBufSize),
		sendRing:  batchio.NewRing(cfg.Batch, packetBufSize),
		recvRing:  batchio.NewRing(cfg.Batch, packetBufSize),
		done:      make([]bool, cfg.Batch),
	}, nil
}

// Config returns the client's resolved (defaulted) configuration.
func (c *Client) Config() ClientConfig { return c.cfg }

// Close releases the socket.
func (c *Client) Close() error { return c.conn.Close() }

// Resends returns the number of re-sent requests (attempts beyond each
// query's first).
func (c *Client) Resends() int64 { return c.resends.Load() }

// QueryResult is one completed round trip.
type QueryResult struct {
	Key     uint64
	Index   uint64 // the resolved database index the reply carried
	Latency time.Duration
	Cached  bool // the switch resolved the index
	Valid   bool // the value matched the expected contents
}

// Query performs one synchronous query for key, retrying lost datagrams.
func (c *Client) Query(key uint64) (QueryResult, error) {
	return c.QueryContext(context.Background(), key)
}

// QueryContext is Query bounded by ctx: cancellation is checked between
// attempts and caps each attempt's read deadline.
func (c *Client) QueryContext(ctx context.Context, key uint64) (QueryResult, error) {
	start := time.Now()
	backoff := c.cfg.Backoff
	var lastErr error
	for attempt := 0; attempt <= c.cfg.Retries; attempt++ {
		if attempt > 0 {
			c.resends.Add(1)
			d := c.jitter(backoff)
			select {
			case <-time.After(d):
			case <-ctx.Done():
				return QueryResult{}, ctx.Err()
			}
			backoff *= 2
			if backoff > c.cfg.BackoffCap {
				backoff = c.cfg.BackoffCap
			}
		}
		res, err := c.attempt(ctx, key, start)
		if err == nil {
			return res, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return QueryResult{}, ctx.Err()
		}
	}
	return QueryResult{}, fmt.Errorf("netproto: query %d failed after %d attempts: %w",
		key, c.cfg.Retries+1, classifyAttempt(lastErr))
}

// jitter spreads a backoff delay over [d/2, d].
func (c *Client) jitter(d time.Duration) time.Duration {
	if d > 1 {
		d = d/2 + time.Duration(c.jitterRng.Int63n(int64(d/2)+1))
	}
	return d
}

// attempt sends the request once and waits up to cfg.Timeout (clamped by
// ctx's deadline) for a matching reply.
func (c *Client) attempt(ctx context.Context, key uint64, start time.Time) (QueryResult, error) {
	n := PutQuery(c.recvBuf, key)
	if _, err := c.conn.Write(c.recvBuf[:n]); err != nil {
		return QueryResult{}, fmt.Errorf("netproto: send: %w", err)
	}

	deadline := time.Now().Add(c.cfg.Timeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	if err := c.conn.SetReadDeadline(deadline); err != nil {
		return QueryResult{}, err
	}
	for {
		n, err := c.conn.Read(c.recvBuf)
		if err != nil {
			return QueryResult{}, fmt.Errorf("netproto: recv: %w", err)
		}
		var msg Message
		if err := msg.Unmarshal(c.recvBuf[:n]); err != nil || msg.Type != MsgReply {
			continue
		}
		if msg.Key != key {
			continue // stale reply from an earlier timed-out query
		}
		return QueryResult{
			Key:     key,
			Index:   msg.CachedIndex,
			Latency: time.Since(start),
			Cached:  msg.CachedFlag != 0,
			Valid:   validValue(key, msg.Value),
		}, nil
	}
}

// validValue checks a reply payload against the kvindex arena contents.
func validValue(key uint64, value []byte) bool {
	return len(value) >= 8 && binary.LittleEndian.Uint64(value) == key^0xbadc0ffee
}

// QueryBatch resolves keys[i] into results[i] with up to cfg.Batch queries
// in flight at once: each window rides one batched send, replies drain in
// batched reads, and only the keys still missing after a timeout are
// re-sent (a partial batch), with the same per-attempt retry budget as
// Query. It returns the number of keys answered; err is non-nil only for
// socket-level failures — an exhausted retry budget just leaves those
// results zero-valued (check QueryResult.Key). Duplicate keys are fine:
// each reply fills the first still-unanswered position for its key.
func (c *Client) QueryBatch(keys []uint64, results []QueryResult) (int, error) {
	if len(results) < len(keys) {
		return 0, fmt.Errorf("netproto: QueryBatch: %d results for %d keys", len(results), len(keys))
	}
	answered := 0
	for base := 0; base < len(keys); base += c.cfg.Batch {
		end := base + c.cfg.Batch
		if end > len(keys) {
			end = len(keys)
		}
		n, err := c.queryWindow(keys[base:end], results[base:end])
		answered += n
		if err != nil {
			return answered, err
		}
	}
	return answered, nil
}

// queryWindow runs one pipelined window (≤ cfg.Batch keys): send all
// missing queries as one batch, drain replies until the window is full or
// the attempt times out, repeat with backoff up to the retry budget.
func (c *Client) queryWindow(keys []uint64, results []QueryResult) (int, error) {
	start := time.Now()
	done := c.done[:len(keys)]
	for i := range done {
		done[i] = false
	}
	answered := 0
	backoff := c.cfg.Backoff
	for attempt := 0; attempt <= c.cfg.Retries && answered < len(keys); attempt++ {
		if attempt > 0 {
			time.Sleep(c.jitter(backoff))
			backoff *= 2
			if backoff > c.cfg.BackoffCap {
				backoff = c.cfg.BackoffCap
			}
		}
		// Send every still-missing key as one batch — the partial-batch
		// re-send after loss.
		ds := c.sendRing.Datagrams()
		pending := 0
		for i, k := range keys {
			if done[i] {
				continue
			}
			if attempt > 0 {
				c.resends.Add(1)
			}
			ds[pending].N = PutQuery(ds[pending].Buf, k)
			ds[pending].Addr = netip.AddrPort{} // zero = the connected peer
			pending++
		}
		if _, err := c.bconn.WriteBatch(c.sendRing, pending); err != nil {
			return answered, fmt.Errorf("netproto: batch send: %w", err)
		}
		deadline := time.Now().Add(c.cfg.Timeout)
		for answered < len(keys) {
			if err := c.bconn.SetReadDeadline(deadline); err != nil {
				return answered, err
			}
			got, err := c.bconn.ReadBatch(c.recvRing)
			if err != nil {
				if ne, ok := err.(net.Error); ok && ne.Timeout() {
					break // attempt over; re-send the stragglers
				}
				return answered, fmt.Errorf("netproto: batch recv: %w", err)
			}
			rds := c.recvRing.Datagrams()
			for j := 0; j < got; j++ {
				var msg Message
				if err := msg.Unmarshal(rds[j].Bytes()); err != nil || msg.Type != MsgReply {
					continue
				}
				// First unanswered position holding this key gets the
				// reply; extras (duplicates of an earlier attempt) fall
				// through harmlessly.
				for i, k := range keys {
					if done[i] || k != msg.Key {
						continue
					}
					done[i] = true
					answered++
					results[i] = QueryResult{
						Key:     msg.Key,
						Index:   msg.CachedIndex,
						Latency: time.Since(start),
						Cached:  msg.CachedFlag != 0,
						Valid:   validValue(msg.Key, msg.Value),
					}
					break
				}
			}
		}
	}
	for i := range keys {
		if !done[i] {
			results[i] = QueryResult{}
		}
	}
	return answered, nil
}

// NextKey draws the next Zipf-popular key (1-based).
func (c *Client) NextKey() uint64 { return c.zipf.Uint64() + 1 }

// RunStats aggregates a Run. Latency is reported as streaming P² quantiles
// (internal/quantile), not just a mean: the batched wire path's win shows
// up in the tail, and a mean hides the retrans/backoff outliers entirely.
type RunStats struct {
	Queries  int
	Cached   int
	Invalid  int
	Failures int
	AvgRTT   time.Duration
	P50      time.Duration
	P99      time.Duration
	P999     time.Duration
}

// latencyTrack is the per-run quantile state behind RunStats.
type latencyTrack struct {
	p50, p99, p999 *quantile.Estimator
	total          time.Duration
	n              int
}

func newLatencyTrack() *latencyTrack {
	return &latencyTrack{p50: quantile.New(0.5), p99: quantile.New(0.99), p999: quantile.New(0.999)}
}

func (l *latencyTrack) observe(d time.Duration) {
	l.n++
	l.total += d
	ns := float64(d)
	l.p50.Add(ns)
	l.p99.Add(ns)
	l.p999.Add(ns)
}

func (l *latencyTrack) fill(st *RunStats) {
	if l.n == 0 {
		return
	}
	st.AvgRTT = l.total / time.Duration(l.n)
	st.P50 = time.Duration(l.p50.Value())
	st.P99 = time.Duration(l.p99.Value())
	st.P999 = time.Duration(l.p999.Value())
}

// Run performs count closed-loop queries.
func (c *Client) Run(count int) RunStats {
	var st RunStats
	lat := newLatencyTrack()
	for i := 0; i < count; i++ {
		res, err := c.Query(c.NextKey())
		if err != nil {
			st.Failures++
			continue
		}
		st.Queries++
		lat.observe(res.Latency)
		if res.Cached {
			st.Cached++
		}
		if !res.Valid {
			st.Invalid++
		}
	}
	lat.fill(&st)
	return st
}
