package engine

import (
	"context"
	"time"

	"github.com/p4lru/p4lru/internal/backing"
	"github.com/p4lru/p4lru/internal/obs/span"
	"github.com/p4lru/p4lru/internal/policy"
	"github.com/p4lru/p4lru/internal/resilience"
)

// Tiered couples an Engine with a backing.Loader into a look-through
// serving pair: Query hits serve from the cache tier at full speed (the
// zero-alloc engine read path, untouched), and misses go to the backing
// store through the loader — coalesced, bounded, retried — with successful
// fetches installed back into the engine via the batch path.
//
// The division of labour mirrors the paper's deployments: the engine is the
// switch (fast, bounded, never blocks on the backend) and the Store is the
// server behind it. When the store degrades, the engine keeps answering
// hits; only misses pay, and they fail fast once the loader's retry budget
// is spent — or in a single check once the loader's circuit breaker has
// opened (backing.LoaderConfig.Breaker).
//
// When the engine is built with a resilience.Shedder, the miss path is also
// the first rung of its degradation ladder: GetOrLoad asks the shedder at
// PriLow before fetching (hits are never gated — the hit path stays the
// zero-alloc Query), and every miss's end-to-end latency feeds the
// shedder's EWMA, so a slow backend raises the pressure that sheds work.
//
// Write-behind is wired at engine construction, not here: build the engine
// with Config.OnEvict = (*backing.WriteBehind).OnEvict so evictions drain
// into the store.
type Tiered struct {
	*Engine
	loader *backing.Loader
}

// NewTiered builds the pairing. cfg.Fill is chained, not replaced: the
// loader first installs each fetched value into the engine (Submit through
// the batch path, tolerating drop-mode shedding), then calls any
// caller-supplied Fill.
func NewTiered(e *Engine, store backing.Store, cfg backing.LoaderConfig) *Tiered {
	t := &Tiered{Engine: e}
	userFill := cfg.Fill
	cfg.Fill = func(key, val uint64) {
		t.Engine.Submit(Op{Key: key, Value: val, Token: policy.NoToken, Now: t.Engine.Now()})
		if userFill != nil {
			userFill(key, val)
		}
	}
	t.loader = backing.NewLoader(store, cfg)
	return t
}

// Loader exposes the miss path (for stats and direct loads).
func (t *Tiered) Loader() *backing.Loader { return t.loader }

// GetOrLoad serves key look-through: a cache hit returns immediately with
// hit=true and the policy's token (callers that promote on hit pass it back
// via Submit); a miss fetches through the loader, installs on success and
// returns the fetched value with hit=false. The error is the loader's —
// backing.ErrNotFound for definitive misses, a retry-budget failure when
// the store is down, backing.ErrCircuitOpen when the breaker rejected the
// fetch, resilience.ErrShed when the engine's shedder declined the miss at
// the current pressure, or ctx's error.
func (t *Tiered) GetOrLoad(ctx context.Context, key uint64) (val uint64, tok policy.Token, hit bool, err error) {
	tr := t.Engine.cfg.Span
	if !tr.Enabled() {
		// The untraced fast path: exactly the pre-tracing code.
		if v, tok, ok := t.Engine.Query(key); ok {
			return v, tok, true, nil
		}
		v, err := t.load(ctx, key, nil)
		return v, policy.NoToken, false, err
	}

	sp := tr.Start(0, key)
	if v, tok, ok := t.Engine.QuerySpanned(key, &sp); ok {
		sp.SetFlags(span.FlagHit)
		sp.Finish(span.KindHit)
		return v, tok, true, nil
	}
	v, err := t.load(ctx, key, &sp)
	sp.Mark(span.StageMiss) // install + shedder bookkeeping after the fetch
	switch {
	case err == nil:
		sp.Finish(span.KindMiss)
	case err == resilience.ErrShed:
		sp.SetFlags(span.FlagShed)
		sp.Finish(span.KindShed)
	default:
		sp.SetFlags(span.FlagError)
		sp.Finish(span.KindMissFail)
	}
	return v, policy.NoToken, false, err
}

// load is the shared miss path: shedder admission at PriLow, the loader
// fetch (spanned when sp is non-nil), and the miss-latency EWMA feedback.
func (t *Tiered) load(ctx context.Context, key uint64, sp *span.Span) (uint64, error) {
	if sh := t.Engine.cfg.Shedder; sh != nil {
		if !sh.Admit(resilience.PriLow, 0) {
			return 0, resilience.ErrShed
		}
		start := time.Now()
		v, err := t.loader.GetSpanned(ctx, key, sp)
		sh.Observe(time.Since(start))
		return v, err
	}
	return t.loader.GetSpanned(ctx, key, sp)
}
