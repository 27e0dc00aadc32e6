package policy

// Token is the typed query→update ticket that replaces the old opaque
// `flag int` in the Cache interface. It carries policy-private residency
// state from a read-only Query to the Update that completes the same
// logical access — the software form of the cached_flag header field the
// paper's packets carry between the query and reply pipeline passes (§3.2).
//
// The series-connection contract: a series-connected cache returns the
// 1-based level that held the key (NoToken on a miss), and the caller must
// hand exactly that token back to Update for the same key so the reply path
// can promote in place (token = level i) or insert at level 1 and cascade
// demotions (token = NoToken). Tokens are not transferable between keys and
// not durable across intervening updates: like the wire header, a token is
// consumed by the single Update it was issued for. Every non-series policy
// issues NoToken and ignores the token on Update.
type Token uint8

// NoToken is the zero Token: the key was not resident at Query time (or the
// policy does not use tokens). It matches the wire encoding cached_flag = 0.
const NoToken Token = 0

// Cached reports whether the token signals residency at Query time.
func (t Token) Cached() bool { return t != NoToken }

// Level returns the 1-based series level the token encodes, or 0 for
// NoToken. For non-series policies this is always 0.
func (t Token) Level() int { return int(t) }

// levelIn returns the level t names in a series of the given depth, or 0
// (NoToken) when it names none. A reply's token arrives from the wire as
// cached_flag, so a forged or corrupt one is treated as absent — the reply
// inserts at level 1 like any miss — instead of reaching the lru series'
// range panic, which stays the contract for direct callers.
func (t Token) levelIn(levels int) int {
	if l := t.Level(); l <= levels {
		return l
	}
	return NoToken.Level()
}
