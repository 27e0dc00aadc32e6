//go:build race

package netproto

// raceEnabled reports a -race build. The race detector makes sync.Pool drop
// items at random, so allocation checks over pooled buffers cannot hold.
const raceEnabled = true
