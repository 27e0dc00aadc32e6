// Package batchio is the batched-socket layer under the netproto fast path:
// many UDP datagrams per syscall in both directions, over rings of reusable
// packet buffers, so the wire cost of serving scales with batches instead of
// packets.
//
// The paper's pipeline (§1.2) processes one packet per clock because every
// stage sees a steady stream of packets, not one packet per invocation; the
// software analogue is recvmmsg/sendmmsg, which hand the kernel a whole
// vector of datagrams per crossing. On Linux (amd64/arm64) ReadBatch and
// WriteBatch issue one recvmmsg/sendmmsg for up to Ring.Len() datagrams,
// integrated with the runtime poller through syscall.RawConn so read
// deadlines and Close keep their net.Conn semantics. Everywhere else — and
// on Linux when built with the `p4lru_portable_net` tag — the same API runs
// over ReadMsgUDPAddrPort/WriteToUDPAddrPort, one datagram per call: the
// single-packet baseline, bit-identical wire behaviour, no batching.
//
// A Ring owns its packet buffers and the per-slot syscall scaffolding
// (iovecs, mmsghdrs, sockaddr storage); nothing on the ReadBatch/WriteBatch
// path allocates. Addresses travel as netip.AddrPort values — comparable,
// pointer-free, safe to copy out of a ring slot before the slot is reused.
//
// ListenReuse completes the layer: N listener sockets bound to one address
// with SO_REUSEPORT, so the kernel fans flows out across per-core reader
// goroutines without a userspace dispatcher. Where SO_REUSEPORT is
// unavailable it returns a single socket for the callers to share.
package batchio

import (
	"net"
	"net/netip"
	"time"
)

// Datagram is one ring slot: a reusable packet buffer plus the peer address.
// After ReadBatch, Buf[:N] holds the payload and Addr the source; before
// WriteBatch, the caller sets N (payload length in Buf) and Addr (the
// destination; the zero AddrPort means "the connected peer").
//
// Datagrams are plain values: swapping two slots (Ring.Swap) just exchanges
// slice headers and scalars, which is how callers compact a batch in place —
// drop malformed packets by swapping keepers to the front.
type Datagram struct {
	Buf  []byte
	N    int
	Addr netip.AddrPort
}

// Bytes returns the valid payload, Buf[:N].
func (d *Datagram) Bytes() []byte { return d.Buf[:d.N] }

// Ring is a fixed set of Datagram slots plus the preallocated syscall
// scaffolding a batched read or write needs. A Ring is owned by one goroutine
// at a time; it can be handed between conns (read a batch from one socket,
// write the same buffers out another) but not used concurrently.
type Ring struct {
	ds  []Datagram
	sys ringSys
	// dirty bounds the slots whose syscall scaffolding may no longer match
	// a read: [0, dirty) is what the last read, write or Swap touched.
	dirty int
}

// NewRing builds a ring of n datagram slots with bufSize-byte buffers
// (n 0 = 64 slots, bufSize 0 = 2048 bytes).
func NewRing(n, bufSize int) *Ring {
	if n <= 0 {
		n = 64
	}
	if bufSize <= 0 {
		bufSize = 2048
	}
	r := &Ring{ds: make([]Datagram, n), dirty: n}
	for i := range r.ds {
		r.ds[i].Buf = make([]byte, bufSize)
	}
	r.sys.init(n)
	return r
}

// Datagrams exposes the slots for in-place decode and compaction.
func (r *Ring) Datagrams() []Datagram { return r.ds }

// Len returns the slot count — the maximum batch per Read/WriteBatch.
func (r *Ring) Len() int { return len(r.ds) }

// Swap exchanges two slots (compaction: keep valid packets contiguous).
// It is the only way to move a slot's Buf: the ring re-arms what it swaps.
func (r *Ring) Swap(i, j int) {
	r.ds[i], r.ds[j] = r.ds[j], r.ds[i]
	r.dirty = max(r.dirty, i+1, j+1)
}

// Conn wraps a *net.UDPConn with batched reads and writes against a Ring.
// Deadlines and Close act on the underlying conn exactly as for net.UDPConn:
// a read deadline kicks a blocked ReadBatch out with a timeout error, Close
// surfaces net.ErrClosed.
type Conn struct {
	uc  *net.UDPConn
	sys connSys
}

// NewConn wraps uc for batched I/O.
func NewConn(uc *net.UDPConn) (*Conn, error) {
	c := &Conn{uc: uc}
	if err := c.sys.init(uc); err != nil {
		return nil, err
	}
	return c, nil
}

// UDP returns the wrapped conn (for LocalAddr, deadlines, options).
func (c *Conn) UDP() *net.UDPConn { return c.uc }

// SetReadDeadline bounds blocked ReadBatch calls.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.uc.SetReadDeadline(t) }

// Close closes the underlying socket; blocked batch calls return net.ErrClosed.
func (c *Conn) Close() error { return c.uc.Close() }

// Batched reports whether this build moves multi-datagram batches per
// syscall (recvmmsg/sendmmsg) or falls back to one datagram per call.
func Batched() bool { return batched }
