package netproto

import (
	"errors"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/p4lru/p4lru/internal/netproto/batchio"
	"github.com/p4lru/p4lru/internal/obs/span"
)

// handler serves one batch in place, the software counterpart of one
// pipeline pass per packet (§1.2): the ring's first got slots hold the
// datagrams just read. It rewrites each datagram it answers or forwards
// (payload, N and destination Addr), moves those to the front of the ring
// with Ring.Swap, leaves each one's open span at the same index of spans,
// and returns how many it kept. Dropped datagrams are simply not kept.
type handler func(ring *batchio.Ring, got int, spans []span.Span) int

// planeBatch is the ring size of a Switch or Server reader: the most
// datagrams one recvmmsg or sendmmsg moves.
const planeBatch = 64

// nodeBatch is a NodeServer reader's ring size: a node's clients keep one
// request in flight each, so a read finds a few datagrams at most, and each
// slot costs a packetBufSize buffer when the node starts.
const nodeBatch = 8

// planeRcvBuf is the receive buffer every plane socket asks for. At the
// common 208 KiB default a loopback socket queues only about 256 small
// datagrams, tens of milliseconds of load, so a short host stall drops
// traffic; the kernel caps the request at net.core.rmem_max.
const planeRcvBuf = 4 << 20

// plane is the serving half every UDP server here shares (Switch, Server,
// NodeServer): it owns the sockets, runs one batched read → handle → write
// loop per reader, counts what the loops move, and closes by draining.
type plane struct {
	conns     []*batchio.Conn
	wg        sync.WaitGroup
	closed    atomic.Bool
	closeOnce sync.Once
	closeErr  error

	recvBatches, recvPackets, sent atomic.Int64
}

// planeReaders is the reader count per socket group: GOMAXPROCS, at least
// 2 and at most 8.
func planeReaders() int { return min(max(runtime.GOMAXPROCS(0), 2), 8) }

// listen binds the SO_REUSEPORT group at addr, one socket per reader, so
// the kernel fans flows across readers (one shared socket where the
// platform lacks SO_REUSEPORT; the readers then share it).
func (p *plane) listen(addr string) ([]*batchio.Conn, error) {
	ucs, err := batchio.ListenReuse(addr, planeReaders())
	if err != nil {
		return nil, err
	}
	return p.adopt(ucs...)
}

// listenAndServe binds the group at addr and runs planeReaders() readers
// over it, each with a ring of batch slots and sending h's replies out of
// the socket it read from.
func (p *plane) listenAndServe(addr string, batch int, h handler, kind span.Kind) error {
	conns, err := p.listen(addr)
	if err != nil {
		return err
	}
	for i := 0; i < planeReaders(); i++ {
		c := conns[i%len(conns)]
		p.serve(c, c, batch, h, kind)
	}
	return nil
}

// adopt takes ownership of ucs: each gets the plane's receive buffer and a
// batched wrapper, and close closes it. On error every one of ucs is closed.
func (p *plane) adopt(ucs ...*net.UDPConn) ([]*batchio.Conn, error) {
	conns := make([]*batchio.Conn, len(ucs))
	for i, uc := range ucs {
		_ = uc.SetReadBuffer(planeRcvBuf) // best effort: a smaller buffer only drops sooner
		var err error
		if conns[i], err = batchio.NewConn(uc); err != nil {
			for _, uc := range ucs {
				uc.Close()
			}
			return nil, err
		}
	}
	p.conns = append(p.conns, conns...)
	return conns, nil
}

// addr returns the first adopted socket's address: the listen group's,
// for a server that listens before it adopts anything else.
func (p *plane) addr() *net.UDPAddr { return p.conns[0].UDP().LocalAddr().(*net.UDPAddr) }

// keepSlot moves slot i, which a handler keeps, to the front position keep
// with its span, and returns the next front position.
func keepSlot(ring *batchio.Ring, spans []span.Span, keep, i int, sp span.Span) int {
	if keep != i {
		ring.Swap(keep, i)
	}
	spans[keep] = sp
	return keep + 1
}

// serve starts one reader: it reads batches of up to batch datagrams from
// in, has h rewrite each in place, writes what h kept to out in one call,
// and finishes each sent datagram's span as kind once the write returns.
func (p *plane) serve(in, out *batchio.Conn, batch int, h handler, kind span.Kind) {
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		ring := batchio.NewRing(batch, packetBufSize)
		spans := make([]span.Span, batch)
		for {
			got, err := in.ReadBatch(ring)
			if err != nil {
				if p.closed.Load() || errors.Is(err, net.ErrClosed) {
					return
				}
				continue
			}
			p.recvBatches.Add(1)
			p.recvPackets.Add(int64(got))
			keep := h(ring, got, spans)
			if keep == 0 {
				continue
			}
			sent, werr := out.WriteBatch(ring, keep)
			p.sent.Add(int64(sent))
			for i := 0; i < sent; i++ {
				spans[i].Mark(span.StageWire)
				spans[i].Finish(kind)
			}
			if werr != nil && p.closed.Load() {
				return
			}
		}
	}()
}

// close stops the readers and then the sockets, in that order: a read
// deadline kicks every reader out of its blocked read, the wait lets each
// finish the batch it holds and send its replies, and only then do the
// sockets close. Closing them first would race the handlers against the
// dying sockets and lose replies. Later calls wait for the first.
func (p *plane) close() error {
	p.closeOnce.Do(func() {
		p.closed.Store(true)
		now := time.Now()
		for _, c := range p.conns {
			_ = c.SetReadDeadline(now)
		}
		p.wg.Wait()
		for _, c := range p.conns {
			if err := c.Close(); err != nil && p.closeErr == nil {
				p.closeErr = err
			}
		}
	})
	return p.closeErr
}
