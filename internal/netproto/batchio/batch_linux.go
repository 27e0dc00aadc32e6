//go:build linux && (amd64 || arm64) && !p4lru_portable_net

package batchio

import (
	"net"
	"net/netip"
	"syscall"
	"unsafe"
)

const batched = true

// mmsghdr mirrors struct mmsghdr. Go pads the struct to 8-byte alignment on
// 64-bit arches, matching the kernel's layout (64 bytes with a 56-byte
// Msghdr); no explicit pad field so the declaration stays arch-agnostic.
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
}

// ringSys holds the per-slot syscall scaffolding: one iovec, one mmsghdr and
// one sockaddr buffer per datagram slot, preallocated so batch calls touch
// no heap. The poller callbacks are built once per ring, and one call's
// arguments and results live beside them: a closure built per call would
// move it and its captured results to the heap on every batch.
type ringSys struct {
	hdrs []mmsghdr
	iov  []syscall.Iovec
	rsa  []syscall.RawSockaddrAny

	n, done    int           // slots the current call moves; slots moved
	errno      syscall.Errno // the current call's failure, if any
	recv, send func(fd uintptr) bool
}

func (s *ringSys) init(n int) {
	s.hdrs = make([]mmsghdr, n)
	s.iov = make([]syscall.Iovec, n)
	s.rsa = make([]syscall.RawSockaddrAny, n)
	for i := range s.hdrs {
		s.hdrs[i].hdr.Iov = &s.iov[i]
		s.hdrs[i].hdr.Iovlen = 1
	}
	s.recv = func(fd uintptr) bool { return s.call(fd, sysRecvmmsg) }
	s.send = func(fd uintptr) bool { return s.call(fd, sysSendmmsg) }
}

// call runs recvmmsg or sendmmsg over slots [done, n) until all n moved,
// one read returned, or the call failed. It reports false to park on the
// poller until the socket is ready. A partial send resumes from the first
// unsent header.
func (s *ringSys) call(fd, trap uintptr) bool {
	for s.done < s.n {
		rn, _, errno := syscall.Syscall6(trap, fd,
			uintptr(unsafe.Pointer(&s.hdrs[s.done])), uintptr(s.n-s.done),
			uintptr(syscall.MSG_DONTWAIT), 0, 0)
		switch errno {
		case 0:
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			return false
		default:
			s.errno = errno
			return true
		}
		s.done += int(rn)
		if trap == sysRecvmmsg {
			return true // one read is a batch: never wait for a full ring
		}
	}
	return true
}

// connSys carries the RawConn used to run recvmmsg/sendmmsg inside the
// runtime poller's Read/Write callbacks.
type connSys struct {
	rc syscall.RawConn
}

func (s *connSys) init(uc *net.UDPConn) error {
	rc, err := uc.SyscallConn()
	if err != nil {
		return err
	}
	s.rc = rc
	return nil
}

// ReadBatch fills r with up to r.Len() datagrams in one recvmmsg call,
// returning the count. It blocks (honouring the conn's read deadline) until
// at least one datagram arrives.
func (c *Conn) ReadBatch(r *Ring) (int, error) {
	s := &r.sys
	for i := 0; i < r.dirty; i++ {
		// Re-arm the slots the last read, write or Swap touched: a swap
		// moves Buf slices between slots, a write points the header at its
		// destination, and the kernel clobbers Namelen on each read.
		s.iov[i].Base = &r.ds[i].Buf[0]
		s.iov[i].SetLen(len(r.ds[i].Buf))
		s.hdrs[i].hdr.Name = (*byte)(unsafe.Pointer(&s.rsa[i]))
		s.hdrs[i].hdr.Namelen = syscall.SizeofSockaddrAny
	}
	r.dirty = 0
	s.n, s.done, s.errno = len(r.ds), 0, 0
	err := c.sys.rc.Read(s.recv)
	if err == nil && s.errno != 0 {
		err = &net.OpError{Op: "recvmmsg", Net: "udp", Addr: c.uc.LocalAddr(), Err: s.errno}
	}
	if err != nil {
		return 0, err
	}
	got := s.done
	for i := 0; i < got; i++ {
		r.ds[i].N = int(s.hdrs[i].n)
		r.ds[i].Addr = sockaddrToAddrPort(&s.rsa[i])
	}
	r.dirty = got
	return got, nil
}

// WriteBatch sends the first n datagrams of r, looping sendmmsg until the
// whole batch is on the wire. A slot with the zero Addr is sent to the
// connected peer.
func (c *Conn) WriteBatch(r *Ring, n int) (int, error) {
	if n <= 0 {
		return 0, nil
	}
	s := &r.sys
	for i := 0; i < n; i++ {
		s.iov[i].Base = &r.ds[i].Buf[0]
		s.iov[i].SetLen(r.ds[i].N)
		if r.ds[i].Addr.IsValid() {
			salen := addrPortToSockaddr(r.ds[i].Addr, &s.rsa[i])
			s.hdrs[i].hdr.Name = (*byte)(unsafe.Pointer(&s.rsa[i]))
			s.hdrs[i].hdr.Namelen = salen
		} else {
			s.hdrs[i].hdr.Name = nil
			s.hdrs[i].hdr.Namelen = 0
		}
	}
	r.dirty = max(r.dirty, n)
	s.n, s.done, s.errno = n, 0, 0
	err := c.sys.rc.Write(s.send)
	if err == nil && s.errno != 0 {
		err = &net.OpError{Op: "sendmmsg", Net: "udp", Addr: c.uc.LocalAddr(), Err: s.errno}
	}
	return s.done, err
}

// sockaddrToAddrPort decodes a kernel-filled sockaddr into a netip.AddrPort,
// unmapping v4-in-v6 so addresses compare equal across socket families.
func sockaddrToAddrPort(rsa *syscall.RawSockaddrAny) netip.AddrPort {
	switch rsa.Addr.Family {
	case syscall.AF_INET:
		sa := (*syscall.RawSockaddrInet4)(unsafe.Pointer(rsa))
		port := ntohs(sa.Port)
		return netip.AddrPortFrom(netip.AddrFrom4(sa.Addr), port)
	case syscall.AF_INET6:
		sa := (*syscall.RawSockaddrInet6)(unsafe.Pointer(rsa))
		port := ntohs(sa.Port)
		return netip.AddrPortFrom(netip.AddrFrom16(sa.Addr).Unmap(), port)
	}
	return netip.AddrPort{}
}

// addrPortToSockaddr encodes ap into rsa, returning the sockaddr length.
func addrPortToSockaddr(ap netip.AddrPort, rsa *syscall.RawSockaddrAny) uint32 {
	if ap.Addr().Is4() {
		sa := (*syscall.RawSockaddrInet4)(unsafe.Pointer(rsa))
		*sa = syscall.RawSockaddrInet4{Family: syscall.AF_INET}
		sa.Addr = ap.Addr().As4()
		sa.Port = htons(ap.Port())
		return syscall.SizeofSockaddrInet4
	}
	sa := (*syscall.RawSockaddrInet6)(unsafe.Pointer(rsa))
	*sa = syscall.RawSockaddrInet6{Family: syscall.AF_INET6}
	sa.Addr = ap.Addr().As16()
	sa.Port = htons(ap.Port())
	return syscall.SizeofSockaddrInet6
}

// htons/ntohs convert a port between host order and the sockaddr's
// big-endian field without depending on host endianness: the uint16 is
// viewed as raw bytes.
func htons(p uint16) uint16 {
	var v uint16
	b := (*[2]byte)(unsafe.Pointer(&v))
	b[0] = byte(p >> 8)
	b[1] = byte(p)
	return v
}

func ntohs(p uint16) uint16 {
	b := (*[2]byte)(unsafe.Pointer(&p))
	return uint16(b[0])<<8 | uint16(b[1])
}

// soReusePort is unix.SO_REUSEPORT; the frozen syscall package predates it.
const soReusePort = 0xf

// ListenReuse binds n UDP sockets to addr with SO_REUSEPORT so the kernel
// spreads inbound flows across them — the per-core listener fan-out. With a
// ":0" addr the first bind picks the port and the rest join it.
func ListenReuse(addr string, n int) ([]*net.UDPConn, error) {
	if n <= 0 {
		n = 1
	}
	lc := net.ListenConfig{Control: func(network, address string, c syscall.RawConn) error {
		var serr error
		if err := c.Control(func(fd uintptr) {
			serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, soReusePort, 1)
		}); err != nil {
			return err
		}
		return serr
	}}
	conns := make([]*net.UDPConn, 0, n)
	for i := 0; i < n; i++ {
		pc, err := lc.ListenPacket(nil, "udp", addr)
		if err != nil {
			for _, c := range conns {
				c.Close()
			}
			return nil, err
		}
		uc := pc.(*net.UDPConn)
		conns = append(conns, uc)
		if i == 0 {
			// Later binds must hit the same resolved port.
			addr = uc.LocalAddr().String()
		}
	}
	return conns, nil
}
