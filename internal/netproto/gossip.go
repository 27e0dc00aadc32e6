package netproto

import (
	"encoding/binary"
	"fmt"
)

// This file is the membership-gossip half of the cluster peer wire: the
// digest entry format piggybacked on the UDP heartbeat plane (MsgGossip /
// MsgGossipAck). netproto only moves the bytes — the merge semantics
// (incarnation precedence, suspicion, refutation) live in internal/cluster,
// which hands the server a callback. The anti-entropy sweep needs no wire
// of its own: it compares replicas with the ordinary MsgQuery point read.

// Member status codes carried in a digest entry. Larger wins at equal
// incarnation, so a death verdict beats a suspicion beats liveness, and a
// deliberate departure is terminal.
const (
	MemberAlive   uint8 = 0
	MemberSuspect uint8 = 1
	MemberDead    uint8 = 2
	MemberLeft    uint8 = 3
)

// MemberDigest is one gossiped membership entry: who, where, and the
// (incarnation, status) pair SWIM-style merge rules order verdicts by.
// UDPAddr/TCPAddr are the member's node-server planes ("" when the member is
// an in-process peer reached through a resolver instead of a dialer).
type MemberDigest struct {
	ID          string
	UDPAddr     string
	TCPAddr     string
	Status      uint8
	Incarnation uint64
}

// MaxGossipEntries bounds one datagram's digest: entries are length-prefixed
// strings (id + two addresses) plus 10 fixed bytes, so 40 entries of
// realistic ids/addresses stay well inside the 2KiB packet buffer. Senders
// with larger tables must select which entries to ship (the cluster layer
// prefers recently-changed ones).
const MaxGossipEntries = 40

// appendMemberDigests encodes entries after buf's header: uint16 count, then
// per entry u8-length-prefixed id/udp/tcp, status byte, uint64 incarnation.
// Returns the extended buffer or an error when an entry cannot fit.
func appendMemberDigests(buf []byte, entries []MemberDigest) ([]byte, error) {
	if len(entries) > MaxGossipEntries {
		return nil, fmt.Errorf("netproto: %d gossip entries exceeds the %d-entry datagram bound",
			len(entries), MaxGossipEntries)
	}
	var n [2]byte
	binary.LittleEndian.PutUint16(n[:], uint16(len(entries)))
	buf = append(buf, n[:]...)
	for _, e := range entries {
		if len(e.ID) > 255 || len(e.UDPAddr) > 255 || len(e.TCPAddr) > 255 {
			return nil, fmt.Errorf("netproto: gossip entry %q has a field over 255 bytes", e.ID)
		}
		buf = append(buf, uint8(len(e.ID)))
		buf = append(buf, e.ID...)
		buf = append(buf, uint8(len(e.UDPAddr)))
		buf = append(buf, e.UDPAddr...)
		buf = append(buf, uint8(len(e.TCPAddr)))
		buf = append(buf, e.TCPAddr...)
		buf = append(buf, e.Status)
		var inc [8]byte
		binary.LittleEndian.PutUint64(inc[:], e.Incarnation)
		buf = append(buf, inc[:]...)
	}
	if len(buf) > packetBufSize {
		return nil, fmt.Errorf("netproto: gossip digest of %d bytes exceeds the packet buffer", len(buf))
	}
	return buf, nil
}

// parseMemberDigests decodes appendMemberDigests' payload.
func parseMemberDigests(data []byte) ([]MemberDigest, error) {
	if len(data) < 2 {
		return nil, fmt.Errorf("%w: gossip payload of %d bytes", ErrBadMessage, len(data))
	}
	n := int(binary.LittleEndian.Uint16(data[:2]))
	if n > MaxGossipEntries {
		return nil, fmt.Errorf("%w: %d gossip entries", ErrBadMessage, n)
	}
	data = data[2:]
	takeStr := func() (string, bool) {
		if len(data) < 1 {
			return "", false
		}
		l := int(data[0])
		if len(data) < 1+l {
			return "", false
		}
		s := string(data[1 : 1+l])
		data = data[1+l:]
		return s, true
	}
	out := make([]MemberDigest, 0, n)
	for i := 0; i < n; i++ {
		var e MemberDigest
		var ok bool
		if e.ID, ok = takeStr(); !ok {
			return nil, fmt.Errorf("%w: truncated gossip entry", ErrBadMessage)
		}
		if e.UDPAddr, ok = takeStr(); !ok {
			return nil, fmt.Errorf("%w: truncated gossip entry", ErrBadMessage)
		}
		if e.TCPAddr, ok = takeStr(); !ok {
			return nil, fmt.Errorf("%w: truncated gossip entry", ErrBadMessage)
		}
		if len(data) < 9 {
			return nil, fmt.Errorf("%w: truncated gossip entry", ErrBadMessage)
		}
		e.Status = data[0]
		e.Incarnation = binary.LittleEndian.Uint64(data[1:9])
		data = data[9:]
		out = append(out, e)
	}
	return out, nil
}
