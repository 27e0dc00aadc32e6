// Package netproto is a wire-level deployment of the LruIndex protocol
// (§3.2) over UDP: a client, an in-network switch middlebox holding the
// series-connected P4LRU cache, and a database server.
//
// The paper's packets carry two extra header fields, cached_flag and
// cached_index; this package defines that header, a Server that answers
// queries (skipping its B+ tree walk when the index comes pre-resolved), a
// Switch that proxies packets while maintaining the cache exactly as §3.2
// prescribes (read-only on the query path, mutating on the reply path), and
// a Client driver.
//
// Everything binds to caller-supplied addresses (use "127.0.0.1:0" in
// tests); components run until Close.
package netproto

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// MsgType discriminates protocol messages.
type MsgType uint8

// Message types.
const (
	// MsgQuery travels client → switch → server.
	MsgQuery MsgType = 1
	// MsgReply travels server → switch → client, carrying the value and
	// the resolved index.
	MsgReply MsgType = 2

	// The cluster tier's peer protocol (node ↔ node / router ↔ node).

	// MsgPing is a heartbeat probe; Key carries an echo nonce.
	MsgPing MsgType = 3
	// MsgPong answers a ping, echoing the nonce in Key.
	MsgPong MsgType = 4
	// MsgUpdate installs (Key → CachedIndex) into the node's engine
	// synchronously; the ack is the durability point the router's
	// zero-lost-acknowledged-updates contract hangs off.
	MsgUpdate MsgType = 5
	// MsgUpdateAck confirms an update was applied, echoing Key and, in
	// CachedIndex, the value applied; a client accepts only the ack that
	// echoes the value it sent.
	MsgUpdateAck MsgType = 6
	// MsgMigratePull opens a migration stream (TCP): the header is followed
	// by uint32 n and n 16-byte (from, to] hash arcs; the node answers with
	// a range-filtered snapshot image and a MsgMigrateDone trailer.
	MsgMigratePull MsgType = 7
	// MsgMigratePush offers a snapshot stream (TCP): the header is followed
	// by a snapshot image the node restores; it answers MsgMigrateDone.
	MsgMigratePush MsgType = 8
	// MsgMigrateDone closes a migration exchange: CachedIndex carries the
	// pair count, CachedFlag 1 on success / 0 on failure.
	MsgMigrateDone MsgType = 9
	// MsgGossip carries a membership digest (UDP): Key is an echo nonce,
	// CachedIndex the sender's membership table version, and the payload an
	// encoded MemberDigest list. The receiver merges it and answers
	// MsgGossipAck with its own digest — one exchange moves information both
	// ways, SWIM-style.
	MsgGossip MsgType = 10
	// MsgGossipAck answers a gossip exchange, echoing the nonce in Key and
	// carrying the responder's digest as payload.
	MsgGossipAck MsgType = 11
)

// Wire layout (little endian):
//
//	offset size field
//	0      2    magic 0x4C50 ("PL")
//	2      1    version (1)
//	3      1    type
//	4      1    cached_flag (0 = not cached, i = series level)
//	5      3    reserved
//	8      8    key
//	16     8    cached_index
//	24     ...  value (replies only)
const (
	headerSize  = 24
	wireMagic   = 0x4C50
	wireVersion = 1
)

// Message is one protocol packet.
type Message struct {
	Type        MsgType
	CachedFlag  uint8
	Key         uint64
	CachedIndex uint64
	Value       []byte // replies only
}

// ErrBadMessage reports a malformed packet.
var ErrBadMessage = errors.New("netproto: bad message")

// Marshal encodes m into a fresh buffer.
func (m *Message) Marshal() []byte {
	buf := make([]byte, headerSize+len(m.Value))
	binary.LittleEndian.PutUint16(buf[0:2], wireMagic)
	buf[2] = wireVersion
	buf[3] = byte(m.Type)
	buf[4] = m.CachedFlag
	binary.LittleEndian.PutUint64(buf[8:16], m.Key)
	binary.LittleEndian.PutUint64(buf[16:24], m.CachedIndex)
	copy(buf[headerSize:], m.Value)
	return buf
}

// putHeader encodes the fixed header into buf (which the batched path
// reuses, so the reserved bytes are explicitly zeroed).
func putHeader(buf []byte, typ MsgType, flag uint8, key, index uint64) {
	binary.LittleEndian.PutUint16(buf[0:2], wireMagic)
	buf[2] = wireVersion
	buf[3] = byte(typ)
	buf[4] = flag
	buf[5], buf[6], buf[7] = 0, 0, 0
	binary.LittleEndian.PutUint64(buf[8:16], key)
	binary.LittleEndian.PutUint64(buf[16:24], index)
}

// PutQuery encodes a MsgQuery for key into buf (≥ header size), returning
// the packet length — the allocation-free encoder the batched client uses.
func PutQuery(buf []byte, key uint64) int {
	putHeader(buf, MsgQuery, 0, key, 0)
	return headerSize
}

// PutReply encodes a MsgReply into buf, returning the packet length. The
// server's batched loop rewrites each query packet into its reply in the
// same ring slot with this.
func PutReply(buf []byte, flag uint8, key, index uint64, value []byte) int {
	putHeader(buf, MsgReply, flag, key, index)
	return headerSize + copy(buf[headerSize:], value)
}

// PatchCached rewrites the cached_flag / cached_index fields of an encoded
// packet in place — the switch's zero-copy forward: a query datagram is
// stamped and sent on without ever being re-marshalled.
func PatchCached(buf []byte, flag uint8, index uint64) {
	buf[4] = flag
	binary.LittleEndian.PutUint64(buf[16:24], index)
}

// Unmarshal decodes a packet into m. The value slice aliases data.
func (m *Message) Unmarshal(data []byte) error {
	if len(data) < headerSize {
		return fmt.Errorf("%w: %d bytes", ErrBadMessage, len(data))
	}
	if binary.LittleEndian.Uint16(data[0:2]) != wireMagic {
		return fmt.Errorf("%w: bad magic", ErrBadMessage)
	}
	if data[2] != wireVersion {
		return fmt.Errorf("%w: version %d", ErrBadMessage, data[2])
	}
	switch MsgType(data[3]) {
	case MsgQuery, MsgReply, MsgPing, MsgPong, MsgUpdate, MsgUpdateAck,
		MsgMigratePull, MsgMigratePush, MsgMigrateDone,
		MsgGossip, MsgGossipAck:
		m.Type = MsgType(data[3])
	default:
		return fmt.Errorf("%w: type %d", ErrBadMessage, data[3])
	}
	m.CachedFlag = data[4]
	m.Key = binary.LittleEndian.Uint64(data[8:16])
	m.CachedIndex = binary.LittleEndian.Uint64(data[16:24])
	m.Value = data[headerSize:]
	return nil
}
