package batchio

import (
	"bytes"
	"fmt"
	"net"
	"net/netip"
	"reflect"
	"testing"
	"time"
)

func listenLocal(t *testing.T) *net.UDPConn {
	t.Helper()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return pc.(*net.UDPConn)
}

// TestRoundTrip pushes a full ring of distinct datagrams through WriteBatch
// and drains them with ReadBatch, checking payloads and source addresses.
func TestRoundTrip(t *testing.T) {
	rx := listenLocal(t)
	defer rx.Close()
	tx := listenLocal(t)
	defer tx.Close()

	txc, err := NewConn(tx)
	if err != nil {
		t.Fatal(err)
	}
	rxc, err := NewConn(rx)
	if err != nil {
		t.Fatal(err)
	}

	const n = 16
	dst := rx.LocalAddr().(*net.UDPAddr).AddrPort()
	want := netip.AddrPortFrom(dst.Addr().Unmap(), dst.Port())
	out := NewRing(n, 512)
	for i, d := range out.Datagrams() {
		payload := []byte(fmt.Sprintf("datagram-%02d", i))
		copy(d.Buf, payload)
		out.Datagrams()[i].N = len(payload)
		out.Datagrams()[i].Addr = want
	}
	if sent, err := txc.WriteBatch(out, n); err != nil || sent != n {
		t.Fatalf("WriteBatch = %d, %v; want %d, nil", sent, err, n)
	}

	in := NewRing(n, 512)
	seen := make(map[string]bool)
	src := netip.AddrPortFrom(
		tx.LocalAddr().(*net.UDPAddr).AddrPort().Addr().Unmap(),
		tx.LocalAddr().(*net.UDPAddr).AddrPort().Port())
	deadline := time.Now().Add(5 * time.Second)
	for len(seen) < n {
		rxc.SetReadDeadline(deadline)
		got, err := rxc.ReadBatch(in)
		if err != nil {
			t.Fatalf("ReadBatch after %d/%d datagrams: %v", len(seen), n, err)
		}
		for _, d := range in.Datagrams()[:got] {
			if d.Addr != src {
				t.Fatalf("source addr %v, want %v", d.Addr, src)
			}
			seen[string(d.Bytes())] = true
		}
	}
	for i := 0; i < n; i++ {
		if !seen[fmt.Sprintf("datagram-%02d", i)] {
			t.Fatalf("payload %d never arrived; got %v", i, seen)
		}
	}
}

// TestRingReuseAfterSwap checks the invariant the zero-copy decode path
// leans on: after compaction swaps slots around, the next ReadBatch writes
// into whatever buffer each slot now holds — no stale aliases.
func TestRingReuseAfterSwap(t *testing.T) {
	rx := listenLocal(t)
	defer rx.Close()
	tx := listenLocal(t)
	defer tx.Close()
	txc, _ := NewConn(tx)
	rxc, _ := NewConn(rx)

	dst := rx.LocalAddr().(*net.UDPAddr).AddrPort()
	r := NewRing(4, 128)

	send := func(msg string) {
		out := NewRing(1, 128)
		d := out.Datagrams()
		copy(d[0].Buf, msg)
		d[0].N = len(msg)
		d[0].Addr = netip.AddrPortFrom(dst.Addr().Unmap(), dst.Port())
		if _, err := txc.WriteBatch(out, 1); err != nil {
			t.Fatal(err)
		}
	}
	recvOne := func() []byte {
		rxc.SetReadDeadline(time.Now().Add(5 * time.Second))
		got, err := rxc.ReadBatch(r)
		if err != nil {
			t.Fatal(err)
		}
		if got < 1 {
			t.Fatal("empty batch")
		}
		return r.Datagrams()[0].Bytes()
	}

	send("first-payload")
	first := append([]byte(nil), recvOne()...)

	// Shuffle the ring as a compaction pass would, then reuse it. Slots 1
	// and 2 took no datagram above, so only the swap tells the ring that
	// their buffers moved.
	r.Swap(0, 3)
	r.Swap(1, 2)

	want := []string{"second-payload", "third-payload!", "fourth-payload"}
	for _, msg := range want {
		send(msg)
	}
	var got []string
	for len(got) < len(want) {
		rxc.SetReadDeadline(time.Now().Add(5 * time.Second))
		n, err := rxc.ReadBatch(r)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range r.Datagrams()[:n] {
			got = append(got, string(d.Bytes()))
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("after swaps the ring read %q, want %q", got, want)
	}
	if !bytes.Equal(first, []byte("first-payload")) {
		t.Fatalf("copied-out first payload mutated to %q", first)
	}
}

// TestRingReadAfterWrite covers a ring that both reads and writes, as a
// server's does: a write leaves short lengths and destinations in the slots
// it sent, and the next read into those slots must still take full-size
// datagrams with their sources.
func TestRingReadAfterWrite(t *testing.T) {
	a := listenLocal(t)
	defer a.Close()
	b := listenLocal(t)
	defer b.Close()
	ac, _ := NewConn(a)
	aAddr := a.LocalAddr().(*net.UDPAddr)
	bAddr := b.LocalAddr().(*net.UDPAddr).AddrPort()
	bAddr = netip.AddrPortFrom(bAddr.Addr().Unmap(), bAddr.Port())
	r := NewRing(4, 128)
	ds := r.Datagrams()
	read := func(want []byte, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := b.WriteToUDP(want, aAddr); err != nil {
				t.Fatal(err)
			}
		}
		for n > 0 {
			ac.SetReadDeadline(time.Now().Add(5 * time.Second))
			got, err := ac.ReadBatch(r)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range ds[:got] {
				if !bytes.Equal(d.Bytes(), want) || d.Addr != bAddr {
					t.Fatalf("read %d bytes from %v, want %d from %v", d.N, d.Addr, len(want), bAddr)
				}
			}
			n -= got
		}
	}

	// One read first, so that only the write below marks slot 1.
	read([]byte("warm"), 1)
	for i := 0; i < 2; i++ {
		ds[i].N = copy(ds[i].Buf, "hi")
		ds[i].Addr = bAddr
	}
	if sent, err := ac.WriteBatch(r, 2); err != nil || sent != 2 {
		t.Fatalf("WriteBatch = %d, %v; want 2, nil", sent, err)
	}
	read(bytes.Repeat([]byte("x"), 100), 2)
}

// TestBatchPairZeroAlloc pins the package promise that nothing on the
// ReadBatch/WriteBatch path allocates: one datagram written and read back
// over loopback, the shape a request/response server sees at low load.
func TestBatchPairZeroAlloc(t *testing.T) {
	rx := listenLocal(t)
	defer rx.Close()
	tx := listenLocal(t)
	defer tx.Close()
	txc, _ := NewConn(tx)
	rxc, _ := NewConn(rx)

	dst := rx.LocalAddr().(*net.UDPAddr).AddrPort()
	out, in := NewRing(4, 128), NewRing(64, 128)
	d := &out.Datagrams()[0]
	d.N = copy(d.Buf, "ping")
	d.Addr = netip.AddrPortFrom(dst.Addr().Unmap(), dst.Port())
	pair := func() {
		if _, err := txc.WriteBatch(out, 1); err != nil {
			t.Fatal(err)
		}
		rxc.SetReadDeadline(time.Now().Add(5 * time.Second))
		if got, err := rxc.ReadBatch(in); err != nil || got != 1 {
			t.Fatalf("ReadBatch = %d, %v; want 1, nil", got, err)
		}
	}
	pair()
	if n := testing.AllocsPerRun(200, pair); n != 0 {
		t.Errorf("a WriteBatch + ReadBatch pair allocates %v times, want 0", n)
	}
}

// TestReadDeadline checks a blocked ReadBatch honours the conn deadline.
func TestReadDeadline(t *testing.T) {
	rx := listenLocal(t)
	defer rx.Close()
	c, err := NewConn(rx)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRing(4, 128)
	c.SetReadDeadline(time.Now().Add(30 * time.Millisecond))
	start := time.Now()
	_, err = c.ReadBatch(r)
	if err == nil {
		t.Fatal("ReadBatch returned without data or deadline error")
	}
	ne, ok := err.(net.Error)
	if !ok || !ne.Timeout() {
		t.Fatalf("want timeout error, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline took %v to fire", elapsed)
	}
}

// TestListenReuse verifies every conn shares one port and any of them
// receives traffic aimed at that port.
func TestListenReuse(t *testing.T) {
	conns, err := ListenReuse("127.0.0.1:0", 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range conns {
		defer c.Close()
	}
	if Batched() && len(conns) != 4 {
		t.Fatalf("batched build returned %d conns, want 4", len(conns))
	}
	port := conns[0].LocalAddr().(*net.UDPAddr).Port
	for i, c := range conns {
		if p := c.LocalAddr().(*net.UDPAddr).Port; p != port {
			t.Fatalf("conn %d bound port %d, want %d", i, p, port)
		}
	}

	tx := listenLocal(t)
	defer tx.Close()
	dst := conns[0].LocalAddr().(*net.UDPAddr)
	stop := make(chan struct{})
	hits := make(chan int, 64)
	for i, c := range conns {
		bc, err := NewConn(c)
		if err != nil {
			t.Fatal(err)
		}
		go func(idx int, bc *Conn) {
			r := NewRing(8, 256)
			for {
				bc.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
				got, err := bc.ReadBatch(r)
				if err != nil {
					select {
					case <-stop:
						return
					default:
						continue
					}
				}
				for j := 0; j < got; j++ {
					hits <- idx
				}
			}
		}(i, bc)
	}
	const packets = 32
	for i := 0; i < packets; i++ {
		if _, err := tx.WriteToUDP([]byte("ping"), dst); err != nil {
			t.Fatal(err)
		}
	}
	received := 0
	timeout := time.After(5 * time.Second)
	for received < packets {
		select {
		case <-hits:
			received++
		case <-timeout:
			t.Fatalf("received %d/%d packets across reuse group", received, packets)
		}
	}
	close(stop)
}
