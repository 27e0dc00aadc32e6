package main

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// pacerValid reports whether the pacer wakes close enough to its deadlines
// for open-loop latencies to be trusted.
const pacerValid = true

// pacer sleeps until the next arrival on a timerfd read through the runtime
// poller. time.Sleep wakes up to a millisecond late on this kernel; the
// timerfd, which has no timer slack, wakes within about 10–20 µs. Reading
// it through the poller parks the goroutine and frees its P for the system
// under test; a nanosleep would hold the P for the whole sleep, leaving the
// stack one of two cores whenever the other is idle.
//
// A pacer is used by one goroutine at a time. If the timerfd cannot be
// made or armed, it falls back to time.Sleep and says so on stderr.
type pacer struct {
	f  *os.File // nil: time.Sleep fallback
	fd uintptr
}

const clockMonotonic = 1

func newPacer() *pacer {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		fmt.Fprintf(os.Stderr, "bench: timerfd_create: %v; pacing with time.Sleep\n", errno)
		return &pacer{}
	}
	return &pacer{f: os.NewFile(fd, "pacer"), fd: fd}
}

func (p *pacer) close() {
	if p.f != nil {
		p.f.Close()
	}
}

// sleepUntil blocks the calling goroutine until t.
func (p *pacer) sleepUntil(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	if p.f != nil {
		its := [2]syscall.Timespec{{}, syscall.NsecToTimespec(int64(d))} // interval, value
		_, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, p.fd, 0, uintptr(unsafe.Pointer(&its)), 0, 0, 0)
		if errno == 0 {
			var buf [8]byte
			_, _ = p.f.Read(buf[:]) // returns at expiry
			return
		}
		fmt.Fprintf(os.Stderr, "bench: timerfd_settime: %v; pacing with time.Sleep\n", errno)
		p.close()
		p.f = nil
	}
	time.Sleep(d)
}

// threadID identifies the calling OS thread. A goroutine locked to its
// thread is named by the thread ID: in the traced run the timing wrapper
// uses it to tell a load worker's peer calls from the router's background
// calls.
func threadID() int { return syscall.Gettid() }
