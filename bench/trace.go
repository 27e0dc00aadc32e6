package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"github.com/p4lru/p4lru/internal/cluster"
)

// epoch is the origin of every span timestamp a run writes.
var epoch = time.Now()

// spanRec is one recorded interval: an end-to-end op, or a call made on its
// behalf (parent op). Times are ns since epoch.
type spanRec struct {
	name       string
	op         int64
	start, end int64
}

// opSpans returns the traced phase's op spans on the epoch clock. Traced
// workers recorded theirs; for the wire generator every answered request
// is one, from its intended send time to its reply.
func opSpans(p *phaseResult) []spanRec {
	off := int64(p.base.Sub(epoch))
	spans := p.spans
	if spans == nil {
		for i, l := range p.lat {
			if !math.IsInf(l, 1) {
				spans = append(spans, spanRec{name: "op", op: int64(i), start: p.at[i], end: p.at[i] + int64(l*1e3)})
			}
		}
	}
	for i := range spans {
		spans[i].start += off
		spans[i].end += off
	}
	return spans
}

// writeSpans dumps spans as CSV to dir/spans-<workload>.csv.
func writeSpans(dir, workload string, spans []spanRec) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "spans-"+workload+".csv"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name,op,start_ns,end_ns")
	for _, s := range spans {
		fmt.Fprintf(w, "%s,%d,%d,%d\n", s.name, s.op, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceSummary is what the timing wrapper recorded for one worker, or for
// all of them.
type traceSummary struct {
	wireCalls int // peer calls inside recorded ops that went to a netproto.NodeClient
	ops       int
	callUs    []float64 // wire call durations
	selfUs    []float64 // op time minus the op's peer-call time
	peerUs    []float64 // the op's peer-call time
	spans     []spanRec
}

// workerTrace is one load worker's view of the peer calls it made. Only
// tid is shared; everything else is touched by the worker's own goroutine.
type workerTrace struct {
	tid       atomic.Int64
	recording bool
	op        int64
	peerNs    int64
	traceSummary
}

// peerRecorder attributes peer calls to the load worker that made them.
// Each worker runs on a locked OS thread, so the calling thread's ID names
// the worker; calls from the router's background goroutines (heartbeats,
// repair, hint replay) match no worker and pass through untimed.
type peerRecorder struct {
	workers []*workerTrace
}

func newPeerRecorder(n int) *peerRecorder {
	r := &peerRecorder{}
	for i := 0; i < n; i++ {
		r.workers = append(r.workers, &workerTrace{})
	}
	return r
}

func (r *peerRecorder) current() *workerTrace {
	if !pacerValid {
		return nil
	}
	tid := int64(threadID())
	for _, w := range r.workers {
		if w.tid.Load() == tid && w.recording {
			return w
		}
	}
	return nil
}

func (r *peerRecorder) hooks() *workerHooks {
	return &workerHooks{
		start: func(w, tid int) { r.workers[w].tid.Store(int64(tid)) },
		begin: func(w int, op int64) {
			wt := r.workers[w]
			wt.recording, wt.op, wt.peerNs = true, op, 0
		},
		end: func(w int, _ int64, st, en int64) {
			wt := r.workers[w]
			wt.recording = false
			wt.ops++
			wt.selfUs = append(wt.selfUs, float64(en-st-wt.peerNs)/1e3)
			wt.peerUs = append(wt.peerUs, float64(wt.peerNs)/1e3)
		},
	}
}

// wrap returns p behind a timing wrapper; wire marks a netproto peer.
func (r *peerRecorder) wrap(p cluster.Peer, wire bool) cluster.Peer {
	return &timedPeer{Peer: p, rec: r, wire: wire}
}

// summary folds every worker's record into one.
func (r *peerRecorder) summary() traceSummary {
	var s traceSummary
	for _, w := range r.workers {
		s.wireCalls += w.wireCalls
		s.ops += w.ops
		s.callUs = append(s.callUs, w.callUs...)
		s.selfUs = append(s.selfUs, w.selfUs...)
		s.peerUs = append(s.peerUs, w.peerUs...)
		s.spans = append(s.spans, w.spans...)
	}
	return s
}

// timedPeer times the router's point operations on a peer. Wrapping hides
// the concrete *cluster.LocalPeer, so the router takes its interface path
// instead of its devirtualized in-process one; the traced run pays that.
type timedPeer struct {
	cluster.Peer
	rec  *peerRecorder
	wire bool
}

func (p *timedPeer) record(w *workerTrace, name string, s, e time.Time) {
	d := int64(e.Sub(s))
	w.peerNs += d
	if p.wire {
		w.wireCalls++
		w.callUs = append(w.callUs, float64(d)/1e3)
	}
	w.spans = append(w.spans, spanRec{name: name, op: w.op, start: int64(s.Sub(epoch)), end: int64(e.Sub(epoch))})
}

func (p *timedPeer) Query(key uint64) (uint64, bool, error) {
	w := p.rec.current()
	if w == nil {
		return p.Peer.Query(key)
	}
	s := time.Now()
	v, ok, err := p.Peer.Query(key)
	p.record(w, "peer.query", s, time.Now())
	return v, ok, err
}

func (p *timedPeer) Update(key, val uint64) error {
	w := p.rec.current()
	if w == nil {
		return p.Peer.Update(key, val)
	}
	s := time.Now()
	err := p.Peer.Update(key, val)
	p.record(w, "peer.update", s, time.Now())
	return err
}
