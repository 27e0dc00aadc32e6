//go:build !linux

package main

import "time"

// pacerValid is false here: time.Sleep wakes up to a millisecond late, so
// open-loop latencies and the knee are not comparable with Linux numbers.
const pacerValid = false

type pacer struct{}

func newPacer() *pacer { return &pacer{} }

func (p *pacer) close() {}

func (p *pacer) sleepUntil(t time.Time) { time.Sleep(time.Until(t)) }

// threadID cannot name a thread portably; with pacerValid false the timing
// wrapper attributes no calls.
func threadID() int { return 0 }
