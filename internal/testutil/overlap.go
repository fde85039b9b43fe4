package testutil

import (
	"sync"
	"sync/atomic"
	"time"
)

// Overlap instruments byte-level handlers (the rpcx.Handler shape) to record
// how many invocations are active at once. The first invocation that finds
// itself alone waits, bounded, for a second to arrive before it runs, so a
// caller able to keep two calls in flight provably does — and one that
// serializes its calls shows a peak of 1 instead of overlapping by luck.
type Overlap struct {
	active, peak atomic.Int64
	two          chan struct{}
	once         sync.Once
}

// NewOverlap returns an empty recorder.
func NewOverlap() *Overlap { return &Overlap{two: make(chan struct{})} }

// Peak returns the most invocations that were active together.
func (o *Overlap) Peak() int { return int(o.peak.Load()) }

// Wrap returns h with every invocation counted while it runs.
func (o *Overlap) Wrap(h func([]byte) ([]byte, error)) func([]byte) ([]byte, error) {
	return func(p []byte) ([]byte, error) {
		n := o.active.Add(1)
		defer o.active.Add(-1)
		for {
			old := o.peak.Load()
			if n <= old || o.peak.CompareAndSwap(old, n) {
				break
			}
		}
		if n >= 2 {
			o.once.Do(func() { close(o.two) })
		}
		select {
		case <-o.two:
		case <-time.After(time.Second):
			o.once.Do(func() { close(o.two) }) // nobody came: stop holding
		}
		return h(p)
	}
}
