// Package limit provides an adaptive (AIMD) concurrency limiter: a
// semaphore whose capacity grows additively while completions are
// comfortable and collapses multiplicatively on congestion signals
// (timeouts, budget refusals, overload rejections). It is the serving
// layer's self-protection against unbounded in-flight work — instead of
// queueing overload as goroutines and heap, dispatch past the learned
// limit is refused and shed at admission, the same shape as TCP's
// congestion control and the AIMD limiters in Netflix's concurrency-limits.
package limit

import (
	"sync"
	"time"

	"murmuration/internal/fault"
)

// ErrLimited is the target for errors.Is when an acquisition is refused
// because the adaptive limit is saturated. It is an overload shed — never a
// link or device fault: nothing failed, the system refused to take on work
// it could not finish.
var ErrLimited = fault.New(fault.Load, "limit: concurrency limit reached")

// Outcome classifies how a released slot's work ended, driving the AIMD
// dynamics. It is the fault policy table's limiter column, so a caller
// releases with fault.Of(err).Policy().Limiter and no translation.
type Outcome = fault.Limiter

const (
	// OK is a comfortable completion: the limit grows additively
	// (one slot per full window of successes).
	OK = fault.LimiterOK
	// Congested is a congestion signal — timeout, budget refusal, overload
	// rejection, or a misbehaving peer: the limit is cut multiplicatively.
	Congested = fault.LimiterCongested
	// Neutral releases the slot without moving the limit (application-level
	// failures that say nothing about load).
	Neutral = fault.LimiterNeutral
)

// Options configures an AIMD limiter. Zero values select the defaults.
type Options struct {
	// Min and Max bound the limit (defaults 1 and 64). The limit can never
	// be cut below Min, so progress is always possible.
	Min, Max int
	// Start is the initial limit (default 8, clamped into [Min, Max]).
	Start int
	// Backoff is the multiplicative-decrease factor applied on a congestion
	// signal (default 0.7).
	Backoff float64
	// CutCooldown is the minimum spacing between multiplicative cuts
	// (default 100ms): a burst of N concurrent timeouts is one congestion
	// event, not N — without the cooldown one bad batch would collapse the
	// limit straight to Min.
	CutCooldown time.Duration
}

func (o Options) withDefaults() Options {
	if o.Min <= 0 {
		o.Min = 1
	}
	if o.Max <= 0 {
		o.Max = 64
	}
	if o.Max < o.Min {
		o.Max = o.Min
	}
	if o.Start <= 0 {
		o.Start = 8
	}
	if o.Start < o.Min {
		o.Start = o.Min
	}
	if o.Start > o.Max {
		o.Start = o.Max
	}
	if o.Backoff <= 0 || o.Backoff >= 1 {
		o.Backoff = 0.7
	}
	if o.CutCooldown <= 0 {
		o.CutCooldown = 100 * time.Millisecond
	}
	return o
}

// Stats is a point-in-time snapshot of a limiter.
type Stats struct {
	// Limit is the current integer limit; Inflight the held slots.
	Limit, Inflight int
	// Sheds counts refused acquisitions, Cuts multiplicative decreases,
	// Grows full additive steps (+1 slot each).
	Sheds, Cuts, Grows uint64
}

// AIMD is an adaptive concurrency limiter. Safe for concurrent use.
type AIMD struct {
	mu   sync.Mutex
	cond *sync.Cond
	// wake broadcasts cond under mu. A waiter holds mu until Wait parks it, so
	// a timer running wake cannot fire between the waiter arming it and
	// registering on cond — the wakeup a bare cond.Broadcast can lose.
	wake func()
	opts Options

	// limit is fractional so additive increase can accumulate +1/limit per
	// comfortable completion (one full slot per window of successes).
	limit    float64
	inflight int
	lastCut  time.Time

	sheds, cuts, grows uint64
}

// New creates a limiter.
func New(opts Options) *AIMD {
	l := &AIMD{opts: opts.withDefaults()}
	l.limit = float64(l.opts.Start)
	l.cond = sync.NewCond(&l.mu)
	l.wake = func() {
		l.mu.Lock()
		l.cond.Broadcast()
		l.mu.Unlock()
	}
	return l
}

// TryAcquire takes a slot if one is free under the current limit; it never
// blocks.
func (l *AIMD) TryAcquire() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.inflight >= int(l.limit) {
		l.sheds++
		return false
	}
	l.inflight++
	return true
}

// AcquireWait takes a slot, waiting up to maxWait for one to free up. It
// reports false when the limit stayed saturated for the whole wait — the
// caller should shed (ErrLimited) rather than queue further.
func (l *AIMD) AcquireWait(maxWait time.Duration) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.inflight < int(l.limit) {
		l.inflight++
		return true
	}
	if maxWait <= 0 {
		l.sheds++
		return false
	}
	deadline := time.Now().Add(maxWait)
	for l.inflight >= int(l.limit) {
		now := time.Now()
		if !now.Before(deadline) {
			l.sheds++
			return false
		}
		// Cond has no timed wait: a timer broadcast bounds the sleep (the
		// same idiom the serving layer's batch linger uses).
		t := time.AfterFunc(deadline.Sub(now), l.wake)
		l.cond.Wait()
		t.Stop()
	}
	l.inflight++
	return true
}

// Release returns a slot and folds the work's outcome into the limit: OK
// grows it additively (+1 per limit completions), Congested cuts it
// multiplicatively (rate-limited by CutCooldown), Neutral leaves it alone.
func (l *AIMD) Release(o Outcome) {
	l.mu.Lock()
	if l.inflight > 0 {
		l.inflight--
	}
	switch o {
	case OK:
		before := int(l.limit)
		l.limit += 1 / l.limit
		if l.limit > float64(l.opts.Max) {
			l.limit = float64(l.opts.Max)
		}
		if int(l.limit) > before {
			l.grows++
		}
	case Congested:
		l.cutLocked()
	}
	l.mu.Unlock()
	l.cond.Broadcast()
}

// Cut applies an external congestion signal not tied to a held slot (e.g. a
// queue overflowing upstream of the limiter).
func (l *AIMD) Cut() {
	l.mu.Lock()
	l.cutLocked()
	l.mu.Unlock()
}

// cutLocked performs one multiplicative decrease, at most once per
// CutCooldown. Caller holds l.mu.
func (l *AIMD) cutLocked() {
	now := time.Now()
	if now.Sub(l.lastCut) < l.opts.CutCooldown {
		return
	}
	l.lastCut = now
	l.limit *= l.opts.Backoff
	if l.limit < float64(l.opts.Min) {
		l.limit = float64(l.opts.Min)
	}
	l.cuts++
}

// Reset restores the limit to its starting value and clears the cut
// cooldown, waking any blocked acquirers. The serving layer calls it when a
// device is reinstated after an outage or completes health reintegration:
// the old limit was learned against a failing device, and making the
// recovered one climb back additively from a collapsed limit would throttle
// it for no reason. Lifetime counters and in-flight slots are preserved.
func (l *AIMD) Reset() {
	l.mu.Lock()
	l.limit = float64(l.opts.Start)
	l.lastCut = time.Time{}
	l.mu.Unlock()
	l.cond.Broadcast()
}

// Limit returns the current integer limit.
func (l *AIMD) Limit() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return int(l.limit)
}

// Inflight returns the number of held slots.
func (l *AIMD) Inflight() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.inflight
}

// Snapshot returns the limiter's counters and gauges.
func (l *AIMD) Snapshot() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{
		Limit: int(l.limit), Inflight: l.inflight,
		Sheds: l.sheds, Cuts: l.cuts, Grows: l.grows,
	}
}
