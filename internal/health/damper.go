package health

import (
	"math"
	"sync"
	"time"
)

// Flap damping, after BGP route-flap damping (RFC 2439): every membership
// flip of a device adds a fixed penalty to that device's figure of merit; the
// penalty decays exponentially with a configured half-life. While the penalty
// is above the suppress threshold the device is held down — reinstatement is
// refused even though the failure detector says Up — and it is released only
// once the penalty has decayed below the reuse threshold and a minimum
// hold-down has elapsed. A device cycling leave/join every few hundred
// milliseconds therefore converges to "out" instead of thrashing the strategy
// cache, the wait estimates, and the AIMD limiters faster than they converge.

// flipPenalty is the penalty added per membership flip.
const flipPenalty = 1000

// maxPenaltyFactor caps the accumulated penalty at this multiple of
// SuppressThreshold, so the worst-case hold-down after a long flap storm
// stays bounded.
const maxPenaltyFactor = 8

// DamperOptions configures a Damper. Zero values select the defaults.
type DamperOptions struct {
	// SuppressThreshold is the figure of merit at which a device is held
	// down (default 2500 — i.e. the third flip inside one half-life).
	SuppressThreshold float64
	// ReuseThreshold is the figure of merit below which a suppressed device
	// becomes reusable again (default 800).
	ReuseThreshold float64
	// HalfLife is the penalty's exponential-decay half-life (default 10s).
	HalfLife time.Duration
	// HoldDown is the minimum suppression time once triggered (default 1s):
	// even a penalty that would decay across ReuseThreshold quickly cannot
	// release the device sooner.
	HoldDown time.Duration
}

func (o DamperOptions) withDefaults() DamperOptions {
	if o.SuppressThreshold <= 0 {
		o.SuppressThreshold = 2500
	}
	if o.ReuseThreshold <= 0 || o.ReuseThreshold >= o.SuppressThreshold {
		o.ReuseThreshold = o.SuppressThreshold * 0.32
	}
	if o.HalfLife <= 0 {
		o.HalfLife = 10 * time.Second
	}
	if o.HoldDown <= 0 {
		o.HoldDown = time.Second
	}
	return o
}

// damped is the damper state for one device.
type damped struct {
	penalty    float64
	lastDecay  time.Time
	suppressed bool
	holdUntil  time.Time
	flips      uint64
}

// Damper is a per-device flap damper on an explicit clock: callers pass now
// to every method, so tests drive it on a synthetic timeline with no sleeps.
// Safe for concurrent use.
type Damper struct {
	opts DamperOptions

	mu   sync.Mutex
	devs []*damped

	suppressions uint64
}

// NewDamper creates a damper over n devices.
func NewDamper(n int, opts DamperOptions) *Damper {
	d := &Damper{opts: opts.withDefaults(), devs: make([]*damped, n)}
	for i := range d.devs {
		d.devs[i] = &damped{}
	}
	return d
}

// decayLocked brings device dv's penalty current to now.
func (d *Damper) decayLocked(dv *damped, now time.Time) {
	if dv.lastDecay.IsZero() {
		dv.lastDecay = now
		return
	}
	dt := now.Sub(dv.lastDecay)
	if dt <= 0 {
		return
	}
	dv.penalty *= math.Exp2(-float64(dt) / float64(d.opts.HalfLife))
	dv.lastDecay = now
}

// RecordFlip charges one membership flip to device i at time now and returns
// whether the device is suppressed afterwards. Crossing the suppress
// threshold starts the hold-down window.
func (d *Damper) RecordFlip(i int, now time.Time) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if i < 0 || i >= len(d.devs) {
		return false
	}
	dv := d.devs[i]
	d.decayLocked(dv, now)
	dv.flips++
	dv.penalty += flipPenalty
	if ceiling := maxPenaltyFactor * d.opts.SuppressThreshold; dv.penalty > ceiling {
		dv.penalty = ceiling
	}
	if !dv.suppressed && dv.penalty >= d.opts.SuppressThreshold {
		dv.suppressed = true
		dv.holdUntil = now.Add(d.opts.HoldDown)
		d.suppressions++
	}
	return dv.suppressed
}

// Suppressed reports whether device i is held down at time now, releasing it
// when the penalty has decayed below the reuse threshold and the hold-down
// has elapsed.
func (d *Damper) Suppressed(i int, now time.Time) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if i < 0 || i >= len(d.devs) {
		return false
	}
	dv := d.devs[i]
	if !dv.suppressed {
		return false
	}
	d.decayLocked(dv, now)
	if dv.penalty < d.opts.ReuseThreshold && !now.Before(dv.holdUntil) {
		dv.suppressed = false
		return false
	}
	return true
}

// PenaltyOf returns device i's decayed figure of merit at time now.
func (d *Damper) PenaltyOf(i int, now time.Time) float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if i < 0 || i >= len(d.devs) {
		return 0
	}
	dv := d.devs[i]
	d.decayLocked(dv, now)
	return dv.penalty
}

// Flips returns how many flips device i has accumulated over its lifetime.
func (d *Damper) Flips(i int) uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if i < 0 || i >= len(d.devs) {
		return 0
	}
	return d.devs[i].flips
}

// Suppressions returns how many times any device crossed into suppression.
func (d *Damper) Suppressions() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.suppressions
}
