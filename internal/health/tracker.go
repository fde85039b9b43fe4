// Package health scores device usefulness from data-path observations.
//
// The cluster failure detector (internal/cluster) answers "is the device
// alive?" — it cannot see a device that answers 1ms heartbeats while serving
// tiles 10× slow or failing a third of its exec.block calls. This package closes
// that gap with a per-device SLI ledger fed from real tile-RPC outcomes, a
// gray-failure detector that scores each device's window against the fleet
// median, and a four-state health machine (Active → Probation → Quarantined →
// Reintegrating) whose quarantine excludes a device from placement without
// tearing down its connections.
//
// Everything runs on an explicit clock: callers pass now to every mutating
// method, so unit tests drive the whole machine on a synthetic timeline.
package health

import (
	"sort"
	"sync"
	"time"
)

// State is a device's health-machine state.
type State int

const (
	// Active devices take full traffic.
	Active State = iota
	// Probation devices still take full traffic but have shown gray windows;
	// more grayness quarantines them, clean windows restore Active.
	Probation
	// Quarantined devices are excluded from placement (their connections stay
	// up and low-rate synthetic probes keep them warm and observed).
	Quarantined
	// Reintegrating devices take a ramped fraction of traffic; a relapse
	// aborts back to Quarantined, a full ramp restores Active.
	Reintegrating
)

func (s State) String() string {
	switch s {
	case Active:
		return "active"
	case Probation:
		return "probation"
	case Quarantined:
		return "quarantined"
	case Reintegrating:
		return "reintegrating"
	default:
		return "invalid"
	}
}

// Options configures a Tracker. Zero values select the defaults.
type Options struct {
	// Window is the SLI aggregation window (default 1s). Judgement happens
	// at window rolls, driven by Tick.
	Window time.Duration
	// MinSamples is the minimum number of observations in a window for the
	// window to be judged at all (default 3); thinner windows move no
	// streaks in either direction.
	MinSamples int
	// LatencyFactor marks a window gray when the device's p50 tile latency
	// is at least this multiple of the fleet median p50 (default 3).
	LatencyFactor float64
	// FailureRate marks a window gray when (errors+timeouts)/total reaches
	// this fraction (default 0.30). Overload rejections are tracked but are
	// backpressure, not device sickness, so they never trigger grayness.
	FailureRate float64
	// GrayWindows is the hysteresis K: K consecutive gray windows demote
	// Active → Probation, and K more demote Probation → Quarantined
	// (default 3).
	GrayWindows int
	// CleanWindows is the number of consecutive clean windows needed to
	// promote Probation → Active, to arm Quarantined → Reintegrating, and
	// to advance each reintegration ramp step (default 2).
	CleanWindows int
	// ReintegrateAfter is the minimum time a device spends Quarantined
	// before the ramp may start (default 10s).
	ReintegrateAfter time.Duration
	// RampWeights is the reintegration traffic-weight ladder; each clean
	// window advances one step, and completing the ladder restores Active
	// (default 0.1, 0.25, 0.5).
	RampWeights []float64
}

// digestSize bounds the per-window latency digest; the most recent samples
// are kept.
const digestSize = 128

func (o Options) withDefaults() Options {
	if o.Window <= 0 {
		o.Window = time.Second
	}
	if o.MinSamples <= 0 {
		o.MinSamples = 3
	}
	if o.LatencyFactor <= 0 {
		o.LatencyFactor = 3
	}
	if o.FailureRate <= 0 {
		o.FailureRate = 0.30
	}
	if o.GrayWindows <= 0 {
		o.GrayWindows = 3
	}
	if o.CleanWindows <= 0 {
		o.CleanWindows = 2
	}
	if o.ReintegrateAfter <= 0 {
		o.ReintegrateAfter = 10 * time.Second
	}
	if len(o.RampWeights) == 0 {
		o.RampWeights = []float64{0.1, 0.25, 0.5}
	}
	return o
}

// SLI is one judged window's service-level indicators for a device.
type SLI struct {
	P50Ms        float64 // median successful tile latency, milliseconds
	Samples      int     // total observations in the window
	FailureRate  float64 // (errors + timeouts) / total
	OverloadRate float64 // overload rejections / total
}

// Counters are the tracker's monotonic transition counters, exported on the
// serving stats wire (v8).
type Counters struct {
	// GraySuspects counts gray-window detections: windows where a device's
	// SLIs breached the fleet-relative thresholds while its heartbeats said
	// Up.
	GraySuspects uint64
	// Probations counts Active → Probation demotions.
	Probations uint64
	// Quarantines counts entries into Quarantined (from Probation or by
	// reintegration relapse).
	Quarantines uint64
	// Reintegrations counts completed ramps (Reintegrating → Active).
	Reintegrations uint64
}

// Transition describes one health-machine state change.
type Transition struct {
	Device   int
	From, To State
	At       time.Time
}

// devSLI is the tracker's per-device state.
type devSLI struct {
	state State
	up    bool // the heartbeat detector's view; grayness only applies while up

	// current-window accumulators
	lat       []float64 // successful-call latencies, ms, capped ring
	latNext   int       // ring write cursor once the cap is hit
	total     int
	failures  int
	overloads int

	last   SLI  // last judged window
	judged bool // last window had enough samples to judge

	grayStreak  int
	cleanStreak int
	since       time.Time // entry time of the current state
	rampStep    int
	admitSeq    uint64 // weighted-admission rotation counter
}

// Tracker is the per-device SLI ledger and gray-failure health machine.
// Safe for concurrent use. OnTransition, if set before observations start,
// is invoked outside the tracker lock for every state change.
type Tracker struct {
	opts Options

	// OnTransition observes state changes; it runs on the Tick caller's
	// goroutine after the tracker lock is released, so it may call back
	// into the tracker.
	OnTransition func(Transition)

	mu          sync.Mutex
	devs        []*devSLI
	windowStart time.Time
	counters    Counters
}

// NewTracker creates a tracker over n devices, all Active and Up.
func NewTracker(n int, opts Options) *Tracker {
	t := &Tracker{opts: opts.withDefaults(), devs: make([]*devSLI, n)}
	for i := range t.devs {
		t.devs[i] = &devSLI{state: Active, up: true}
	}
	return t
}

// ObserveOK records one successful tile call on device i.
func (t *Tracker) ObserveOK(i int, elapsed time.Duration, now time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	d := t.dev(i)
	if d == nil {
		return
	}
	t.primeWindowLocked(now)
	d.total++
	ms := float64(elapsed) / float64(time.Millisecond)
	if len(d.lat) < digestSize {
		d.lat = append(d.lat, ms)
		return
	}
	d.lat[d.latNext] = ms
	d.latNext = (d.latNext + 1) % digestSize
}

// ObserveFailure records one failed or timed-out tile call on device i.
func (t *Tracker) ObserveFailure(i int, now time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	d := t.dev(i)
	if d == nil {
		return
	}
	t.primeWindowLocked(now)
	d.total++
	d.failures++
}

// ObserveOverload records one overload rejection on device i. Overload is
// backpressure from a healthy limiter, so it never marks a window gray, but
// the rate is kept on the SLI for observability.
func (t *Tracker) ObserveOverload(i int, now time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	d := t.dev(i)
	if d == nil {
		return
	}
	t.primeWindowLocked(now)
	d.total++
	d.overloads++
}

// SetUp records the heartbeat detector's view of device i. Grayness only
// means anything while the detector says Up: a down device's streaks are
// discarded (the cluster layer owns hard failures), and its health state is
// frozen until it returns.
func (t *Tracker) SetUp(i int, up bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	d := t.dev(i)
	if d == nil {
		return
	}
	if d.up && !up {
		d.grayStreak, d.cleanStreak = 0, 0
		t.resetWindowLocked(d)
	}
	d.up = up
}

// StateOf returns device i's health state.
func (t *Tracker) StateOf(i int) State {
	t.mu.Lock()
	defer t.mu.Unlock()
	d := t.dev(i)
	if d == nil {
		return Active
	}
	return d.state
}

// LastSLI returns device i's most recently judged window, and whether any
// window has been judged yet.
func (t *Tracker) LastSLI(i int) (SLI, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	d := t.dev(i)
	if d == nil {
		return SLI{}, false
	}
	return d.last, d.judged
}

// Weight returns the fraction of traffic device i should take: 1 for
// Active and Probation, 0 for Quarantined, and the current ramp weight for
// Reintegrating.
func (t *Tracker) Weight(i int) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.weightLocked(t.dev(i))
}

func (t *Tracker) weightLocked(d *devSLI) float64 {
	if d == nil {
		return 1
	}
	switch d.state {
	case Quarantined:
		return 0
	case Reintegrating:
		step := d.rampStep
		if step >= len(t.opts.RampWeights) {
			step = len(t.opts.RampWeights) - 1
		}
		return t.opts.RampWeights[step]
	default:
		return 1
	}
}

// Admit reports whether the next dispatch to device i should proceed under
// its current traffic weight. Admission is a deterministic rotation — at
// weight w, exactly ⌈w·n⌉ of any n consecutive calls are admitted — so the
// reintegration ramp is reproducible under a seeded test.
func (t *Tracker) Admit(i int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	d := t.dev(i)
	if d == nil {
		return true
	}
	w := t.weightLocked(d)
	if w >= 1 {
		return true
	}
	if w <= 0 {
		return false
	}
	seq := d.admitSeq
	d.admitSeq++
	return int(float64(seq+1)*w) > int(float64(seq)*w)
}

// Counters returns the transition counters.
func (t *Tracker) Counters() Counters {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counters
}

// Tick drives the clock forward: when a full window has elapsed it judges
// every device's window against the fleet, advances the state machine, and
// opens a fresh window. It also arms Quarantined → Reintegrating once the
// quarantine minimum has elapsed. Call it at least twice per window.
func (t *Tracker) Tick(now time.Time) []Transition {
	t.mu.Lock()
	t.primeWindowLocked(now)
	var trs []Transition
	if now.Sub(t.windowStart) >= t.opts.Window {
		trs = t.rollLocked(now)
		t.windowStart = now
	}
	// Quarantine release is time-gated as well as window-gated, so check it
	// on every tick, not just at rolls.
	for i, d := range t.devs {
		if d.state == Quarantined && d.up &&
			d.cleanStreak >= t.opts.CleanWindows &&
			now.Sub(d.since) >= t.opts.ReintegrateAfter {
			trs = append(trs, t.transitionLocked(i, Reintegrating, now))
		}
	}
	t.mu.Unlock()
	if t.OnTransition != nil {
		for _, tr := range trs {
			t.OnTransition(tr)
		}
	}
	return trs
}

// rollLocked judges the closing window and advances every device's machine.
func (t *Tracker) rollLocked(now time.Time) []Transition {
	// First pass: compute each judged device's SLI.
	type verdict struct {
		judged bool
		sli    SLI
		hasP50 bool
	}
	verdicts := make([]verdict, len(t.devs))
	var fleet []float64 // judged, up devices' p50s
	for i, d := range t.devs {
		if d.total < t.opts.MinSamples {
			continue
		}
		v := &verdicts[i]
		v.judged = true
		v.sli = SLI{
			Samples:      d.total,
			FailureRate:  float64(d.failures) / float64(d.total),
			OverloadRate: float64(d.overloads) / float64(d.total),
		}
		if len(d.lat) > 0 {
			v.sli.P50Ms = p50(d.lat)
			v.hasP50 = true
			if d.up {
				fleet = append(fleet, v.sli.P50Ms)
			}
		}
	}
	// The fleet baseline is the *lower* median of the judged p50s: with an
	// even fleet the faster half anchors it, so in a two-device fleet the
	// healthy device sets the bar and the limping one scores against it
	// instead of against their midpoint.
	var fleetMed float64
	if len(fleet) > 0 {
		sort.Float64s(fleet)
		fleetMed = fleet[(len(fleet)-1)/2]
	}

	// Second pass: score and advance.
	var trs []Transition
	for i, d := range t.devs {
		v := verdicts[i]
		if v.judged {
			d.last, d.judged = v.sli, true
		}
		t.resetWindowLocked(d)
		if !v.judged || !d.up {
			continue // thin window or detector-down: move no streaks
		}
		gray := v.sli.FailureRate >= t.opts.FailureRate ||
			(v.hasP50 && fleetMed > 0 && v.sli.P50Ms >= t.opts.LatencyFactor*fleetMed)
		if gray {
			t.counters.GraySuspects++
			d.grayStreak++
			d.cleanStreak = 0
		} else {
			d.cleanStreak++
			d.grayStreak = 0
		}
		switch d.state {
		case Active:
			if d.grayStreak >= t.opts.GrayWindows {
				trs = append(trs, t.transitionLocked(i, Probation, now))
			}
		case Probation:
			if d.grayStreak >= t.opts.GrayWindows {
				trs = append(trs, t.transitionLocked(i, Quarantined, now))
			} else if d.cleanStreak >= t.opts.CleanWindows {
				trs = append(trs, t.transitionLocked(i, Active, now))
			}
		case Quarantined:
			// Release is armed here (cleanStreak) and fired by the
			// time gate in Tick.
		case Reintegrating:
			if gray {
				// Relapse aborts the ramp.
				trs = append(trs, t.transitionLocked(i, Quarantined, now))
			} else if d.cleanStreak >= t.opts.CleanWindows {
				d.cleanStreak = 0
				d.rampStep++
				if d.rampStep >= len(t.opts.RampWeights) {
					trs = append(trs, t.transitionLocked(i, Active, now))
				}
			}
		}
	}
	return trs
}

// transitionLocked moves device i to state to, resets its streaks, and bumps
// the matching counter.
func (t *Tracker) transitionLocked(i int, to State, now time.Time) Transition {
	d := t.devs[i]
	tr := Transition{Device: i, From: d.state, To: to, At: now}
	d.state = to
	d.since = now
	d.grayStreak, d.cleanStreak = 0, 0
	d.rampStep = 0
	switch to {
	case Probation:
		t.counters.Probations++
	case Quarantined:
		t.counters.Quarantines++
	case Active:
		if tr.From == Reintegrating {
			t.counters.Reintegrations++
		}
	}
	return tr
}

func (t *Tracker) dev(i int) *devSLI {
	if i < 0 || i >= len(t.devs) {
		return nil
	}
	return t.devs[i]
}

func (t *Tracker) primeWindowLocked(now time.Time) {
	if t.windowStart.IsZero() {
		t.windowStart = now
	}
}

func (t *Tracker) resetWindowLocked(d *devSLI) {
	d.lat = d.lat[:0]
	d.latNext = 0
	d.total, d.failures, d.overloads = 0, 0, 0
}

// p50 returns the median of xs (lower-interpolated, xs is scratch and may be
// reordered).
func p50(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
