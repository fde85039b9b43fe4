package serve

import (
	"time"

	"murmuration/internal/cluster"
	"murmuration/internal/fault"
	"murmuration/internal/health"
)

// Gray-failure glue between the gateway and the health layer.
//
// The cluster glue (cluster.go) handles hard failures: a device that stops
// answering heartbeats. This file handles the failures heartbeats cannot
// see — a device that answers 1ms pings while serving tiles 10× slow or
// erroring a third of its calls. AttachHealth wires three loops together:
//
//   - Evidence: the scheduler's OnTileOutcome hook feeds every remote tile
//     call's (device, latency, error) into the tracker's SLI ledger, and the
//     scheduler's Gate consults the tracker before every dispatch so a
//     quarantined or ramping device takes only the traffic its state allows.
//   - Verdicts: tracker transitions drive the runtime's quarantine mask
//     (placement exclusion without connection teardown), cache invalidation,
//     wait-estimate resets, and — on completed reintegration — an AIMD
//     limiter reset.
//   - Time: a tick-loop goroutine rolls the tracker's windows, probes
//     quarantined devices with synthetic inferences so their ledgers stay
//     fed, and releases flap-suppressed devices once the damper's penalty
//     decays.

// HealthOptions configures AttachHealth. Zero values select the defaults.
type HealthOptions struct {
	// Tracker configures the SLI windows, gray thresholds, and the
	// quarantine/reintegration machine.
	Tracker health.Options
	// Damper configures flap damping on cluster Up/Down transitions.
	Damper health.DamperOptions
	// ProbeEvery is the synthetic-probe period per quarantined or
	// reintegrating device (default 500ms; negative disables probing).
	ProbeEvery time.Duration
	// ProbeTimeout bounds each probe call (default 2s).
	ProbeTimeout time.Duration
	// TickEvery is the tracker's clock-drive period (default half the SLI
	// window, so window rolls land close to on time).
	TickEvery time.Duration
}

func (o HealthOptions) withDefaults() HealthOptions {
	if o.ProbeEvery == 0 {
		o.ProbeEvery = 500 * time.Millisecond
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = 2 * time.Second
	}
	if o.TickEvery <= 0 {
		o.TickEvery = o.Tracker.Window / 2
		if o.TickEvery <= 0 {
			o.TickEvery = 500 * time.Millisecond
		}
	}
	return o
}

// AttachHealth creates the gray-failure tracker and flap damper, wires them
// into the scheduler's dispatch path and the cluster glue, and starts the
// tick loop. Call once, before traffic, and before Close. The returned
// tracker is the gateway's view of per-device health (for observation; its
// counters also ride Stats). Idempotent: a second call returns the existing
// tracker.
func (g *Gateway) AttachHealth(opts HealthOptions) *health.Tracker {
	g.mu.Lock()
	if g.health != nil {
		tr := g.health
		g.mu.Unlock()
		return tr
	}
	opts = opts.withDefaults()
	n := len(g.rt.Scheduler.Remotes)
	tr := health.NewTracker(n, opts.Tracker)
	g.health = tr
	g.damper = health.NewDamper(n, opts.Damper)
	g.suppressHeld = make([]bool, n)
	g.stallEvidence = make([]uint64, n)
	g.healthStop = make(chan struct{})
	g.healthDone = make(chan struct{})
	stop, done := g.healthStop, g.healthDone
	g.mu.Unlock()

	tr.OnTransition = g.onHealthTransition
	sched := g.rt.Scheduler
	sched.OnTileOutcome = func(dev int, elapsed time.Duration, err error) {
		g.observeTile(tr, dev, elapsed, err)
	}
	sched.Gate = func(dev int) bool { return tr.Admit(dev - 1) }

	go g.healthLoop(tr, opts, stop, done)
	return tr
}

// Health returns the attached gray-failure tracker (nil before AttachHealth).
func (g *Gateway) Health() *health.Tracker {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.health
}

// observeTile books one remote tile call's outcome into the tracker's SLI
// ledger as the health column of the fault policy table says (DESIGN.md
// §13.4 gives the reason for each row). A stall is a *failure*, not an
// overload — repeated stalls must quarantine the path even though the
// liveness detector keeps seeing the device Up — and is also remembered so
// the eventual quarantine is attributed as asymmetric.
func (g *Gateway) observeTile(tr *health.Tracker, dev int, elapsed time.Duration, err error) {
	i := dev - 1
	now := time.Now()
	if err == nil {
		tr.ObserveOK(i, elapsed, now)
		return
	}
	switch fault.Of(err).Policy().Health {
	case fault.EvidenceOverload:
		tr.ObserveOverload(i, now)
	case fault.EvidenceStall:
		g.mu.Lock()
		if i >= 0 && i < len(g.stallEvidence) {
			g.stallEvidence[i]++
		}
		g.mu.Unlock()
		tr.ObserveFailure(i, now)
	case fault.EvidenceFailure:
		tr.ObserveFailure(i, now)
	}
}

// onHealthTransition applies a tracker verdict to the serving plane.
func (g *Gateway) onHealthTransition(tr health.Transition) {
	i := tr.Device
	switch tr.To {
	case health.Quarantined:
		// Exclude from placement like Down — but without touching the
		// cluster detector or the connections, which stay warm for probes.
		g.rt.SetDeviceQuarantined(i, true)
		if g.rt.Cache != nil {
			g.rt.Cache.InvalidateDevice(i + 1)
		}
		// Attribution: if stall evidence accrued since the last quarantine,
		// this is the asymmetric-partition signature — the device stayed Up
		// on the liveness detector while its bulk transfers wedged.
		g.mu.Lock()
		if i >= 0 && i < len(g.stallEvidence) && g.stallEvidence[i] > 0 {
			g.stats.AsymmetricQuarantines++
			g.stallEvidence[i] = 0
		}
		g.mu.Unlock()
	case health.Reintegrating:
		// Placement-eligible again; the scheduler's Gate admits only the
		// ramp fraction, redirecting the rest to local execution.
		g.rt.SetDeviceQuarantined(i, false)
	case health.Active:
		if tr.From == health.Reintegrating {
			// Ramp complete: the AIMD limit and panic streak learned against
			// the sick incarnation must not throttle the recovered one.
			g.rt.Scheduler.ResetDevice(i + 1)
		}
	default:
		// Probation: full traffic continues, no serving-plane change.
		return
	}
	// Every serving-plane change above shifts batch-cost regime.
	g.ResetWaitEstimates()
	g.rewarm()
}

// healthLoop is the tick-loop goroutine: it drives the tracker's window
// clock, probes quarantined/reintegrating devices, and releases
// flap-suppressed devices whose penalty has decayed.
func (g *Gateway) healthLoop(tr *health.Tracker, opts HealthOptions, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	ticker := time.NewTicker(opts.TickEvery)
	defer ticker.Stop()
	lastProbe := make([]time.Time, len(g.rt.Scheduler.Remotes))
	for {
		select {
		case <-stop:
			return
		case now := <-ticker.C:
			tr.Tick(now)
			g.damperSweep(now)
			if opts.ProbeEvery >= 0 {
				g.probeSweep(tr, opts, lastProbe, now)
			}
		}
	}
}

// damperSweep reinstates devices whose reinstatement the flap damper
// refused, once their penalty has decayed and the detector still says Up.
func (g *Gateway) damperSweep(now time.Time) {
	g.mu.Lock()
	dmp, m := g.damper, g.cluster
	held := append([]bool(nil), g.suppressHeld...)
	g.mu.Unlock()
	for i, h := range held {
		if !h || dmp.Suppressed(i, now) {
			continue
		}
		if m != nil && m.StateOf(i) != cluster.Up {
			// Released from damping but genuinely down: leave it to the
			// detector's next Up event (which now passes the damper).
			g.mu.Lock()
			g.suppressHeld[i] = false
			g.mu.Unlock()
			continue
		}
		g.mu.Lock()
		g.suppressHeld[i] = false
		g.mu.Unlock()
		g.rt.SetDeviceHealth(i, true)
		g.rt.Scheduler.ResetDevice(i + 1)
		g.ResetWaitEstimates()
		g.rewarm()
	}
}

// probeSweep sends one synthetic probe inference to every quarantined or
// reintegrating device whose probe period elapsed, feeding the outcome into
// the tracker so an idle quarantined device still accrues (clean or gray)
// windows and can earn its way back.
func (g *Gateway) probeSweep(tr *health.Tracker, opts HealthOptions, lastProbe []time.Time, now time.Time) {
	for i := range lastProbe {
		st := tr.StateOf(i)
		if st != health.Quarantined && st != health.Reintegrating {
			continue
		}
		if now.Sub(lastProbe[i]) < opts.ProbeEvery {
			continue
		}
		lastProbe[i] = now
		elapsed, err := g.rt.Scheduler.ProbeDevice(i+1, opts.ProbeTimeout)
		g.observeTile(tr, i+1, elapsed, err)
	}
}
