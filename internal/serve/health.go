package serve

import (
	"time"

	"murmuration/internal/fault"
	"murmuration/internal/health"
	"murmuration/internal/runtime"
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
//   - Verdicts: a tracker transition becomes a device-table transition
//     (quarantine / ramp / ramp-done; DESIGN.md §6.1). What each one
//     reconfigures is the table's business.
//   - Time: a tick-loop goroutine rolls the tracker's windows and probes
//     quarantined devices with synthetic inferences so their ledgers stay
//     fed. The flap damper created here is consulted by the cluster glue.

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
	g.loops.Add(1)
	g.mu.Unlock()

	tr.OnTransition = g.onHealthTransition
	sched := g.rt.Scheduler
	sched.OnTileOutcome = func(dev int, elapsed time.Duration, err error) {
		g.observeTile(tr, dev, elapsed, err)
	}
	sched.Gate = func(dev int) bool { return tr.Admit(dev - 1) }

	go g.healthLoop(tr, opts)
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
		g.rt.Devices.NoteStall(dev)
		tr.ObserveFailure(i, now)
	case fault.EvidenceFailure:
		tr.ObserveFailure(i, now)
	}
}

// onHealthTransition translates a tracker verdict into a device transition.
// Probation changes nothing in the serving plane, and neither does returning
// from it.
func (g *Gateway) onHealthTransition(tr health.Transition) {
	var to runtime.Transition
	switch {
	case tr.To == health.Quarantined:
		to = runtime.DeviceQuarantine
	case tr.To == health.Reintegrating:
		to = runtime.DeviceRamp
	case tr.To == health.Active && tr.From == health.Reintegrating:
		to = runtime.DeviceRampDone
	default:
		return
	}
	g.rt.Devices.Apply(runtime.Change{Dev: tr.Device + 1, To: to})
}

// healthLoop is the tick-loop goroutine: it drives the tracker's window
// clock and probes quarantined/reintegrating devices.
func (g *Gateway) healthLoop(tr *health.Tracker, opts HealthOptions) {
	defer g.loops.Done()
	ticker := time.NewTicker(opts.TickEvery)
	defer ticker.Stop()
	lastProbe := make([]time.Time, len(g.rt.Scheduler.Remotes))
	for {
		select {
		case <-g.stop:
			return
		case now := <-ticker.C:
			tr.Tick(now)
			if opts.ProbeEvery >= 0 {
				g.probeSweep(tr, opts, lastProbe, now)
			}
		}
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
