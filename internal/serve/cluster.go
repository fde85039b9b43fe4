package serve

import (
	"time"

	"murmuration/internal/cluster"
	"murmuration/internal/runtime"
)

// Failover glue between the gateway and the cluster layer.
//
// Detection is two-pronged: the data path reacts synchronously the moment a
// batch fails with a runtime.DeviceError (noteDeviceError), while the
// heartbeat detector (AttachCluster) catches devices that die between
// requests and — crucially — is the only path that reintegrates a device once
// its heartbeats resume.

// noteDeviceError reacts to a device-attributed batch failure: demote the
// device in the runtime's health mask so the failover re-resolve avoids it,
// drop every cached strategy placing work there, and feed the observation to
// the failure detector so proactive probing converges faster.
func (g *Gateway) noteDeviceError(de *runtime.DeviceError) {
	// Placement device d >= 1 is remote index d-1 (cluster member d-1).
	idx := de.Device - 1
	g.rt.SetDeviceHealth(idx, false)
	if g.rt.Cache != nil {
		g.rt.Cache.InvalidateDevice(de.Device)
	}
	g.mu.Lock()
	m := g.cluster
	hook := g.opts.OnDeviceError
	g.mu.Unlock()
	if m != nil {
		m.ReportFailure(idx)
	}
	// Batch cost just changed regime (the placement lost a device); a wait
	// estimate learned before the demotion would mis-admit until it decayed.
	g.ResetWaitEstimates()
	if hook != nil {
		hook(de.Device, de.Err)
	}
}

// AttachCluster subscribes the gateway to a failure detector whose member i
// is the scheduler's remote device i+1. On Down the device is demoted and its
// cached strategies invalidated; on recovery it is reinstated. Either way the
// strategy for the gateway's global SLO is re-resolved (re-warmed) so the
// next batch doesn't pay the decide cost. The event loop exits when the
// manager is closed; close the manager before or after the gateway, order
// does not matter.
//
// The subscription is the batch channel: same-tick transitions (a mass kill
// via MarkDownBatch, a sweep that expires several members at once) arrive as
// one slice, so a correlated loss of K devices costs one demote/invalidate
// pass, one wait-estimate reset, and one rewarm — not K of each.
func (g *Gateway) AttachCluster(m *cluster.Manager) {
	g.mu.Lock()
	g.cluster = m
	g.mu.Unlock()
	batches := m.SubscribeBatch()
	go func() {
		for evs := range batches {
			g.handleClusterBatch(evs)
		}
	}()
}

// handleClusterBatch applies one coalesced batch of cluster transitions.
// Per-device work (health mask, SLI ledger, O(1) cache epoch bump, damper)
// still runs per event; the batch-amplified work — wait-estimate resets and
// strategy rewarms — runs once per batch. Mass reinstatements are staggered:
// the first device rejoins immediately, device i after i stagger periods
// (storm.go), so returning capacity ramps instead of slamming.
func (g *Gateway) handleClusterBatch(evs []cluster.Event) {
	g.mu.Lock()
	tr, dmp := g.health, g.damper
	g.mu.Unlock()
	downs := 0
	var ups []cluster.Event
	for _, ev := range evs {
		if ev.Restart {
			g.handleRestart(ev)
			continue
		}
		switch ev.To {
		case cluster.Down:
			// A Down is always honored (safety first); it also charges
			// one membership flip to the damper.
			if dmp != nil {
				dmp.RecordFlip(ev.Member, ev.At)
			}
			if tr != nil {
				tr.SetUp(ev.Member, false)
			}
			g.rt.SetDeviceHealth(ev.Member, false)
			if g.rt.Cache != nil {
				g.rt.Cache.InvalidateDevice(ev.Member + 1)
			}
			downs++
			g.noteDown(ev.At)
		case cluster.Up:
			if tr != nil {
				tr.SetUp(ev.Member, true)
			}
			if dmp != nil {
				// A recovery from Down is the other half of a flap.
				if ev.From == cluster.Down {
					dmp.RecordFlip(ev.Member, ev.At)
				}
				if dmp.Suppressed(ev.Member, ev.At) {
					// Flap damping: refuse the reinstatement. The health
					// tick loop (health.go) releases the device once the
					// penalty decays below the reuse threshold.
					g.mu.Lock()
					if ev.Member < len(g.suppressHeld) {
						g.suppressHeld[ev.Member] = true
					}
					g.mu.Unlock()
					continue
				}
			}
			ups = append(ups, ev)
		case cluster.Suspect:
			// No action: the device may still be serving. The data path
			// demotes it immediately if a request actually fails there.
		}
	}
	if downs > 0 {
		g.ResetWaitEstimates()
		g.rewarmAsync()
	}
	if len(ups) > 0 {
		// The first recovered device reinstates now (a lone recovery behaves
		// exactly as before); the rest of a mass recovery is staggered.
		g.reinstate(ups[0].Member)
		g.ResetWaitEstimates()
		g.rewarmAsync()
		for i, ev := range ups[1:] {
			g.staggerReinstate(ev.Member, time.Duration(i+1)*g.opts.ReintegrationStagger)
		}
	}
}

// handleRestart reconfigures around a detected incarnation change — an
// atomic Down→Up. The device never answered "dead", but the process behind it
// is new: every piece of state learned against the old process is stale, and
// every response still in flight from it must be fenced, not delivered.
// Order matters: the expected incarnation is raised *first*, so a stale
// response racing this handler fails the scheduler's fence check rather than
// slipping through mid-reconfiguration.
func (g *Gateway) handleRestart(ev cluster.Event) {
	sched := g.rt.Scheduler
	dev := ev.Member + 1
	// 1. Fence: responses handshaken with the old incarnation are now dropped.
	if ev.Incarnation != 0 {
		sched.SetDeviceIncarnation(dev, ev.Incarnation)
	}
	// 2. Demote while reconfiguring: strategies placing work there are stale
	// (the new process has cold caches and possibly different capabilities).
	g.rt.SetDeviceHealth(ev.Member, false)
	if g.rt.Cache != nil {
		g.rt.Cache.InvalidateDevice(dev)
	}
	// 3. The data connections may still terminate at the dead process's
	// socket (a zombie that keeps its listener): retire them all so the next
	// dispatch dials — and handshakes with — the live incarnation. Calls in
	// flight are not waited for: each keeps its connection until its reply,
	// which is fenced on arrival.
	if ev.Member >= 0 && ev.Member < len(sched.Remotes) && sched.Remotes[ev.Member] != nil {
		sched.Remotes[ev.Member].ForceRedial()
	}
	// 4. Adaptive state learned against the old process does not transfer.
	sched.ResetDevice(dev)
	g.mu.Lock()
	g.stats.Restarts++
	hook := g.opts.OnRestart
	g.mu.Unlock()
	// 5. Re-negotiate capabilities (link probe, monitor refresh) before the
	// device takes traffic again.
	if hook != nil {
		hook(dev, ev.Incarnation)
	}
	// 6. Reinstate and rewarm: the new incarnation serves from here on.
	g.rt.SetDeviceHealth(ev.Member, true)
	g.ResetWaitEstimates()
	g.rewarm()
}

// rewarm re-resolves the strategy for the gateway's global SLO under the
// current health mask, priming the cache after a topology change. Errors are
// deliberately ignored — the next request resolves (and surfaces) them.
func (g *Gateway) rewarm() {
	if slo := g.rt.SLO(); slo.Value > 0 {
		g.rt.ResolveFor(slo)
	}
}
