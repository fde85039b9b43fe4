package serve

import (
	"time"

	"murmuration/internal/cluster"
	"murmuration/internal/runtime"
)

// Hard-failure glue between the gateway and the device table: it translates
// verdicts into transitions (runtime.DeviceTable.Apply, DESIGN.md §6.1) and
// decides holds, and reconfigures nothing itself. Detection is two-pronged:
// the data path reports a runtime.DeviceError the moment a batch fails
// (noteDeviceError → down), while the heartbeat detector (AttachCluster)
// catches devices that die between requests (→ down / restart) and is the
// only path that brings a device back (→ up, possibly held first).

const (
	// holdRecheck is how long a reinstatement the flap damper refused is held
	// at a time: the damper does not say when its penalty will have decayed.
	holdRecheck = 100 * time.Millisecond
	// reintegrationStagger spaces one mass recovery: of the devices a cluster
	// batch brings back, device i rejoins i staggers after the first, so
	// limiter resets and placement shifts ramp instead of landing at once.
	reintegrationStagger = 200 * time.Millisecond
)

// noteDeviceError reacts to a device-attributed batch failure: the device
// goes down in the table so the failover re-resolve avoids it, and the
// failure detector hears of it so proactive probing converges faster.
func (g *Gateway) noteDeviceError(de *runtime.DeviceError) {
	g.rt.Devices.Apply(runtime.Change{Dev: de.Device, To: runtime.DeviceDown})
	g.mu.Lock()
	m := g.cluster
	g.mu.Unlock()
	if m != nil {
		m.ReportFailure(de.Device - 1) // placement device d is cluster member d-1
	}
	if g.opts.OnDeviceError != nil {
		g.opts.OnDeviceError(de.Device, de.Err)
	}
}

// AttachCluster subscribes the gateway to a failure detector whose member i
// is the scheduler's remote device i+1. The event loop exits when the manager
// is closed; close the manager before or after the gateway, order does not
// matter. The subscription is the batch channel: same-tick transitions (a
// mass kill via MarkDownBatch, a sweep that expires several members at once)
// arrive as one slice and are applied as one batch. Holds are only ever
// placed here, so the same goroutine releases them, sleeping until the
// earliest one.
func (g *Gateway) AttachCluster(m *cluster.Manager) {
	g.mu.Lock()
	g.cluster = m
	g.mu.Unlock()
	batches := m.SubscribeBatch()
	go func() {
		for {
			var wake <-chan time.Time
			if next := g.releaseHolds(m, time.Now()); !next.IsZero() {
				wake = time.After(time.Until(next))
			}
			select {
			case evs, ok := <-batches:
				if !ok {
					return
				}
				g.handleClusterBatch(evs)
			case <-wake:
			}
		}
	}()
}

// handleClusterBatch translates one coalesced batch of cluster events into
// one Apply. A Down is always honoured. An Up — and a restart, which is a
// fenced Down followed by an Up — reinstates the device unless the flap
// damper refuses it; of the devices one batch brings back, the first rejoins
// now and the rest are held one stagger apart.
func (g *Gateway) handleClusterBatch(evs []cluster.Event) {
	g.mu.Lock()
	tr, dmp := g.health, g.damper
	g.mu.Unlock()
	var changes []runtime.Change
	restarts, ups := 0, 0
	for _, ev := range evs {
		if ev.To == cluster.Suspect {
			// The device may still be serving. The data path takes it down
			// at once if a request actually fails there.
			continue
		}
		dev, up := ev.Member+1, ev.To == cluster.Up
		if tr != nil {
			tr.SetUp(ev.Member, up)
		}
		// Either half of a flap — a Down, a recovery from Down — is charged
		// to the damper.
		if dmp != nil && (!up || ev.From == cluster.Down) {
			dmp.RecordFlip(ev.Member, ev.At)
		}
		if ev.Restart {
			// Applied before the hook runs: the old incarnation is fenced and
			// the device out of placement while capabilities re-negotiate.
			g.rt.Devices.Apply(runtime.Change{Dev: dev, To: runtime.DeviceRestart, Incarnation: ev.Incarnation})
			restarts++
			if g.opts.OnRestart != nil {
				g.opts.OnRestart(dev, ev.Incarnation)
			}
		}
		switch {
		case !up:
			changes = append(changes, runtime.Change{Dev: dev, To: runtime.DeviceDown})
			g.noteDown(ev.At)
		case dmp != nil && dmp.Suppressed(ev.Member, ev.At):
			g.rt.Devices.Hold(dev, ev.At.Add(holdRecheck))
		case ups == 0:
			changes = append(changes, runtime.Change{Dev: dev, To: runtime.DeviceUp})
			ups++
		default:
			g.rt.Devices.Hold(dev, ev.At.Add(time.Duration(ups)*reintegrationStagger))
			ups++
		}
	}
	g.rt.Devices.Apply(changes...)
	g.mu.Lock()
	g.stats.Restarts += uint64(restarts)
	g.stats.StaggeredReintegrations += uint64(max(ups-1, 0))
	g.mu.Unlock()
}

// releaseHolds is the one place a hold ends, whoever placed it; it returns the
// earliest hold still pending (zero: none). A device whose time has come stays
// down if it went Down while it waited (its next Up event decides afresh), is
// held again if the damper still refuses it, and rejoins otherwise.
func (g *Gateway) releaseHolds(m *cluster.Manager, now time.Time) (next time.Time) {
	g.mu.Lock()
	dmp := g.damper
	g.mu.Unlock()
	var changes []runtime.Change
	for i, d := range g.rt.Devices.Snapshot() {
		until := d.Hold
		switch {
		case until.IsZero() || now.Before(until):
		case m.StateOf(i) != cluster.Up:
			until = time.Time{}
		case dmp != nil && dmp.Suppressed(i, now):
			until = now.Add(holdRecheck)
		default:
			changes = append(changes, runtime.Change{Dev: i + 1, To: runtime.DeviceUp})
			continue // applying up clears the hold
		}
		if until != d.Hold {
			g.rt.Devices.Hold(i+1, until)
		}
		if !until.IsZero() && (next.IsZero() || until.Before(next)) {
			next = until
		}
	}
	g.rt.Devices.Apply(changes...)
	return next
}
