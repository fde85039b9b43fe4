package serve

import (
	"murmuration/internal/cluster"
	"murmuration/internal/runtime"
)

// Hard-failure glue between the gateway and the device table: it translates
// verdicts into transitions (runtime.DeviceTable.Apply, DESIGN.md §6.1) and
// reconfigures nothing itself. Detection is two-pronged: the data path
// reports a runtime.DeviceError the moment a batch fails (noteDeviceError →
// down), while the heartbeat detector (Options.Cluster) catches devices that
// die between requests (→ down / restart) and is the only path that brings a
// device back (→ up).

// noteDeviceError reacts to a device-attributed batch failure: the device
// goes down in the table so the failover re-resolve avoids it, and the
// failure detector hears of it so proactive probing converges faster.
func (g *Gateway) noteDeviceError(de *runtime.DeviceError) {
	g.rt.Devices.Apply(runtime.Change{Dev: de.Device, To: runtime.DeviceDown})
	if m := g.opts.Cluster; m != nil {
		m.ReportFailure(de.Device - 1) // placement device d is cluster member d-1
	}
	if g.opts.OnDeviceError != nil {
		g.opts.OnDeviceError(de.Device, de.Err)
	}
}

// handleClusterBatch translates one coalesced batch of cluster events into
// one Apply: a Down takes the device out of placement, an Up puts it back,
// and a restart — a fenced Down followed by an Up — does both. With an
// OnRestart hook, the restart's Up waits for the hook, which runs off the
// event loop (reinstate), so later batches are not held behind it.
func (g *Gateway) handleClusterBatch(evs []cluster.Event) {
	g.mu.Lock()
	tr := g.health
	g.mu.Unlock()
	g.clusterMu.Lock()
	defer g.clusterMu.Unlock()
	var changes []runtime.Change
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
		if ev.Restart {
			// Applied before the hook runs: the old incarnation is fenced and
			// the device out of placement while capabilities re-negotiate.
			g.rt.Devices.Apply(runtime.Change{Dev: dev, To: runtime.DeviceRestart, Incarnation: ev.Incarnation})
			g.mu.Lock()
			g.stats.Restarts++
			hook := g.opts.OnRestart != nil && !g.closing
			if hook {
				g.loops.Add(1)
			}
			g.mu.Unlock()
			if hook {
				r := g.restarting[dev]
				if r == nil {
					r = &restarting{}
					g.restarting[dev] = r
				}
				r.hooks++
				go g.reinstate(dev, ev.Incarnation)
			}
		}
		if r := g.restarting[dev]; r != nil {
			// A Down stands at once; an Up waits for the hooks.
			if r.up = up; up {
				continue
			}
		}
		to := runtime.DeviceDown
		if up {
			to = runtime.DeviceUp
		}
		changes = append(changes, runtime.Change{Dev: dev, To: to})
	}
	g.rt.Devices.Apply(changes...)
}

// restarting is a device whose restart hooks are running: how many, and
// whether the detector's latest verdict on it is Up.
type restarting struct {
	hooks int
	up    bool
}

// reinstate runs a restarted device's OnRestart hook. The last hook of the
// device to return puts it back in placement, unless the detector reported
// it down meanwhile.
func (g *Gateway) reinstate(dev int, incarnation uint64) {
	defer g.loops.Done()
	g.opts.OnRestart(dev, incarnation)
	g.clusterMu.Lock()
	defer g.clusterMu.Unlock()
	r := g.restarting[dev]
	if r.hooks--; r.hooks > 0 {
		return
	}
	delete(g.restarting, dev)
	if r.up {
		g.rt.Devices.Apply(runtime.Change{Dev: dev, To: runtime.DeviceUp})
	}
}
