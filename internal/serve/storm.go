package serve

import (
	"math/rand"
	"time"
)

// Recovery-storm smoothing: the serving half of the correlated-failure
// immunity plane. The retry budget (limit.Budget, wired through rpcx and the
// scheduler) bounds how hard the data path amplifies a correlated loss;
// this file bounds how hard the control path amplifies one:
//
//   - A correlated-loss detector watches Down transitions. At least K inside
//     a sliding window means the survivors are about to absorb the victims'
//     traffic, so admission tightens one ladder rung pre-emptively — batches
//     cheapen before the wave lands, not after the first misses.
//   - However many devices changed at once, the gateway reacts in one place
//     (reconfigure): one wait-estimate reset and one jittered rewarm at a
//     time, so a mass reinstatement cannot stampede the decider.
//   - Mass reinstatements are staggered (cluster.go, reintegrationStagger).

// stormRung is how many ladder rungs a correlated-loss detection adds to the
// floor. It composes additively with a watchdog brownout's BrownoutRung —
// resource pressure plus a correlated loss is strictly worse than either —
// and the ladder clamps the sum to its own max rung.
const stormRung = 1

// rewarmJitter bounds the random delay before a rewarm, so the rewarms of
// near-simultaneous topology changes decorrelate instead of pulsing.
const rewarmJitter = 20 * time.Millisecond

// applyFloor recomputes the degradation-ladder floor from the active
// pressure signals (brownout, correlated-loss tighten). Every writer of
// either signal funnels through here so the signals compose instead of
// overwriting each other's floor.
func (g *Gateway) applyFloor() {
	g.mu.Lock()
	floor := 0
	if g.brownout {
		floor += BrownoutRung
	}
	if g.stormTight {
		floor += stormRung
	}
	g.mu.Unlock()
	g.ladder.SetFloor(floor)
}

// noteDown feeds one Down transition into the correlated-loss detector.
// When at least CorrelatedLossK Downs land inside CorrelatedLossWindow, the
// gateway records a correlated-loss event, raises the ladder floor by
// stormRung, and holds the tighten for CorrelatedLossHold past the last
// detection. Detection re-arms afterwards: the next event needs K fresh
// Downs, so a long outage is one event, not one per straggler.
func (g *Gateway) noteDown(at time.Time) {
	g.mu.Lock()
	if g.opts.CorrelatedLossK < 0 {
		g.mu.Unlock()
		return
	}
	if at.IsZero() {
		at = time.Now()
	}
	cutoff := at.Add(-g.opts.CorrelatedLossWindow)
	keep := g.downTimes[:0]
	for _, t := range g.downTimes {
		if t.After(cutoff) {
			keep = append(keep, t)
		}
	}
	g.downTimes = append(keep, at)
	if len(g.downTimes) < g.opts.CorrelatedLossK {
		g.mu.Unlock()
		return
	}
	g.stats.CorrelatedLossEvents++
	tighten := !g.stormTight
	g.stormTight = true
	g.downTimes = g.downTimes[:0]
	if g.stormClear != nil {
		g.stormClear.Stop()
	}
	g.stormClear = time.AfterFunc(g.opts.CorrelatedLossHold, g.stormRelease)
	g.mu.Unlock()
	if tighten {
		g.applyFloor()
	}
}

// stormRelease drops the correlated-loss tighten once the hold elapses; the
// ladder then climbs home through its normal hysteresis.
func (g *Gateway) stormRelease() {
	g.mu.Lock()
	was := g.stormTight
	g.stormTight = false
	g.mu.Unlock()
	if was {
		g.applyFloor()
	}
}

// reconfigure is the device table's one subscriber, a goroutine that lives
// from New to Close. A notification — one per applied batch of transitions,
// coalesced while a pass runs — means a placement lost or regained a device,
// so batch cost changed regime: the wait estimates are reset, and after a
// jitter the strategy for the gateway's global SLO is re-resolved under the
// table as it stands (an error is left for the next request to surface), so
// the next batch does not pay the decide cost.
func (g *Gateway) reconfigure() {
	defer g.loops.Done()
	for {
		select {
		case <-g.stop:
			return
		case <-g.rt.Devices.Changed():
		}
		g.ResetWaitEstimates()
		time.Sleep(time.Duration(rand.Int63n(int64(rewarmJitter))))
		if slo := g.rt.SLO(); slo.Value > 0 {
			g.rt.ResolveFor(slo)
		}
	}
}
