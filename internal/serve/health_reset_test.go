// Regression tests for the limiter-reset satellite of the health model: an
// AIMD concurrency limit (and panic streak) learned against a device's sick
// incarnation must not throttle its recovered one. Both return paths are
// covered — heartbeat-detector reinstatement (Down -> Up through the cluster
// glue) and gray-failure reintegration (Quarantined -> Reintegrating ->
// Active through the tracker). External test package like the chaos tests.
package serve_test

import (
	"testing"
	"time"

	"murmuration/internal/cluster"
	"murmuration/internal/health"
	"murmuration/internal/rpcx"
	"murmuration/internal/runtime"
	"murmuration/internal/serve"
	"murmuration/internal/supernet"
	"murmuration/internal/testutil"
)

// resetGateway builds a gateway over a two-remote scheduler whose clients
// are nil — no traffic ever dispatches, so the tests can poke limiters and
// drive membership/health transitions without sockets.
func resetGateway(t *testing.T) (*serve.Gateway, *runtime.Runtime, *runtime.Scheduler, *cluster.Manager) {
	t.Helper()
	a := supernet.TinyArch(4)
	net := supernet.New(a, 810)
	sched := runtime.NewScheduler(net, make([]*rpcx.Client, 2))
	rt := runtime.New(sched, liveSpreadDecider(a), runtime.NewStrategyCache(8, 25, 5, 10), nil)
	rt.SetLinkState(0, 100, 5)
	rt.SetLinkState(1, 100, 5)
	probe := cluster.ProbeFunc(func(time.Duration) (time.Duration, uint64, error) { return time.Millisecond, 0, nil })
	// Never Started: the tests drive transitions via MarkDown/ReportSuccess,
	// which publish events to the gateway's cluster glue directly.
	m := cluster.NewManager([]cluster.ProbeFunc{probe, probe}, cluster.Options{})
	g := serve.New(rt, serve.Options{Workers: 1, MaxBatch: 1, MaxLinger: time.Millisecond, QueueDepth: 4, Cluster: m})
	return g, rt, sched, m
}

// TestReinstateResetsLimiter covers the detector direction: a device goes
// Down with a cut AIMD limit, and its Up reinstatement must restore the
// limit to Start.
func TestReinstateResetsLimiter(t *testing.T) {
	testutil.CheckGoroutines(t)
	g, rt, sched, m := resetGateway(t)
	defer m.Close()
	g.AttachHealth(serve.HealthOptions{
		ProbeEvery: -1,
		TickEvery:  time.Hour, // the tests below never need the tick loop
	})
	defer g.Close(time.Second)

	lim := sched.Limiter(1)
	start := lim.Snapshot().Limit
	lim.Cut()
	if cut := lim.Snapshot().Limit; cut >= start {
		t.Fatalf("Cut did not lower the limit: %d -> %d", start, cut)
	}

	waitFor := func(desc string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if cond() {
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		t.Fatalf("timed out waiting for %s", desc)
	}
	m.MarkDown(0)
	waitFor("demotion", func() bool { return !rt.Devices.Snapshot()[0].Up })
	m.ReportSuccess(0, time.Millisecond)
	waitFor("reinstatement with a fresh limiter", func() bool {
		return rt.Devices.Snapshot()[0].Up && lim.Snapshot().Limit == start
	})
}

// TestReintegrationResetsLimiter covers the tracker direction: a device is
// grayed into quarantine (losing hedge-alternate eligibility), ramps back
// at reduced weight, and completing reintegration must reset its cut AIMD
// limit. The tracker's clock is driven manually on a synthetic timeline —
// transitions fire synchronously from Tick, so every assertion is
// deterministic.
func TestReintegrationResetsLimiter(t *testing.T) {
	testutil.CheckGoroutines(t)
	const win = 50 * time.Millisecond
	g, rt, sched, m := resetGateway(t)
	defer m.Close()
	tr := g.AttachHealth(serve.HealthOptions{
		Tracker: health.Options{
			Window:           win,
			MinSamples:       2,
			FailureRate:      0.5,
			GrayWindows:      1,
			CleanWindows:     1,
			ReintegrateAfter: win,
			RampWeights:      []float64{0.5},
		},
		ProbeEvery: -1,
		TickEvery:  time.Hour, // quiet: this test owns the tracker's clock
	})
	defer g.Close(time.Second)

	now := time.Unix(0, 0)
	tick := func() { now = now.Add(win); tr.Tick(now) }
	grayWindow := func() {
		for k := 0; k < 4; k++ {
			tr.ObserveFailure(0, now)
			tr.ObserveOK(1, time.Millisecond, now)
		}
		tick()
	}
	cleanWindow := func() {
		for k := 0; k < 4; k++ {
			tr.ObserveOK(0, time.Millisecond, now)
			tr.ObserveOK(1, time.Millisecond, now)
		}
		tick()
	}
	tr.Tick(now) // anchor the window clock

	grayWindow() // Active -> Probation
	grayWindow() // Probation -> Quarantined
	if st := tr.StateOf(0); st != health.Quarantined {
		t.Fatalf("after two gray windows: %v, want Quarantined", st)
	}
	if !rt.Devices.Snapshot()[0].Quarantined {
		t.Fatal("quarantine did not reach the runtime mask")
	}
	// Hedge-alternate eligibility is revoked: with device 2 as primary, the
	// only alternate would be device 1, and it is quarantined.
	if alt := rt.AlternateFor(2); alt != 0 {
		t.Fatalf("AlternateFor(2) = %d while device 1 is quarantined, want 0", alt)
	}

	lim := sched.Limiter(1)
	start := lim.Snapshot().Limit
	lim.Cut()

	cleanWindow() // earns the clean streak; dwell also elapses -> Reintegrating
	if st := tr.StateOf(0); st != health.Reintegrating {
		t.Fatalf("after a clean window past the dwell: %v, want Reintegrating", st)
	}
	if w := tr.Weight(0); w != 0.5 {
		t.Fatalf("ramp weight %v, want 0.5 — reintegration must not absorb full traffic at once", w)
	}
	if rt.Devices.Snapshot()[0].Quarantined {
		t.Fatal("reintegrating device still masked out of placement")
	}
	if got := lim.Snapshot().Limit; got >= start {
		t.Fatalf("limit %d already restored during the ramp, want the reset only on completion", got)
	}

	cleanWindow() // ramp complete -> Active, limiter reset fires synchronously
	if st := tr.StateOf(0); st != health.Active {
		t.Fatalf("after the ramp: %v, want Active", st)
	}
	if got := lim.Snapshot().Limit; got != start {
		t.Fatalf("completed reintegration left the limit at %d, want %d", got, start)
	}
	if w := tr.Weight(0); w != 1 {
		t.Fatalf("active weight %v, want 1", w)
	}
	if alt := rt.AlternateFor(2); alt != 1 {
		t.Fatalf("AlternateFor(2) = %d after reintegration, want 1", alt)
	}
	if c := tr.Counters(); c.Reintegrations != 1 {
		t.Fatalf("counters %+v, want exactly one completed reintegration", c)
	}
}
