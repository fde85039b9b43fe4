// Gray-failure chaos tests: the failure modes heartbeats cannot see. A
// device that answers pings crisply while its compute path runs 10x slow
// must be caught by the SLI-driven health tracker and quarantined; a device
// that cycles leave/join under traffic must cost no request and rejoin
// placement after its last join. External test package for the same reason
// as chaos_scenario_test.go: scenario imports serve.
package serve_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"murmuration"
	"murmuration/internal/cluster"
	"murmuration/internal/fault"
	"murmuration/internal/health"
	"murmuration/internal/monitor"
	"murmuration/internal/rpcx"
	"murmuration/internal/runtime"
	"murmuration/internal/scenario"
	"murmuration/internal/serve"
	"murmuration/internal/supernet"
	"murmuration/internal/testutil"
)

// chaosWaitFor polls cond until it holds or a generous deadline expires —
// progress-gating on observed state, never blind sleeps.
func chaosWaitFor(t *testing.T, desc string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", desc)
}

// TestChaosGrayFailure injects a 10x compute slowdown into one of two device
// daemons — heartbeats untouched — and asserts the gray-failure contract:
//
//   - the SLI tracker quarantines the sick device within the detection
//     window while the heartbeat detector still reports it Up (the failure
//     is invisible to liveness probing, by construction);
//   - with the device quarantined, SLO attainment recovers: a post-detection
//     batch serves >= 90% within SLO on the remaining capacity;
//   - once the injection clears, synthetic probes feed the quarantined
//     device's ledger, it completes the reintegration ramp, returns to
//     Active, and placement uses it again;
//   - the admission ledger stays exact throughout.
func TestChaosGrayFailure(t *testing.T) {
	testutil.CheckGoroutines(t)
	const (
		sloMs      = 30000 // generous: -race plus a 10x-slowed device in the loop
		slowAt     = 10 * time.Millisecond
		clearAt    = 20 * time.Millisecond
		recoveryN  = 30
		slowFactor = 10
	)
	a := supernet.TinyArch(4)
	net := supernet.New(a, 808)

	// Daemon 1 (device 0) wraps its executor in a compute injector: the
	// trace's slow-compute event multiplies every block execution's latency
	// while the daemon keeps answering heartbeats instantly — the canonical
	// gray failure.
	inj := runtime.NewComputeInjector(runtime.NewExecutor(net).ExecBlockHandler())
	srv1 := rpcx.NewServer()
	srv1.Handle(runtime.ExecBlockMethod, inj.Handler())
	monitor.RegisterHandlers(srv1)
	cluster.NewNode().Register(srv1)
	addr1, err := srv1.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv1.Close()
	srv2, addr2 := chaosDaemon(t, net, "127.0.0.1:0")
	defer srv2.Close()

	gw := chaosGateway(t, net, murmuration.GatewayConfig{
		Options: serve.Options{Workers: 2, MaxBatch: 4, MaxLinger: time.Millisecond, QueueDepth: 64},
		// Aggressive detection so the test converges fast: 60ms SLI windows,
		// gray at 2.5x the fleet median for 2 consecutive windows, one clean
		// window to advance, a short quarantine dwell, and a single 50% ramp
		// step.
		Health: serve.HealthOptions{
			Tracker: health.Options{
				Window:           60 * time.Millisecond,
				MinSamples:       2,
				LatencyFactor:    2.5,
				FailureRate:      0.5,
				GrayWindows:      2,
				CleanWindows:     1,
				ReintegrateAfter: 300 * time.Millisecond,
				RampWeights:      []float64{0.5},
			},
			ProbeEvery:   15 * time.Millisecond,
			ProbeTimeout: 5 * time.Second,
			TickEvery:    10 * time.Millisecond,
		},
	}, addr1, addr2)
	defer gw.Close(time.Second)
	g, rt, m, tr := gw.Serve, gw.Runtime, gw.Cluster, gw.Serve.Health()
	rt.SetSLO(chaosLatSLO(sloMs))

	// Background pump: continuous traffic so both devices' SLI ledgers stay
	// fed. Every submission lands in the gateway ledger checked at the end.
	var pumped, pumpOK, pumpBad atomic.Uint64
	stopPump := make(chan struct{})
	var wg sync.WaitGroup
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stopPump:
					return
				default:
				}
				pumped.Add(1)
				_, err := g.Submit(chaosInput(int64(1000*p+i)), chaosLatSLO(sloMs))
				switch {
				case err == nil:
					pumpOK.Add(1)
				case fault.Of(err).Policy().Bucket != fault.BucketFailed:
					// Typed drops are legitimate outcomes under churn.
				default:
					pumpBad.Add(1)
					t.Errorf("pump %d req %d: unexpected error class: %v", p, i, err)
				}
				time.Sleep(time.Millisecond)
			}
		}(p)
	}

	// The fault timeline as data: device 0's compute path turns 10x slow,
	// later recovers.
	gray := &scenario.Trace{
		Name: "gray-failure",
		Seed: 808,
		Events: []scenario.Event{
			{At: slowAt, Kind: scenario.EvSlowCompute, Device: 0, Value: slowFactor},
			{At: clearAt, Kind: scenario.EvSlowCompute, Device: 0, Value: 1},
		},
	}
	orch := scenario.NewOrchestrator([]scenario.Target{{Compute: inj}, {}})
	player := scenario.NewPlayer(orch, gray)

	// Phase 1 — healthy baseline, then inject.
	chaosWaitFor(t, "baseline successes", func() bool { return pumpOK.Load() >= 5 })
	if n, err := player.Advance(slowAt); err != nil || n != 1 {
		t.Fatalf("slow-compute event: applied %d, err=%v; want 1, nil", n, err)
	}

	// Phase 2 — detection: the tracker must quarantine device 0 while the
	// heartbeat detector still says Up (probes never touched the injector).
	chaosWaitFor(t, "device 0 quarantined while heartbeats stay Up", func() bool {
		return tr.StateOf(0) == health.Quarantined &&
			rt.Devices.Snapshot()[0].Quarantined &&
			m.StateOf(0) == cluster.Up
	})
	if m.StateOf(0) != cluster.Up {
		t.Fatalf("heartbeat detector reports %v for a compute-only fault, want Up", m.StateOf(0))
	}
	if h := rt.Devices.Snapshot(); !h[0].Up {
		t.Fatalf("gray failure demoted the liveness mask %v — quarantine must be a separate axis", h)
	}
	if c := tr.Counters(); c.GraySuspects == 0 || c.Quarantines == 0 {
		t.Fatalf("tracker counters after detection: %+v", c)
	}

	// Phase 3 — attainment recovery: with the sick device out of placement,
	// a fresh batch must serve >= 90% within SLO on the remaining capacity.
	before := g.Stats()
	okN := 0
	for i := 0; i < recoveryN; i++ {
		if _, err := g.Submit(chaosInput(int64(5000+i)), chaosLatSLO(sloMs)); err == nil {
			okN++
		}
	}
	if okN < recoveryN*9/10 {
		t.Fatalf("post-quarantine batch served %d/%d, want >= 90%%", okN, recoveryN)
	}
	after := g.Stats()
	var met, total uint64
	for k := range after.ClassMet {
		met += after.ClassMet[k] - before.ClassMet[k]
		total += after.ClassMet[k] - before.ClassMet[k] + after.ClassMissed[k] - before.ClassMissed[k]
	}
	if total == 0 || float64(met)/float64(total) < 0.9 {
		t.Fatalf("post-quarantine SLO attainment %d/%d, want >= 0.9", met, total)
	}

	// Phase 4 — cure and reintegration: clear the injection; synthetic probes
	// feed clean windows, the ramp completes, and the device is Active again.
	if n, err := player.Finish(); err != nil || n != 1 {
		t.Fatalf("clear event: applied %d, err=%v; want 1, nil", n, err)
	}
	chaosWaitFor(t, "device 0 back to Active", func() bool { return tr.StateOf(0) == health.Active })
	if rt.Devices.Snapshot()[0].Quarantined {
		t.Fatal("device 0 still masked quarantined after completing reintegration")
	}
	if c := tr.Counters(); c.Reintegrations == 0 {
		t.Fatalf("no completed reintegration recorded: %+v", c)
	}
	// Placement uses the recovered device again.
	res, err := rt.ResolveFor(rt.SLO())
	if err != nil {
		t.Fatal(err)
	}
	placed := false
	for _, layer := range res.Decision.Placement.Devices {
		for _, dev := range layer {
			if dev == 1 {
				placed = true
			}
		}
	}
	if !placed {
		t.Fatalf("recovered device 1 not back in the placement: %v", res.Decision.Placement.Devices)
	}

	close(stopPump)
	wg.Wait()
	g.Close(30 * time.Second)

	st := g.Stats()
	t.Logf("gray chaos: pumped=%d ok=%d; injector=%v; tracker=%+v; stats Admitted=%d Served=%d Dropped=%d Failed=%d",
		pumped.Load(), pumpOK.Load(), func() [2]uint64 { s, e := inj.Counters(); return [2]uint64{s, e} }(),
		tr.Counters(), st.Admitted, st.Served, st.Dropped, st.Failed)
	if slowed, _ := inj.Counters(); slowed == 0 {
		t.Fatal("injector never slowed a block — the fault never landed, test vacuous")
	}
	if st.Admitted != st.Served+st.Dropped+st.Failed {
		t.Fatalf("ledger broken: admitted %d != served %d + dropped %d + failed %d",
			st.Admitted, st.Served, st.Dropped, st.Failed)
	}
	if st.GraySuspects == 0 || st.Quarantines == 0 || st.Reintegrations == 0 {
		t.Fatalf("health counters missing from stats: %+v", st)
	}
}

// TestChaosFlappingDevice cycles one device through leave/join three times
// under traffic and asserts the churn costs nothing a request can see: zero
// Failed, an exact admission ledger, strategy-cache invalidations bounded,
// and the device back in placement after the last join — a device the
// detector reports Up takes tiles again at once.
func TestChaosFlappingDevice(t *testing.T) {
	testutil.CheckGoroutines(t)
	const sloMs = 30000
	a := supernet.TinyArch(4)
	net := supernet.New(a, 809)

	srv1, addr1 := chaosDaemon(t, net, "127.0.0.1:0")
	srv2, addr2 := chaosDaemon(t, net, "127.0.0.1:0")
	defer srv2.Close()

	gw := chaosGateway(t, net, murmuration.GatewayConfig{
		Options: serve.Options{Workers: 2, MaxBatch: 4, MaxLinger: time.Millisecond, QueueDepth: 32},
		// The tracker is along for the ride: 10s windows never roll during
		// the test, and probing is off.
		Health: serve.HealthOptions{
			Tracker:    health.Options{Window: 10 * time.Second},
			ProbeEvery: -1,
			TickEvery:  10 * time.Millisecond,
		},
	}, addr1, addr2)
	defer gw.Close(time.Second)
	g, rt, m := gw.Serve, gw.Runtime, gw.Cluster
	rt.SetSLO(chaosLatSLO(sloMs))

	// The flap timeline as data: device 0 leaves and rejoins three times.
	// Each join restarts a daemon on the same address. The test advances each
	// event only after the detector confirmed the previous transition, so
	// every flip is actually observed (no event coalescing).
	var restarts []*rpcx.Server
	orch := scenario.NewOrchestrator([]scenario.Target{{
		Leave: func() {
			if n := len(restarts); n > 0 {
				restarts[n-1].Close()
			} else {
				srv1.Close()
			}
		},
		Join: func() {
			s, _ := chaosDaemon(t, net, addr1)
			restarts = append(restarts, s)
		},
	}, {}})
	orch.AttachCluster(m)
	var events []scenario.Event
	for i := 0; i < 3; i++ {
		events = append(events,
			scenario.Event{At: time.Duration(10*(2*i+1)) * time.Millisecond, Kind: scenario.EvDeviceLeave, Device: 0},
			scenario.Event{At: time.Duration(10*(2*i+2)) * time.Millisecond, Kind: scenario.EvDeviceJoin, Device: 0},
		)
	}
	player := scenario.NewPlayer(orch, &scenario.Trace{Name: "flapping-device", Seed: 809, Events: events})
	defer func() {
		for _, s := range restarts {
			s.Close()
		}
	}()

	submit := func(n, base int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := g.Submit(chaosInput(int64(base+i)), chaosLatSLO(sloMs)); err != nil &&
				fault.Of(err).Policy().Bucket == fault.BucketFailed {
				t.Fatalf("request %d: unexpected error class: %v", base+i, err)
			}
		}
	}
	submit(4, 0)

	advance := func(to time.Duration, what string) {
		t.Helper()
		if n, err := player.Advance(to); err != nil || n != 1 {
			t.Fatalf("%s: applied %d, err=%v; want 1, nil", what, n, err)
		}
	}
	for i := 1; i <= 3; i++ {
		advance(time.Duration(10*(2*i-1))*time.Millisecond, fmt.Sprintf("leave %d", i))
		chaosWaitFor(t, fmt.Sprintf("down %d", i), func() bool { return m.StateOf(0) == cluster.Down })
		advance(time.Duration(10*(2*i))*time.Millisecond, fmt.Sprintf("join %d", i))
		chaosWaitFor(t, fmt.Sprintf("up %d", i), func() bool { return m.StateOf(0) == cluster.Up })
		chaosWaitFor(t, fmt.Sprintf("reinstated after flap %d", i), func() bool { return rt.Devices.Snapshot()[0].Up })
		submit(4, 100*i)
	}
	if player.Remaining() != 0 {
		t.Fatalf("%d trace events never applied", player.Remaining())
	}
	if !rt.Devices.Eligible(1) {
		t.Fatalf("device 1 out of placement after the last join: %+v", rt.Devices.Snapshot()[0])
	}

	g.Close(30 * time.Second)

	st := g.Stats()
	t.Logf("flap chaos: detector=%+v; cache invalidations=%d; stats Admitted=%d Served=%d Dropped=%d Failed=%d Degraded=%d",
		m.CountersSnapshot(), st.Cache.Invalidations,
		st.Admitted, st.Served, st.Dropped, st.Failed, st.Degraded)
	// Each Down may drop a handful of cached placements on the device; three
	// flaps must not thrash the cache.
	if st.Cache.Invalidations > 16 {
		t.Fatalf("strategy-cache invalidations %d — flapping thrashed the cache", st.Cache.Invalidations)
	}
	// A request caught on the leaving device fails over: zero Failed, exact
	// ledger.
	if st.Failed != 0 {
		t.Fatalf("%d requests failed despite a stable second device", st.Failed)
	}
	if st.Admitted != st.Served+st.Dropped+st.Failed {
		t.Fatalf("ledger broken: admitted %d != served %d + dropped %d + failed %d",
			st.Admitted, st.Served, st.Dropped, st.Failed)
	}
}
