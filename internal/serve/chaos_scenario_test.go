// Chaos tests driven by the scenario engine: instead of ad-hoc goroutine
// sleeps deciding when the fault lands, each test's fault timeline is a
// seeded trace replayed through scenario.Player — Advance(t) applies every
// environment transition up to logical time t, synchronously, exactly
// between two phases of the test. External test package: scenario imports
// serve, so these tests cannot live inside package serve.
package serve_test

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"murmuration/internal/cluster"
	"murmuration/internal/fault"
	"murmuration/internal/monitor"
	"murmuration/internal/netem"
	"murmuration/internal/rl/env"
	"murmuration/internal/rpcx"
	"murmuration/internal/runtime"
	"murmuration/internal/scenario"
	"murmuration/internal/serve"
	"murmuration/internal/supernet"
	"murmuration/internal/tensor"
	"murmuration/internal/testutil"
)

func chaosInput(seed int64) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	x := tensor.New(1, 3, 32, 32)
	x.RandNormal(rng, 0.5)
	return x
}

func chaosLatSLO(ms float64) runtime.SLO {
	return runtime.SLO{Type: env.LatencySLO, Value: ms}
}

func chaosDaemon(t *testing.T, net *supernet.Supernet, addr string) (*rpcx.Server, string) {
	t.Helper()
	srv := rpcx.NewServer()
	runtime.NewExecutor(net).Register(srv)
	monitor.RegisterHandlers(srv)
	cluster.NewNode().Register(srv)
	got, err := srv.Listen(addr)
	if err != nil {
		t.Fatalf("listen %q: %v", addr, err)
	}
	return srv, got
}

func chaosDial(t *testing.T, addr string, sh *netem.Shaper) *rpcx.Client {
	t.Helper()
	c, err := rpcx.Dial(addr, sh)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	c.SetRetryPolicy(rpcx.RetryPolicy{MaxAttempts: 2, BaseBackoff: 5 * time.Millisecond})
	c.MarkIdempotent(runtime.ExecBlockMethod, monitor.PingMethod)
	return c
}

// liveSpreadDecider spreads tiles round-robin over every device whose link
// looks alive (the runtime degrades a down device's link to ~zero).
func liveSpreadDecider(a *supernet.Arch) runtime.DeciderFunc {
	return func(c env.Constraint) (*env.Decision, error) {
		cfg := a.MinConfig()
		costs, _ := a.Costs(cfg)
		p := supernet.LocalPlacement(costs)
		var live []int
		for i, bw := range c.BandwidthMbps {
			if bw > 1 {
				live = append(live, i+1)
			}
		}
		if len(live) > 0 {
			n := 0
			for k := range p.Devices {
				for ti := range p.Devices[k] {
					p.Devices[k][ti] = live[n%len(live)]
					n++
				}
			}
		}
		return &env.Decision{Config: cfg, Placement: p}, nil
	}
}

// TestChaosLatencySpike drives the gateway through a scripted network latency
// spike and asserts the paper's "degrade, don't drop" contract end to end:
//
//   - during the spike, at least 90% of latency-SLO requests that rung 0
//     could no longer serve complete as Served-with-Degraded (the first
//     request or two are the learning cost — typed budget drops, never
//     Failed);
//   - hedged second attempts fire but never exceed the configured hedge
//     budget fraction of primary calls;
//   - deadline pressure is not device death: the failure detector keeps
//     both devices Up and no failover is attempted;
//   - once the spike clears, the hysteresis ladder climbs back to rung 0.
//
// The spike itself is a trace: SetDelay transitions at logical offsets,
// applied between test phases by scenario.Player — no wall-clock sleeps
// decide when the network turns bad.
func TestChaosLatencySpike(t *testing.T) {
	testutil.CheckGoroutines(t)
	const (
		sloMs        = 1500
		spikeDelayMs = 600
		calmDelayMs  = 2
		baselineReqs = 5
		spikeReqs    = 30

		// Logical trace offsets: the spike starts after the baseline phase
		// and clears after the spike phase. The test advances the player to
		// each mark explicitly.
		spikeAt = 10 * time.Millisecond
		clearAt = 20 * time.Millisecond
	)
	a := supernet.TinyArch(4)
	net := supernet.New(a, 303)

	srv1, addr1 := chaosDaemon(t, net, "127.0.0.1:0")
	defer srv1.Close()
	srv2, addr2 := chaosDaemon(t, net, "127.0.0.1:0")
	defer srv2.Close()

	// Data clients ride mutable shapers — the trace's SetDelay events are the
	// spike lever. Retry + idempotent marking so budget-poisoned connections
	// re-dial instead of failing the next call.
	sh1 := netem.NewShaper(0, calmDelayMs*time.Millisecond)
	sh2 := netem.NewShaper(0, calmDelayMs*time.Millisecond)
	data1, data2 := chaosDial(t, addr1, sh1), chaosDial(t, addr2, sh2)
	defer data1.Close()
	defer data2.Close()

	sched := runtime.NewScheduler(net, []*rpcx.Client{data1, data2})
	sched.RemoteTimeout = 10 * time.Second
	sched.Hedge = &runtime.HedgePolicy{After: 40 * time.Millisecond, BudgetFrac: 0.2}

	rt := runtime.New(sched, liveSpreadDecider(a), runtime.NewStrategyCache(32, 25, 5, 10), nil)
	rt.SetLinkState(0, 100, 5)
	rt.SetLinkState(1, 100, 5)
	rt.SetSLO(chaosLatSLO(sloMs))

	// Heartbeats ride dedicated UNSHAPED connections: a latency spike on the
	// data path must read as deadline pressure, never as device death.
	hb1, hb2 := chaosDial(t, addr1, nil), chaosDial(t, addr2, nil)
	defer hb1.Close()
	defer hb2.Close()
	m := cluster.NewManager(
		[]cluster.ProbeFunc{cluster.PingProbe(hb1), cluster.PingProbe(hb2)},
		cluster.Options{
			HeartbeatInterval: 10 * time.Millisecond,
			SuspectAfter:      50 * time.Millisecond,
			DownAfter:         120 * time.Millisecond,
		})
	defer m.Close()

	g := serve.New(rt, serve.Options{
		Workers: 1, MaxBatch: 4, MaxLinger: time.Millisecond, QueueDepth: 32,
		MaxRung: 3, LadderHysteresis: 4,
	})
	defer g.Close(5 * time.Second)
	g.AttachCluster(m)
	m.Start()

	// The fault timeline as data: spike both links, later restore both.
	spike := &scenario.Trace{
		Name: "latency-spike",
		Seed: 303,
		Events: []scenario.Event{
			{At: spikeAt, Kind: scenario.EvSetDelay, Device: 0, Value: spikeDelayMs},
			{At: spikeAt, Kind: scenario.EvSetDelay, Device: 1, Value: spikeDelayMs},
			{At: clearAt, Kind: scenario.EvSetDelay, Device: 0, Value: calmDelayMs},
			{At: clearAt, Kind: scenario.EvSetDelay, Device: 1, Value: calmDelayMs},
		},
	}
	orch := scenario.NewOrchestrator([]scenario.Target{{Shaper: sh1}, {Shaper: sh2}})
	player := scenario.NewPlayer(orch, spike)

	// Phase 1 — calm baseline: everything serves at full quality, seeding the
	// rung-0 cost estimate and the batch EMA the spike will invalidate.
	for i := 0; i < baselineReqs; i++ {
		out, err := g.Submit(chaosInput(int64(i)), chaosLatSLO(sloMs))
		if err != nil {
			t.Fatalf("baseline request %d: %v", i, err)
		}
		if out.Rung != 0 {
			t.Fatalf("baseline request %d served at rung %d, want 0", i, out.Rung)
		}
	}

	// Phase 2 — spike: advance the player past the SetDelay events. Both data
	// links jump to a delay that makes any remote hop blow the SLO. The
	// system must learn this (a drop or two) and then keep serving degraded
	// instead of dropping.
	if n, err := player.Advance(spikeAt); err != nil || n != 2 {
		t.Fatalf("spike transition applied %d events, err=%v; want 2, nil", n, err)
	}
	served, servedDegraded := 0, 0
	for i := 0; i < spikeReqs; i++ {
		out, err := g.Submit(chaosInput(int64(100+i)), chaosLatSLO(sloMs))
		if err != nil {
			if fault.Of(err).Policy().Bucket == fault.BucketFailed {
				t.Fatalf("spike request %d: unexpected error class: %v", i, err)
			}
			continue
		}
		served++
		if out.Rung > 0 {
			servedDegraded++
		}
	}
	if served < spikeReqs*9/10 {
		t.Fatalf("spike window served %d/%d, want >= 90%%", served, spikeReqs)
	}
	if servedDegraded == 0 {
		t.Fatal("no spike-window request was served degraded")
	}
	if r := g.Ladder().Rung(); r == 0 {
		t.Fatal("ladder still at rung 0 at the end of the spike window")
	}

	// Phase 3 — recovery: finish the trace (the restore events) and the
	// hysteresis ladder must climb all the way back to full quality.
	if n, err := player.Finish(); err != nil || n != 2 {
		t.Fatalf("restore transition applied %d events, err=%v; want 2, nil", n, err)
	}
	if player.Remaining() != 0 {
		t.Fatalf("%d trace events never applied", player.Remaining())
	}
	recovered := false
	for i := 0; i < 60; i++ {
		if _, err := g.Submit(chaosInput(int64(200+i)), chaosLatSLO(sloMs)); err != nil &&
			fault.Of(err).Policy().Bucket == fault.BucketFailed {
			t.Fatalf("recovery request %d: unexpected error class: %v", i, err)
		}
		if g.Ladder().Rung() == 0 {
			recovered = true
			break
		}
	}
	if !recovered {
		t.Fatalf("ladder never climbed back to rung 0: %+v", g.Ladder().Counters())
	}
	out, err := g.Submit(chaosInput(999), chaosLatSLO(sloMs))
	if err != nil || out.Rung != 0 {
		t.Fatalf("post-recovery request: err=%v rung=%d, want full quality", err, out.Rung)
	}

	st := g.Stats()
	ss := sched.Stats()
	if st.Failed != 0 {
		t.Fatalf("latency spike produced Failed=%d, want 0 (typed drops only): %+v", st.Failed, st)
	}
	if st.Degraded == 0 || st.DegradedRungs < st.Degraded {
		t.Fatalf("degradation counters %d/%d: %+v", st.Degraded, st.DegradedRungs, st)
	}
	if st.BudgetExhausted == 0 {
		t.Fatalf("expected typed budget drops while learning the spike: %+v", st)
	}
	if c := g.Ladder().Counters(); c.Degradations == 0 || c.Promotions == 0 {
		t.Fatalf("ladder counters %+v, want both descents and promotions", c)
	}
	// Hedging: second attempts fired during the spike, and never beyond the
	// configured fraction of primary calls.
	if ss.Hedges == 0 {
		t.Fatalf("no hedged attempts during a %dms spike: %+v", spikeDelayMs, ss)
	}
	if max := uint64(sched.Hedge.BudgetFrac*float64(ss.RemoteCalls)) + 1; ss.Hedges > max {
		t.Fatalf("hedges %d exceed budget (frac %.2f of %d calls): %+v",
			ss.Hedges, sched.Hedge.BudgetFrac, ss.RemoteCalls, ss)
	}
	if st.Hedges != ss.Hedges || st.HedgeWins != ss.HedgeWins {
		t.Fatalf("gateway stats do not mirror scheduler hedging: %+v vs %+v", st, ss)
	}
	// Deadline pressure must never look like device death.
	if st.FailoverAttempts != 0 {
		t.Fatalf("latency spike triggered failover: %+v", st)
	}
	for dev := 0; dev < 2; dev++ {
		if m.StateOf(dev) != cluster.Up {
			t.Fatalf("device %d is %v after a latency-only spike, want Up", dev, m.StateOf(dev))
		}
	}
	if h := rt.Devices.Snapshot(); !h[0].Up || !h[1].Up {
		t.Fatalf("healthy map %v after a latency-only spike", h)
	}
	if st.Admitted != st.Served+st.Dropped+st.Failed {
		t.Fatalf("ledger broken: %+v", st)
	}
}

// TestChaosDeviceKill is the fault-injection load test: concurrent clients
// drive a gateway over real sockets while one of its two device daemons is
// killed mid-run and later restarted on the same address. The kill and the
// restart are trace events applied through the scenario orchestrator's
// leave/join hooks — the test decides when to advance the timeline by
// observed progress (enough requests served), not by sleeping and hoping.
//
// The serving invariant must hold throughout (no request vanishes), the
// outage must not fail requests (failover serves them on the surviving
// device), and once the daemon returns the detector must reintegrate it so
// strategies place work there again.
func TestChaosDeviceKill(t *testing.T) {
	testutil.CheckGoroutines(t)
	const (
		numClients    = 8
		reqsPerClient = 6
		sloMs         = 30000 // generous: -race plus outage retries are slow

		killAt    = 10 * time.Millisecond // logical offsets on the trace clock
		restartAt = 20 * time.Millisecond
	)
	a := supernet.TinyArch(4)
	net := supernet.New(a, 302)

	srv1, addr1 := chaosDaemon(t, net, "127.0.0.1:0")
	srv2, addr2 := chaosDaemon(t, net, "127.0.0.1:0")
	defer srv2.Close()

	data1, data2 := chaosDial(t, addr1, nil), chaosDial(t, addr2, nil)
	defer data1.Close()
	defer data2.Close()

	sched := runtime.NewScheduler(net, []*rpcx.Client{data1, data2})
	sched.RemoteTimeout = 10 * time.Second

	rt := runtime.New(sched, liveSpreadDecider(a), runtime.NewStrategyCache(32, 25, 5, 10), nil)
	rt.SetLinkState(0, 100, 5)
	rt.SetLinkState(1, 100, 5)
	rt.SetSLO(chaosLatSLO(sloMs))

	// Heartbeats ride dedicated clients (a probe through the data client
	// could wait for a connection behind a slow batch).
	hb1, hb2 := chaosDial(t, addr1, nil), chaosDial(t, addr2, nil)
	defer hb1.Close()
	defer hb2.Close()
	m := cluster.NewManager(
		[]cluster.ProbeFunc{cluster.PingProbe(hb1), cluster.PingProbe(hb2)},
		cluster.Options{
			HeartbeatInterval: 10 * time.Millisecond,
			SuspectAfter:      50 * time.Millisecond,
			DownAfter:         120 * time.Millisecond,
		})
	defer m.Close()

	g := serve.New(rt, serve.Options{Workers: 2, MaxBatch: 4, MaxLinger: time.Millisecond, QueueDepth: 32})
	g.AttachCluster(m)
	m.Start()

	gwSrv := rpcx.NewServer()
	g.Register(gwSrv)
	gwAddr, err := gwSrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer gwSrv.Close()

	// The fault timeline as data: device 0 (daemon 1) leaves, then rejoins.
	// Leave kills the live server; join restarts one on the same address.
	var srv1b *rpcx.Server
	orch := scenario.NewOrchestrator([]scenario.Target{{
		Leave: func() { srv1.Close() },
		Join:  func() { srv1b, _ = chaosDaemon(t, net, addr1) },
	}})
	kill := &scenario.Trace{
		Name: "device-kill",
		Seed: 302,
		Events: []scenario.Event{
			{At: killAt, Kind: scenario.EvDeviceLeave, Device: 0},
			{At: restartAt, Kind: scenario.EvDeviceJoin, Device: 0},
		},
	}
	player := scenario.NewPlayer(orch, kill)
	defer func() {
		if srv1b != nil {
			srv1b.Close()
		}
	}()

	var success, shed, missed, otherErr atomic.Uint64
	var wg sync.WaitGroup
	for c := 0; c < numClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := serve.DialClient(gwAddr)
			if err != nil {
				t.Errorf("client %d dial: %v", c, err)
				return
			}
			defer cl.Close()
			for i := 0; i < reqsPerClient; i++ {
				res, err := cl.Infer(chaosInput(int64(100*c+i)), chaosLatSLO(sloMs), 60*time.Second)
				switch {
				case err == nil:
					success.Add(1)
					if res.Logits == nil || res.Logits.Shape[1] != 4 {
						t.Errorf("client %d: bad logits %v", c, res.Logits)
					}
				case fault.Of(err) == fault.AdmissionShed || fault.Of(err) == fault.Load:
					shed.Add(1)
				case fault.Of(err) == fault.DeadlineMissed:
					missed.Add(1)
				default:
					otherErr.Add(1)
					t.Errorf("client %d req %d: unexpected error %v", c, i, err)
				}
				time.Sleep(5 * time.Millisecond)
			}
		}(c)
	}

	// Progress-gated timeline: once traffic demonstrably flows, advance the
	// trace to the kill; after the detector confirms Down, advance to the
	// restart and wait for reintegration — all mid-load, no blind sleeps.
	waitFor := func(desc string, cond func() bool) {
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
	waitFor("first successes before the kill", func() bool { return success.Load() >= 4 })
	if n, err := player.Advance(killAt); err != nil || n != 1 {
		t.Fatalf("kill event: applied %d, err=%v; want 1, nil", n, err)
	}
	waitFor("member 0 Down", func() bool { return m.StateOf(0) == cluster.Down })
	if n, err := player.Finish(); err != nil || n != 1 {
		t.Fatalf("restart event: applied %d, err=%v; want 1, nil", n, err)
	}
	waitFor("member 0 Up again", func() bool { return m.StateOf(0) == cluster.Up })

	wg.Wait()
	g.Close(30 * time.Second)

	st := g.Stats()
	const total = uint64(numClients * reqsPerClient)
	t.Logf("chaos: %d requests → success=%d shed=%d missed=%d; detector=%+v; stats=%+v",
		total, success.Load(), shed.Load(), missed.Load(), m.CountersSnapshot(), st)

	// Every request got exactly one definitive outcome, and the admission
	// ledger balances: nothing vanished during the outage.
	if got := success.Load() + shed.Load() + missed.Load() + otherErr.Load(); got != total {
		t.Fatalf("outcomes %d != requests %d", got, total)
	}
	if otherErr.Load() != 0 {
		t.Fatalf("%d requests failed with unexpected errors", otherErr.Load())
	}
	if st.Admitted+st.Shed != total {
		t.Fatalf("admitted %d + shed %d != %d attempts", st.Admitted, st.Shed, total)
	}
	if st.Admitted != st.Served+st.Dropped+st.Failed {
		t.Fatalf("admitted %d != served %d + dropped %d + failed %d",
			st.Admitted, st.Served, st.Dropped, st.Failed)
	}
	// Failover, not failure: requests caught on the dying device were retried
	// onto the survivors.
	if st.Failed != 0 {
		t.Fatalf("%d requests failed despite failover", st.Failed)
	}
	if success.Load() == 0 {
		t.Fatal("no request succeeded — chaos test vacuous")
	}
	// The detector saw the churn.
	if c := m.CountersSnapshot(); c.Downs < 1 || c.Recoveries < 1 {
		t.Fatalf("detector counters after kill+restart: %+v", c)
	}
	// Reintegration: with the daemon back and Up, resolution places work on
	// device 1 again (the degraded-constraint bucket is no longer used).
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
}
