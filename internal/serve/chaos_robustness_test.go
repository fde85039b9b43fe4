// Restart- and partition-immunity chaos tests: incarnation-fenced
// reconfiguration on an in-place daemon restart, and asymmetric network
// faults that heartbeats cannot see. Like chaos_scenario_test.go, the fault
// timeline is scenario data applied between observed phases, never a blind
// sleep.
package serve_test

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"murmuration/internal/cluster"
	"murmuration/internal/health"
	"murmuration/internal/monitor"
	"murmuration/internal/netem"
	"murmuration/internal/rl/env"
	"murmuration/internal/rpcx"
	"murmuration/internal/runtime"
	"murmuration/internal/scenario"
	"murmuration/internal/serve"
	"murmuration/internal/supernet"
	"murmuration/internal/testutil"
)

// TestChaosDaemonRestart drives the full incarnation-fencing path end to end.
// Device 0's daemon is "restarted" as the nastiest variant: the old process
// stays alive as a zombie that still owns its socket and keeps computing,
// while the replacement (next incarnation) comes up elsewhere and the
// gateway's dialer now resolves to it. The heartbeat path discovers the new
// incarnation; the restart must be detected as an atomic Down→Up within a
// few heartbeat periods, every zombie response still in flight must be
// fenced — counted, never delivered, never fed to health — and the fenced
// batch must ride the ordinary retry path to a successful outcome.
func TestChaosDaemonRestart(t *testing.T) {
	testutil.CheckGoroutines(t)
	const (
		sloMs     = 30000
		heartbeat = 25 * time.Millisecond
		restartAt = 10 * time.Millisecond // logical trace offset
	)
	inc1 := uint64(1)<<48 | 0xA1 // zombie's incarnation (restart #1)
	inc2 := uint64(2)<<48 | 0xC3 // replacement's incarnation (restart #2)

	a := supernet.TinyArch(4)
	snet := supernet.New(a, 401)

	// Zombie-capable daemon: its ExecBlock handler counts in-flight calls (so
	// the test can trigger the restart while one is provably on the wire) and
	// rides a compute injector whose slowdown stretches the zombie's answers
	// past the detection latency.
	var zombieBusy atomic.Int64
	inj1 := runtime.NewComputeInjector(runtime.NewExecutor(snet).ExecBlockHandler())
	srv1 := rpcx.NewServer()
	srv1.Handle(runtime.ExecBlockMethod, func(p []byte) ([]byte, error) {
		zombieBusy.Add(1)
		defer zombieBusy.Add(-1)
		return inj1.Handler()(p)
	})
	monitor.RegisterHandlers(srv1)
	cluster.NewNode().Register(srv1)
	srv1.SetIncarnation(inc1)
	addr1, err := srv1.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv1.Close()

	srv2, addr2 := chaosDaemon(t, snet, "127.0.0.1:0")
	srv2.SetIncarnation(uint64(1)<<48 | 0xB2)
	defer srv2.Close()

	// Both device-0 connections re-dial through a mutable target, so swapping
	// it models "the address now resolves to the replacement process" while
	// the zombie keeps its established connections.
	var target atomic.Value
	target.Store(addr1)
	redial := func() (net.Conn, error) { return net.Dial("tcp", target.Load().(string)) }

	data1, data2 := chaosDial(t, addr1, nil), chaosDial(t, addr2, nil)
	defer data1.Close()
	defer data2.Close()
	data1.SetDialer(redial)
	if _, err := data1.Handshake(2 * time.Second); err != nil {
		t.Fatalf("handshake device 1: %v", err)
	}
	if _, err := data2.Handshake(2 * time.Second); err != nil {
		t.Fatalf("handshake device 2: %v", err)
	}

	sched := runtime.NewScheduler(snet, []*rpcx.Client{data1, data2})
	sched.RemoteTimeout = 15 * time.Second
	rt := runtime.New(sched, liveSpreadDecider(a), runtime.NewStrategyCache(32, 25, 5, 10), nil)
	rt.SetLinkState(0, 100, 5)
	rt.SetLinkState(1, 100, 5)
	rt.SetSLO(chaosLatSLO(sloMs))

	hb1, hb2 := chaosDial(t, addr1, nil), chaosDial(t, addr2, nil)
	defer hb1.Close()
	defer hb2.Close()
	hb1.SetDialer(redial)
	m := cluster.NewManager(
		[]cluster.ProbeFunc{cluster.PingProbe(hb1), cluster.PingProbe(hb2)},
		cluster.Options{
			HeartbeatInterval: heartbeat,
			SuspectAfter:      8 * heartbeat,
			DownAfter:         20 * heartbeat,
		})
	defer m.Close()

	var restartedAt atomic.Value // time.Time: when the replacement took over
	detected := make(chan uint64, 1)
	g := serve.New(rt, serve.Options{
		Workers: 2, MaxBatch: 4, MaxLinger: time.Millisecond, QueueDepth: 64, Cluster: m,
		OnRestart: func(dev int, incarnation uint64) {
			if dev == 1 {
				select {
				case detected <- incarnation:
				default:
				}
			}
		},
	})
	defer g.Close(30 * time.Second)
	// Health rides along to prove fenced responses never reach its ledger:
	// the failure-rate gate is live, and the latency gate is disabled because
	// the zombie's slow answers are the test's own injection.
	tr := g.AttachHealth(serve.HealthOptions{
		Tracker: health.Options{
			Window: 150 * time.Millisecond, MinSamples: 1,
			LatencyFactor: 1e9, FailureRate: 0.3, GrayWindows: 2,
			ReintegrateAfter: time.Hour,
		},
		ProbeEvery: -1,
	})
	m.Start()

	// The restart as trace data: the replacement starts, the address flips,
	// and the heartbeat path is forced off the zombie's connection.
	var srv1b *rpcx.Server
	orch := scenario.NewOrchestrator([]scenario.Target{{
		Restart: func() {
			var addr1b string
			srv1b, addr1b = chaosDaemon(t, snet, "127.0.0.1:0")
			srv1b.SetIncarnation(inc2)
			target.Store(addr1b)
			restartedAt.Store(time.Now())
			hb1.ForceRedial()
		},
	}, {}})
	player := scenario.NewPlayer(orch, &scenario.Trace{
		Name: "daemon-restart", Seed: 401,
		Events: []scenario.Event{{At: restartAt, Kind: scenario.EvRestart, Device: 0}},
	})
	defer func() {
		if srv1b != nil {
			srv1b.Close()
		}
	}()

	// Phase 1 — baseline: both devices serve, the scheduler adopts inc1.
	for i := 0; i < 3; i++ {
		if _, err := g.Submit(chaosInput(int64(i)), chaosLatSLO(sloMs)); err != nil {
			t.Fatalf("baseline request %d: %v", i, err)
		}
	}
	if got := sched.Devices.Snapshot()[0].Incarnation; got != inc1 {
		t.Fatalf("scheduler adopted incarnation %#x, want %#x", got, inc1)
	}
	// The detector must know the zombie's identity before the restart, or the
	// new incarnation would look like a first acquaintance, not a change.
	chaosWaitFor(t, "detector learned the baseline incarnation",
		func() bool { return m.IncarnationOf(0) == inc1 })

	// Phase 2 — wedge a batch on the zombie, then restart under it. The
	// slowdown keeps the zombie's in-flight answer on the wire long past
	// detection, so it must come back under the old incarnation after the
	// fence is up.
	inj1.SetSlowdown(1000)
	var wg sync.WaitGroup
	var success, failed atomic.Uint64
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				if _, err := g.Submit(chaosInput(int64(100*c+i)), chaosLatSLO(sloMs)); err != nil {
					// A restart mid-batch may fail a request through the
					// ordinary Failed path; the ledger check below proves
					// nothing vanished either way.
					failed.Add(1)
				} else {
					success.Add(1)
				}
			}
		}(c)
	}
	chaosWaitFor(t, "a batch in flight on the zombie",
		func() bool { return zombieBusy.Load() >= 1 })
	if n, err := player.Advance(restartAt); err != nil || n != 1 {
		t.Fatalf("restart event: applied %d, err=%v; want 1, nil", n, err)
	}

	// Detection: the incarnation change must surface as a restart event
	// within a few heartbeat periods — no Down dwell, no suspect window.
	var gotInc uint64
	select {
	case gotInc = <-detected:
	case <-time.After(10 * time.Second):
		t.Fatal("restart never detected")
	}
	latency := time.Since(restartedAt.Load().(time.Time))
	if gotInc != inc2 {
		t.Fatalf("restart detected with incarnation %#x, want %#x", gotInc, inc2)
	}
	if latency > 40*heartbeat {
		t.Fatalf("restart detected after %v, want within a few heartbeat periods (%v)", latency, heartbeat)
	}
	t.Logf("restart detected in %v (%.1f heartbeats)", latency, float64(latency)/float64(heartbeat))

	// Fencing: the wedged zombie answer (and any sibling still in flight)
	// must be dropped and counted, never delivered.
	chaosWaitFor(t, "a fenced zombie response",
		func() bool { return sched.Stats().FencedResponses >= 1 })
	wg.Wait()

	// Phase 3 — the replacement serves: new traffic lands on incarnation 2.
	for i := 0; i < 5; i++ {
		if _, err := g.Submit(chaosInput(int64(500+i)), chaosLatSLO(sloMs)); err != nil {
			t.Fatalf("post-restart request %d: %v", i, err)
		}
	}
	if got := sched.Devices.Snapshot()[0].Incarnation; got != inc2 {
		t.Fatalf("scheduler still expects incarnation %#x after restart, want %#x", got, inc2)
	}

	g.Close(30 * time.Second)
	st := g.Stats()
	t.Logf("restart chaos: success=%d failed=%d stats=%+v detector=%+v",
		success.Load(), failed.Load(), st, m.CountersSnapshot())

	if st.Restarts < 1 {
		t.Fatalf("gateway restart counter %d, want >= 1", st.Restarts)
	}
	if st.FencedResponses < 1 {
		t.Fatalf("fenced responses %d, want >= 1", st.FencedResponses)
	}
	// Restart is not death: the detector never saw a Down, and the member is
	// Up under the new incarnation.
	if c := m.CountersSnapshot(); c.Downs != 0 || c.Restarts < 1 {
		t.Fatalf("detector counters %+v: want zero Downs and >= 1 restart", c)
	}
	if m.StateOf(0) != cluster.Up {
		t.Fatalf("member 0 is %v after restart, want Up", m.StateOf(0))
	}
	if got := m.IncarnationOf(0); got != inc2 {
		t.Fatalf("detector tracks incarnation %#x, want %#x", got, inc2)
	}
	// Fenced responses are a dead process's answers: they must never have fed
	// the health ledger as device failures (device 0 stays Active) and never
	// count as asymmetric-partition evidence.
	if s := tr.StateOf(0); s != health.Active {
		t.Fatalf("device 0 health state %v after fenced responses, want Active", s)
	}
	if st.AsymmetricQuarantines != 0 {
		t.Fatalf("restart chaos charged %d asymmetric quarantines", st.AsymmetricQuarantines)
	}
	// The ledger stays exact through fencing and retries: every admitted
	// request got exactly one outcome.
	if st.Admitted != st.Served+st.Dropped+st.Failed {
		t.Fatalf("ledger broken: admitted %d != served %d + dropped %d + failed %d",
			st.Admitted, st.Served, st.Dropped, st.Failed)
	}
	if uint64(st.Failed) != failed.Load() {
		t.Fatalf("gateway Failed=%d but clients saw %d failures", st.Failed, failed.Load())
	}
	if success.Load() == 0 {
		t.Fatal("no concurrent request succeeded — restart chaos vacuous")
	}
}

// TestChaosAsymmetricPartition wedges one direction of device 0's link for
// large frames only: heartbeats, pings, and hello frames keep flowing, so
// the liveness detector stays Up, while tensor responses stall. The progress
// watchdog must fail the wedged calls in bounded time with a typed stall,
// the health layer must classify the repeated stalls as link-gray and
// quarantine the path (attributed as an asymmetric quarantine, not a device
// fault), and post-quarantine traffic must serve on the healthy device.
func TestChaosAsymmetricPartition(t *testing.T) {
	testutil.CheckGoroutines(t)
	const (
		sloMs   = 30000
		stallMs = 120000 // window far outlives the test; cleared at the end
	)
	a := supernet.TinyArch(4)
	a.Resolutions = append(a.Resolutions, 224) // admit the large rung below
	snet := supernet.New(a, 402)

	// Serving at 224x224 pushes tile responses past rpcx's large-frame
	// threshold (64 KiB), where the response header is flushed ahead of the
	// payload: the client sees the transfer start and then stop — the
	// observable mid-flight stall the progress watchdog exists for. (A
	// response wedged before its first byte is indistinguishable from slow
	// compute and is bounded by the call deadline instead.)
	spread := liveSpreadDecider(a)
	bigDecider := runtime.DeciderFunc(func(c env.Constraint) (*env.Decision, error) {
		d, err := spread(c)
		if err == nil {
			d.Config.Resolution = 224
		}
		return d, err
	})

	// Device 0's server wraps every accepted connection in the Downstream
	// direction of a shared shaper: when the trace opens the stall window,
	// its large response frames (tensors) wedge while small ones pass.
	sh := netem.NewShaper(0, 0)
	srv1 := rpcx.NewServer()
	runtime.NewExecutor(snet).Register(srv1)
	monitor.RegisterHandlers(srv1)
	cluster.NewNode().Register(srv1)
	srv1.WrapConn = func(c net.Conn) net.Conn { return netem.NewConnDir(c, sh, netem.Downstream) }
	addr1, err := srv1.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv1.Close()
	defer sh.SetStallLarge(netem.Downstream, 0, 0) // release any wedged writer

	srv2, addr2 := chaosDaemon(t, snet, "127.0.0.1:0")
	defer srv2.Close()

	data1, data2 := chaosDial(t, addr1, nil), chaosDial(t, addr2, nil)
	defer data1.Close()
	defer data2.Close()
	// In-flight progress deadline: a response that stops advancing fails in
	// ~2 ticks instead of riding out the call timeout.
	data1.SetProgressPolicy(rpcx.ProgressPolicy{Tick: 30 * time.Millisecond, MinBytes: 1})

	sched := runtime.NewScheduler(snet, []*rpcx.Client{data1, data2})
	sched.RemoteTimeout = 2 * time.Second
	rt := runtime.New(sched, bigDecider, runtime.NewStrategyCache(32, 25, 5, 10), nil)
	rt.SetLinkState(0, 100, 5)
	rt.SetLinkState(1, 100, 5)
	rt.SetSLO(chaosLatSLO(sloMs))

	hb1, hb2 := chaosDial(t, addr1, nil), chaosDial(t, addr2, nil)
	defer hb1.Close()
	defer hb2.Close()
	m := cluster.NewManager(
		[]cluster.ProbeFunc{cluster.PingProbe(hb1), cluster.PingProbe(hb2)},
		cluster.Options{
			HeartbeatInterval: 10 * time.Millisecond,
			SuspectAfter:      80 * time.Millisecond,
			DownAfter:         300 * time.Millisecond,
		})
	defer m.Close()

	var deviceErrors atomic.Uint64
	g := serve.New(rt, serve.Options{
		Workers: 1, MaxBatch: 2, MaxLinger: time.Millisecond, QueueDepth: 64, Cluster: m,
		OnDeviceError: func(dev int, err error) { deviceErrors.Add(1) },
	})
	defer g.Close(30 * time.Second)
	tr := g.AttachHealth(serve.HealthOptions{
		Tracker: health.Options{
			Window: 150 * time.Millisecond, MinSamples: 1,
			LatencyFactor: 1e9, FailureRate: 0.3, GrayWindows: 1,
			ReintegrateAfter: time.Hour,
		},
		ProbeEvery: -1, // probes through the wedged link would just stall too
	})
	m.Start()

	orch := scenario.NewOrchestrator([]scenario.Target{{Shaper: sh}, {}})
	player := scenario.NewPlayer(orch, &scenario.Trace{
		Name: "asym-partition", Seed: 402,
		Events: []scenario.Event{
			// Seed is the stall threshold: 512 bytes wedges every tensor
			// frame while ping/hello/heartbeat frames (tens of bytes) pass.
			{At: 10 * time.Millisecond, Kind: scenario.EvAsymDegrade, Device: 0, Value: stallMs, Seed: 512},
		},
	})

	// Phase 1 — baseline: both devices serve through the (closed) stall window.
	for i := 0; i < 4; i++ {
		if _, err := g.Submit(chaosInput(int64(i)), chaosLatSLO(sloMs)); err != nil {
			t.Fatalf("baseline request %d: %v", i, err)
		}
	}

	// Phase 2 — open the one-direction stall and keep submitting until the
	// stall evidence quarantines the link. Requests in this window may fail
	// (the retry may land on the wedged device again); the ledger check below
	// proves none vanish.
	if n, err := player.Finish(); err != nil || n != 1 {
		t.Fatalf("asym-degrade event: applied %d, err=%v; want 1, nil", n, err)
	}
	if !sh.StallActive(netem.Downstream) {
		t.Fatal("stall window did not open")
	}
	stallStart := time.Now()
	var windowReqs, windowFailed int
	for i := 0; i < 80 && tr.StateOf(0) != health.Quarantined; i++ {
		windowReqs++
		if _, err := g.Submit(chaosInput(int64(100+i)), chaosLatSLO(sloMs)); err != nil {
			windowFailed++
		}
		if time.Since(stallStart) > 60*time.Second {
			break
		}
	}
	chaosWaitFor(t, "device 0 quarantined by stall evidence",
		func() bool { return tr.StateOf(0) == health.Quarantined })
	t.Logf("quarantined after %v (%d requests, %d failed in the learning window)",
		time.Since(stallStart), windowReqs, windowFailed)

	// Phase 3 — post-quarantine: placement excludes the wedged link, so
	// attainment recovers on the healthy device.
	const postReqs = 20
	postServed := 0
	for i := 0; i < postReqs; i++ {
		if _, err := g.Submit(chaosInput(int64(300+i)), chaosLatSLO(sloMs)); err == nil {
			postServed++
		}
	}
	if postServed < postReqs*9/10 {
		t.Fatalf("post-quarantine attainment %d/%d, want >= 90%%", postServed, postReqs)
	}

	g.Close(30 * time.Second)
	st := g.Stats()
	t.Logf("asym chaos: stats=%+v detector=%+v", st, m.CountersSnapshot())

	// The watchdog saw the wedge: typed stalls, counted end to end.
	if st.StalledCalls < 1 {
		t.Fatalf("stalled calls %d, want >= 1", st.StalledCalls)
	}
	// The quarantine is attributed to the asymmetric signature.
	if st.AsymmetricQuarantines < 1 {
		t.Fatalf("asymmetric quarantines %d, want >= 1", st.AsymmetricQuarantines)
	}
	// A stalled link is link-gray, never a device fault: no demotion through
	// the DeviceError path, and the liveness detector stayed Up throughout —
	// the whole point of an asymmetric fault is that heartbeats cannot see it.
	if deviceErrors.Load() != 0 {
		t.Fatalf("stalls were misclassified as %d device faults", deviceErrors.Load())
	}
	if c := m.CountersSnapshot(); c.Downs != 0 {
		t.Fatalf("detector counters %+v: a stall-only fault must not look like death", c)
	}
	if m.StateOf(0) != cluster.Up {
		t.Fatalf("member 0 is %v under an asymmetric stall, want Up", m.StateOf(0))
	}
	if st.Admitted != st.Served+st.Dropped+st.Failed {
		t.Fatalf("ledger broken: admitted %d != served %d + dropped %d + failed %d",
			st.Admitted, st.Served, st.Dropped, st.Failed)
	}
}
