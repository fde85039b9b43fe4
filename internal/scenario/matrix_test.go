// The CI scenario matrix: five end-to-end scenarios — steady, diurnal,
// flash-crowd, churn, combined — each synthesizing a seeded trace, replaying
// it against a live gateway, and asserting per-class SLO attainment
// thresholds plus the serving ledger. Everything is driven through the
// public scenario API, the way cmd/murmuration-loadgen drives it.
package scenario_test

import (
	"testing"
	"time"

	"murmuration"
	"murmuration/internal/cluster"
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

// matrixMix is the request blend every matrix scenario uses: mostly
// latency-SLO traffic with deadlines generous enough to absorb -race and a
// loaded CI host, an accuracy slice, and a best-effort tail.
func matrixMix(latencyMs float64) scenario.Mix {
	return scenario.Mix{
		Classes: []scenario.ClassShare{
			{SLOType: env.LatencySLO, SLOValue: latencyMs, Weight: 0.5},
			{SLOType: env.AccuracySLO, SLOValue: 75, Weight: 0.3},
			{SLOType: env.LatencySLO, SLOValue: 0, Weight: 0.2}, // best-effort
		},
		Resolutions: []int{32, 28},
	}
}

// newLocalGateway builds a gateway over a local-only runtime with a fixed
// min-config decider — the single-node end of the matrix.
func newLocalGateway(t *testing.T, seed int64) *serve.Gateway {
	t.Helper()
	a := supernet.TinyArch(4)
	net := supernet.New(a, seed)
	sched := runtime.NewScheduler(net, nil)
	decider := runtime.DeciderFunc(func(c env.Constraint) (*env.Decision, error) {
		cfg := a.MinConfig()
		costs, _ := a.Costs(cfg)
		return &env.Decision{Config: cfg, Placement: supernet.LocalPlacement(costs)}, nil
	})
	rt := runtime.New(sched, decider, runtime.NewStrategyCache(32, 25, 5, 10), nil)
	return serve.New(rt, serve.Options{
		Workers: 2, MaxBatch: 8, MaxLinger: time.Millisecond, QueueDepth: 256,
	})
}

// runScenario synthesizes the trace, replays it at the gateway, closes and
// drains, and checks attainment thresholds plus the two ledgers (scorer-side
// and gateway-side per-class counters).
func runScenario(t *testing.T, name string, g *serve.Gateway, opts scenario.GenOptions, orch *scenario.Orchestrator, th scenario.Thresholds) *scenario.Report {
	t.Helper()
	tr, err := scenario.Synthesize(opts)
	if err != nil {
		t.Fatal(err)
	}
	before := g.Stats()
	sc := scenario.NewScorer()
	res, err := scenario.Run(tr, scenario.RunOptions{Submitter: g, Orchestrator: orch}, sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != uint64(tr.Requests()) {
		t.Fatalf("runner dispatched %d of %d trace requests", res.Requests, tr.Requests())
	}
	g.Close(30 * time.Second)
	after := g.Stats()
	report := sc.Report(name, scenario.GatewayDelta(before, after))

	if js, err := report.JSON(); err != nil {
		t.Fatalf("report JSON: %v", err)
	} else {
		t.Logf("scenario %s report:\n%s", name, js)
	}
	if err := report.Check(th); err != nil {
		t.Fatal(err)
	}
	// The serving ledger and its per-class v6 refinement both balance after
	// drain: nothing vanished, and every admitted request landed in exactly
	// one met/missed bucket.
	if after.Admitted != after.Served+after.Dropped+after.Failed {
		t.Fatalf("ledger broken: %+v", after)
	}
	var met, missed uint64
	for c := 0; c < serve.NumClasses; c++ {
		met += after.ClassMet[c]
		missed += after.ClassMissed[c]
	}
	if met+missed != after.Admitted {
		t.Fatalf("per-class ledger broken: met %d + missed %d != admitted %d", met, missed, after.Admitted)
	}
	return report
}

func TestScenarioSteady(t *testing.T) {
	testutil.CheckGoroutines(t)
	g := newLocalGateway(t, 401)
	runScenario(t, "steady", g, scenario.GenOptions{
		Name: "steady", Seed: 401, Duration: 1200 * time.Millisecond,
		Process: scenario.Poisson{Rate: 120},
		Mix:     matrixMix(10_000),
	}, nil, scenario.Thresholds{
		"latency": 0.95, "accuracy": 0.95, "best-effort": 0.95,
	})
}

func TestScenarioDiurnal(t *testing.T) {
	testutil.CheckGoroutines(t)
	g := newLocalGateway(t, 402)
	runScenario(t, "diurnal", g, scenario.GenOptions{
		Name: "diurnal", Seed: 402, Duration: 1200 * time.Millisecond,
		Process: scenario.Diurnal{Base: 80, Amplitude: 60, Period: 600 * time.Millisecond},
		Mix:     matrixMix(10_000),
	}, nil, scenario.Thresholds{
		"latency": 0.95, "accuracy": 0.95, "best-effort": 0.95,
	})
}

func TestScenarioFlashCrowd(t *testing.T) {
	testutil.CheckGoroutines(t)
	g := newLocalGateway(t, 403)
	report := runScenario(t, "flash-crowd", g, scenario.GenOptions{
		Name: "flash-crowd", Seed: 403, Duration: 1200 * time.Millisecond,
		Process: scenario.FlashCrowd{
			Base:   40,
			Bursts: []scenario.Burst{{At: 400 * time.Millisecond, Duration: 300 * time.Millisecond, Multiplier: 12}},
		},
		Mix: matrixMix(10_000),
	}, nil, scenario.Thresholds{
		// The burst may legitimately shed; the floor asserts the gateway keeps
		// serving the bulk of the crowd rather than collapsing.
		"latency": 0.7, "accuracy": 0.7, "best-effort": 0.5,
	})
	if report.Requests < 60 {
		t.Fatalf("flash-crowd trace carried only %d requests — burst missing", report.Requests)
	}
}

// startDaemon brings up one murmurationd at its defaults.
func startDaemon(t *testing.T, net *supernet.Supernet, addr string) (*rpcx.Server, string) {
	t.Helper()
	d, err := murmuration.NewDaemon(murmuration.DaemonConfig{Net: net, Listen: addr})
	if err != nil {
		t.Fatalf("daemon on %q: %v", addr, err)
	}
	return d.Server, d.Addr
}

// liveDecider spreads tiles round-robin over every device whose link looks
// alive — the same shape the chaos tests use, so placements follow churn.
func liveDecider(a *supernet.Arch) runtime.DeciderFunc {
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

func dialData(t *testing.T, addr string, sh *netem.Shaper) *rpcx.Client {
	t.Helper()
	c, err := rpcx.Dial(addr, sh)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	c.SetRetryPolicy(rpcx.RetryPolicy{MaxAttempts: 2, BaseBackoff: 5 * time.Millisecond})
	c.MarkIdempotent(runtime.ExecBlockMethod, monitor.PingMethod)
	return c
}

// TestScenarioChurn replays a trace whose environment timeline kills one of
// two real device daemons mid-run and restarts it, all through the
// orchestrator's leave/join hooks. Requests carry a generous SLO; the bar is
// that churn costs latency and degradation, never Failed requests.
func TestScenarioChurn(t *testing.T) {
	testutil.CheckGoroutines(t)
	a := supernet.TinyArch(4)
	net := supernet.New(a, 404)

	srv1, addr1 := startDaemon(t, net, "127.0.0.1:0")
	srv2, addr2 := startDaemon(t, net, "127.0.0.1:0")
	defer srv2.Close()

	// Unshaped links, a 10 s remote timeout, two attempts per idempotent
	// call, a 10 ms heartbeat; hedging, the retry budget, the progress
	// deadline and the health layer off.
	gw, err := murmuration.NewGateway(murmuration.GatewayConfig{
		Net: net, Listen: "127.0.0.1:0",
		Links:         []murmuration.Link{{Addr: addr1}, {Addr: addr2}},
		Decider:       liveDecider(a),
		RemoteTimeout: 10 * time.Second, Retries: 2,
		Options: serve.Options{Workers: 2, MaxBatch: 4, MaxLinger: time.Millisecond, QueueDepth: 64},
		Detector: cluster.Options{
			HeartbeatInterval: 10 * time.Millisecond,
			SuspectAfter:      50 * time.Millisecond,
			DownAfter:         120 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close(time.Second)
	g, m := gw.Serve, gw.Cluster

	// The orchestrator owns the fault timeline: leave kills daemon 1's
	// process, join restarts it on the same address. orch.AttachCluster marks the
	// member Down at the leave so detection does not race the trace clock.
	var srv1b *rpcx.Server
	orch := scenario.NewOrchestrator([]scenario.Target{{
		Leave: func() { srv1.Close() },
		Join:  func() { srv1b, _ = startDaemon(t, net, addr1) },
	}})
	orch.AttachCluster(m)
	defer func() {
		if srv1b != nil {
			srv1b.Close()
		}
	}()

	runScenario(t, "churn", g, scenario.GenOptions{
		Name: "churn", Seed: 404, Duration: 1500 * time.Millisecond,
		Process: scenario.Poisson{Rate: 40},
		Mix:     matrixMix(30_000),
		Env: []scenario.Event{
			{At: 500 * time.Millisecond, Kind: scenario.EvDeviceLeave, Device: 0},
			{At: 1000 * time.Millisecond, Kind: scenario.EvDeviceJoin, Device: 0},
		},
	}, orch, scenario.Thresholds{
		"latency": 0.9, "accuracy": 0.9, "best-effort": 0.8,
	})

	st := g.Stats()
	if st.Failed != 0 {
		t.Fatalf("churn produced %d Failed requests, want 0 (failover serves them): %+v", st.Failed, st)
	}
	if orch.Applied() != 2 {
		t.Fatalf("orchestrator applied %d events, want 2", orch.Applied())
	}
	if c := m.CountersSnapshot(); c.Recoveries < 1 {
		t.Fatalf("detector never reintegrated the restarted daemon: %+v", c)
	}
}

// TestScenarioCombined superposes a diurnal base with a flash crowd while the
// environment timeline degrades both device links mid-run and restores them —
// workload dynamics and environment dynamics in the same trace.
func TestScenarioCombined(t *testing.T) {
	testutil.CheckGoroutines(t)
	a := supernet.TinyArch(4)
	net := supernet.New(a, 405)

	srv1, addr1 := startDaemon(t, net, "127.0.0.1:0")
	srv2, addr2 := startDaemon(t, net, "127.0.0.1:0")
	defer srv1.Close()
	defer srv2.Close()

	sh1 := netem.NewShaper(0, 2*time.Millisecond)
	sh2 := netem.NewShaper(0, 2*time.Millisecond)
	data1, data2 := dialData(t, addr1, sh1), dialData(t, addr2, sh2)
	defer data1.Close()
	defer data2.Close()

	sched := runtime.NewScheduler(net, []*rpcx.Client{data1, data2})
	sched.RemoteTimeout = 10 * time.Second
	rt := runtime.New(sched, liveDecider(a), runtime.NewStrategyCache(32, 25, 5, 10), nil)
	rt.SetLinkState(0, 100, 5)
	rt.SetLinkState(1, 100, 5)

	g := serve.New(rt, serve.Options{
		Workers: 2, MaxBatch: 4, MaxLinger: time.Millisecond, QueueDepth: 128,
		MaxRung: 3, LadderHysteresis: 4,
	})

	orch := scenario.NewOrchestrator([]scenario.Target{{Shaper: sh1}, {Shaper: sh2}})

	runScenario(t, "combined", g, scenario.GenOptions{
		Name: "combined", Seed: 405, Duration: 1500 * time.Millisecond,
		Process: scenario.Superpose{
			scenario.Diurnal{Base: 30, Amplitude: 20, Period: 750 * time.Millisecond},
			scenario.FlashCrowd{Base: 0, Bursts: []scenario.Burst{
				{At: 600 * time.Millisecond, Duration: 300 * time.Millisecond, Multiplier: 1}, // Base 0: burst adds nothing
			}},
			scenario.Pareto{Rate: 10, Alpha: 1.5},
		},
		Mix: matrixMix(30_000),
		Env: []scenario.Event{
			// Mid-run delay spike on both links, then restoration.
			{At: 500 * time.Millisecond, Kind: scenario.EvSetDelay, Device: 0, Value: 60},
			{At: 500 * time.Millisecond, Kind: scenario.EvSetDelay, Device: 1, Value: 60},
			{At: 1000 * time.Millisecond, Kind: scenario.EvSetDelay, Device: 0, Value: 2},
			{At: 1000 * time.Millisecond, Kind: scenario.EvSetDelay, Device: 1, Value: 2},
		},
	}, orch, scenario.Thresholds{
		"latency": 0.9, "accuracy": 0.9, "best-effort": 0.8,
	})

	if orch.Applied() != 4 {
		t.Fatalf("orchestrator applied %d events, want 4", orch.Applied())
	}
	st := g.Stats()
	if st.Failed != 0 {
		t.Fatalf("combined scenario produced %d Failed requests: %+v", st.Failed, st)
	}
}
