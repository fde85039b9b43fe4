package serve

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"murmuration/internal/cluster"
	"murmuration/internal/fault"
	"murmuration/internal/monitor"
	"murmuration/internal/rl/env"
	"murmuration/internal/rpcx"
	"murmuration/internal/runtime"
	"murmuration/internal/supernet"
	"murmuration/internal/testutil"
)

// TestChaosPanicStorm drives the gateway through sustained concurrent load
// while both daemons' exec.block handlers panic at a seeded 1e-2 per call,
// then clears the fault. The self-protection contract, end to end:
//
//   - the process survives: every panic is recovered on the daemon, travels
//     as a typed response, and fails at most its own batch — every client
//     error during the storm is a typed class, never a crash or silent loss;
//   - the per-device AIMD limiters clamp on the congestion signal (cuts
//     observable via scheduler stats);
//   - panics never read as device death to the failure detector — both
//     members stay Up throughout;
//   - when the storm clears, throughput fully recovers;
//   - the admission ledger balances and goroutines unwind (leak-checked).
func TestChaosPanicStorm(t *testing.T) {
	testutil.CheckGoroutines(t)
	const (
		panicRate    = 1e-2
		numClients   = 6
		baselineReqs = 4  // per client, storm off
		waveReqs     = 10 // per client per storm wave
		maxWaves     = 40
		minInjected  = 3
		recoveryReqs = 10 // sequential, storm off
		sloMs        = 30000
	)
	a := supernet.TinyArch(4)
	net1 := supernet.New(a, 505)

	// Daemons whose exec handler panics at panicRate while the storm flag is
	// up. Each daemon draws from its own seeded rng (under a lock — handlers
	// run concurrently) so the injection schedule is reproducible per daemon.
	var storm atomic.Bool
	var injected atomic.Uint64
	startDaemon := func(seed int64) (*rpcx.Server, string) {
		handler := runtime.NewExecutor(net1).ExecBlockHandler()
		rng := rand.New(rand.NewSource(seed))
		var mu sync.Mutex
		srv := rpcx.NewServer()
		srv.Handle(runtime.ExecBlockMethod, func(p []byte) ([]byte, error) {
			mu.Lock()
			fire := storm.Load() && rng.Float64() < panicRate
			mu.Unlock()
			if fire {
				injected.Add(1)
				panic("chaos: injected handler panic")
			}
			return handler(p)
		})
		monitor.RegisterHandlers(srv)
		cluster.NewNode().Register(srv)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		return srv, addr
	}
	srv1, addr1 := startDaemon(1)
	defer srv1.Close()
	srv2, addr2 := startDaemon(2)
	defer srv2.Close()

	dialData := func(addr string) *rpcx.Client {
		c, err := rpcx.Dial(addr, nil)
		if err != nil {
			t.Fatalf("dial %s: %v", addr, err)
		}
		c.SetRetryPolicy(rpcx.RetryPolicy{MaxAttempts: 2, BaseBackoff: 5 * time.Millisecond})
		c.MarkIdempotent(runtime.ExecBlockMethod, monitor.PingMethod)
		return c
	}
	data1, data2 := dialData(addr1), dialData(addr2)
	defer data1.Close()
	defer data2.Close()

	sched := runtime.NewScheduler(net1, []*rpcx.Client{data1, data2})
	sched.RemoteTimeout = 10 * time.Second

	decider := runtime.DeciderFunc(func(c env.Constraint) (*env.Decision, error) {
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
	})
	rt := runtime.New(sched, decider, runtime.NewStrategyCache(32, 25, 5, 10), nil)
	rt.SetLinkState(0, 100, 5)
	rt.SetLinkState(1, 100, 5)
	rt.SetSLO(latSLO(sloMs))

	// Heartbeats ride dedicated clean connections: a panicking handler must
	// read as a request/device fault through the data path, never as member
	// death — the daemon process is alive and answering pings throughout.
	hb1, hb2 := dialData(addr1), dialData(addr2)
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

	g := New(rt, Options{Workers: 2, MaxBatch: 4, MaxLinger: time.Millisecond, QueueDepth: 32})
	defer g.Close(10 * time.Second)
	g.AttachCluster(m)
	m.Start()

	var successes, panicsSeen, otherTyped atomic.Uint64
	runWave := func(phase string, reqs int, seedBase int64) {
		var wg sync.WaitGroup
		for c := 0; c < numClients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; i < reqs; i++ {
					_, err := g.Submit(testInput(seedBase+int64(100*c+i)), latSLO(sloMs))
					switch {
					case err == nil:
						successes.Add(1)
					case fault.Of(err) == fault.Request:
						panicsSeen.Add(1)
					case fault.Of(err).Policy().Bucket != fault.BucketFailed ||
						errors.Is(err, rpcx.ErrTimeout):
						otherTyped.Add(1)
					default:
						t.Errorf("%s: client %d req %d: unexpected error class: %v", phase, c, i, err)
					}
				}
			}(c)
		}
		wg.Wait()
	}

	// Phase 1 — storm off: everything serves.
	runWave("baseline", baselineReqs, 0)
	if got := successes.Load(); got != numClients*baselineReqs {
		t.Fatalf("baseline: %d/%d served", got, numClients*baselineReqs)
	}

	// Phase 2 — storm: drive concurrent waves until the injector has fired
	// enough to mean something (bounded by maxWaves).
	storm.Store(true)
	waves := 0
	for ; waves < maxWaves && injected.Load() < minInjected; waves++ {
		runWave("storm", waveReqs, int64(10000*(waves+1)))
	}
	storm.Store(false)
	if injected.Load() < minInjected {
		t.Fatalf("injector fired %d times across %d storm waves — test exercised nothing",
			injected.Load(), waves)
	}

	// Phase 3 — recovery: sequential requests, no contention, must all serve.
	for i := 0; i < recoveryReqs; i++ {
		if _, err := g.Submit(testInput(int64(900000+i)), latSLO(sloMs)); err != nil {
			t.Fatalf("recovery request %d: %v", i, err)
		}
	}

	g.Close(10 * time.Second)
	st := g.Stats()
	ss := sched.Stats()
	t.Logf("panic storm: injected=%d waves=%d success=%d panics-seen=%d other-typed=%d; "+
		"sched panics=%d cuts=%d limit=%d; stats=%+v",
		injected.Load(), waves, successes.Load(), panicsSeen.Load(), otherTyped.Load(),
		ss.Panics, ss.LimiterCuts, ss.LimiterLimit, st)

	// Every injected panic surfaced as a typed response, and the counters saw
	// them at both layers.
	if st.RemotePanics == 0 || ss.Panics == 0 {
		t.Fatalf("injected %d panics but none counted: serve=%d sched=%d",
			injected.Load(), st.RemotePanics, ss.Panics)
	}
	// The limiters treated panics as congestion and clamped at least once.
	if ss.LimiterCuts == 0 {
		t.Fatalf("no limiter cut despite %d panics: %+v", injected.Load(), ss)
	}
	// The ledger balances: nothing vanished during the storm.
	if st.Admitted != st.Served+st.Dropped+st.Failed {
		t.Fatalf("admitted %d != served %d + dropped %d + failed %d",
			st.Admitted, st.Served, st.Dropped, st.Failed)
	}
	// Panics are not member death: both daemons answered heartbeats all along.
	for dev := 0; dev < 2; dev++ {
		if m.StateOf(dev) != cluster.Up {
			t.Fatalf("device %d is %v under panics alone, want Up", dev, m.StateOf(dev))
		}
	}
	if c := m.CountersSnapshot(); c.Downs != 0 {
		t.Fatalf("detector saw %d member deaths during a panic storm", c.Downs)
	}
}
