package runtime

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"murmuration/internal/monitor"
	"murmuration/internal/netem"
	"murmuration/internal/rl/env"
	"murmuration/internal/rpcx"
	"murmuration/internal/supernet"
	"murmuration/internal/tensor"
	"murmuration/internal/zoo"
)

// testCluster starts n-1 executor servers sharing the same supernet weights
// (every device holds the full supernet in memory) and returns a scheduler.
func testCluster(t *testing.T, net *supernet.Supernet, n int, bwMbps float64, delay time.Duration) (*Scheduler, func()) {
	t.Helper()
	var servers []*rpcx.Server
	var clients []*rpcx.Client
	for i := 1; i < n; i++ {
		srv := rpcx.NewServer()
		NewExecutor(net).Register(srv)
		monitor.RegisterHandlers(srv)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, srv)
		var shaper *netem.Shaper
		if bwMbps > 0 || delay > 0 {
			shaper = netem.NewShaper(bwMbps, delay)
		}
		cl, err := rpcx.Dial(addr, shaper)
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, cl)
	}
	sched := NewScheduler(net, clients)
	cleanup := func() {
		for _, c := range clients {
			c.Close()
		}
		for _, s := range servers {
			s.Close()
		}
	}
	return sched, cleanup
}

func randInput(rng *rand.Rand, n, c, h, w int) *tensor.Tensor {
	t := tensor.New(n, c, h, w)
	for i := range t.Data {
		t.Data[i] = rng.Float32()*2 - 1
	}
	return t
}

func TestDistributedMatchesMonolithic(t *testing.T) {
	a := supernet.TinyArch(4)
	net := supernet.New(a, 1)
	sched, cleanup := testCluster(t, net, 3, 0, 0)
	defer cleanup()

	rng := rand.New(rand.NewSource(1))
	x := randInput(rng, 1, 3, 32, 32)

	cfg := a.MaxConfig()
	for i := range cfg.Layers {
		cfg.Layers[i].Partition = supernet.Partition{Gy: 1, Gx: 2}
		cfg.Layers[i].Quant = tensor.Bits8
	}
	costs, _ := a.Costs(cfg)
	p := supernet.LocalPlacement(costs)
	// Spread tiles over the three devices.
	for k := range p.Devices {
		for ti := range p.Devices[k] {
			p.Devices[k][ti] = (k + ti) % 3
		}
	}
	rep, err := sched.Infer(x, &supernet.Decision{Config: cfg, Placement: p})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RemoteTiles == 0 {
		t.Fatal("expected remote tiles")
	}

	want, _, err := net.Forward(x, cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		// Not "d > 1e-4": a NaN logit (a poisoned workspace read) must fail.
		if d := math.Abs(float64(rep.Logits.Data[i] - want.Data[i])); !(d <= 1e-4) {
			t.Fatalf("distributed logits differ from monolithic at %d: %v vs %v",
				i, rep.Logits.Data[i], want.Data[i])
		}
	}
}

func TestAllLocalNoRemoteTiles(t *testing.T) {
	a := supernet.TinyArch(4)
	net := supernet.New(a, 2)
	sched, cleanup := testCluster(t, net, 2, 0, 0)
	defer cleanup()
	rng := rand.New(rand.NewSource(2))
	x := randInput(rng, 1, 3, 32, 32)
	cfg := a.MinConfig()
	costs, _ := a.Costs(cfg)
	rep, err := sched.Infer(x, &supernet.Decision{Config: cfg, Placement: supernet.LocalPlacement(costs)})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RemoteTiles != 0 || rep.LocalTiles == 0 {
		t.Fatalf("local run produced %d remote / %d local tiles", rep.RemoteTiles, rep.LocalTiles)
	}
}

func TestShapedLinkSlowsInference(t *testing.T) {
	a := supernet.TinyArch(4)
	net := supernet.New(a, 3)
	rng := rand.New(rand.NewSource(3))
	x := randInput(rng, 1, 3, 32, 32)
	cfg := a.MaxConfig()
	costs, _ := a.Costs(cfg)
	remote := supernet.LocalPlacement(costs)
	for k := range remote.Devices {
		for ti := range remote.Devices[k] {
			remote.Devices[k][ti] = 1
		}
	}

	fast, cleanupFast := testCluster(t, net, 2, 1000, time.Millisecond)
	repFast, err := fast.Infer(x, &supernet.Decision{Config: cfg, Placement: remote})
	cleanupFast()
	if err != nil {
		t.Fatal(err)
	}

	slow, cleanupSlow := testCluster(t, net, 2, 2, 30*time.Millisecond)
	repSlow, err := slow.Infer(x, &supernet.Decision{Config: cfg, Placement: remote})
	cleanupSlow()
	if err != nil {
		t.Fatal(err)
	}
	if repSlow.Elapsed <= repFast.Elapsed {
		t.Fatalf("shaped slow link (%v) should be slower than fast link (%v)",
			repSlow.Elapsed, repFast.Elapsed)
	}
}

func TestStrategyCacheLRUAndBucketing(t *testing.T) {
	c := NewStrategyCache(2, 25, 5, 10)
	mk := func(bw float64) env.Constraint {
		return env.Constraint{Type: env.LatencySLO, LatencyMs: 100,
			BandwidthMbps: []float64{bw}, DelayMs: []float64{10}}
	}
	d1 := &env.Decision{}
	c.Put(mk(100), d1)
	// 101 Mb/s buckets with 100 at 25 Mb/s granularity.
	if got, ok := c.Get(mk(101)); !ok || got != d1 {
		t.Fatal("nearby bandwidth should hit the same bucket")
	}
	// Distinct buckets evict LRU at capacity 2.
	c.Put(mk(200), &env.Decision{})
	c.Put(mk(300), &env.Decision{})
	if c.Len() != 2 {
		t.Fatalf("cache length %d, want 2", c.Len())
	}
	if _, ok := c.Get(mk(100)); ok {
		t.Fatal("LRU entry should have been evicted")
	}
}

func TestRuntimeCachesDecisions(t *testing.T) {
	a := supernet.TinyArch(4)
	net := supernet.New(a, 4)
	sched, cleanup := testCluster(t, net, 2, 0, 0)
	defer cleanup()

	calls := 0
	decider := DeciderFunc(func(c env.Constraint) (*env.Decision, error) {
		calls++
		cfg := a.MinConfig()
		costs, _ := a.Costs(cfg)
		return &env.Decision{Config: cfg, Placement: supernet.LocalPlacement(costs)}, nil
	})
	rt := New(sched, decider, NewStrategyCache(16, 25, 5, 10), nil)
	rt.SetSLO(SLO{Type: env.LatencySLO, Value: 500})
	rt.SetLinkState(0, 100, 10)

	rng := rand.New(rand.NewSource(5))
	x := randInput(rng, 1, 3, 32, 32)
	for i := 0; i < 3; i++ {
		if _, err := rt.Infer(x); err != nil {
			t.Fatal(err)
		}
	}
	if calls != 1 {
		t.Fatalf("decider ran %d times, want 1 (cache)", calls)
	}
	if cs := rt.Cache.Stats(); cs.Hits != 2 || cs.Misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 2/1", cs.Hits, cs.Misses)
	}

	// Changing conditions re-triggers the decider.
	rt.SetLinkState(0, 400, 50)
	if _, err := rt.Infer(x); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("decider ran %d times after link change, want 2", calls)
	}
}

func TestPrecomputePopulatesCache(t *testing.T) {
	a := supernet.TinyArch(4)
	net := supernet.New(a, 6)
	sched, cleanup := testCluster(t, net, 2, 0, 0)
	defer cleanup()
	calls := 0
	decider := DeciderFunc(func(c env.Constraint) (*env.Decision, error) {
		calls++
		cfg := a.MinConfig()
		costs, _ := a.Costs(cfg)
		return &env.Decision{Config: cfg, Placement: supernet.LocalPlacement(costs)}, nil
	})
	rt := New(sched, decider, NewStrategyCache(16, 25, 5, 10), nil)
	rt.SetSLO(SLO{Type: env.LatencySLO, Value: 500})
	rt.SetLinkState(0, 100, 10)
	if err := rt.Precompute(0); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatal("precompute should call the decider once")
	}
	// The following inference hits the cache.
	rng := rand.New(rand.NewSource(7))
	if _, err := rt.Infer(randInput(rng, 1, 3, 32, 32)); err != nil {
		t.Fatal(err)
	}
	if hits := rt.Cache.Stats().Hits; calls != 1 || hits != 1 {
		t.Fatalf("inference after precompute should hit the cache (calls=%d hits=%d)", calls, hits)
	}
}

// Precompute looks ahead while serving resolves strategies for the present.
// With a live monitor both read the prediction horizon, so Precompute must
// not borrow the shared PredictAhead field to do it (run under -race).
func TestPrecomputeConcurrentWithResolve(t *testing.T) {
	a := supernet.TinyArch(4)
	sched, cleanup := testCluster(t, supernet.New(a, 6), 2, 0, 0)
	defer cleanup()
	decider := DeciderFunc(func(c env.Constraint) (*env.Decision, error) {
		cfg := a.MinConfig()
		costs, _ := a.Costs(cfg)
		return &env.Decision{Config: cfg, Placement: supernet.LocalPlacement(costs)}, nil
	})
	m := monitor.NewLinkMonitor(nil)
	base := time.Now()
	for i := 0; i < 5; i++ {
		m.Observe(monitor.Sample{At: base.Add(time.Duration(i) * time.Second),
			BandwidthMbps: 500 - float64(i)*40, DelayMs: 10})
	}
	rt := New(sched, decider, NewStrategyCache(16, 25, 5, 10), []*monitor.LinkMonitor{m})
	slo := SLO{Type: env.LatencySLO, Value: 500}
	rt.SetSLO(slo)

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			if err := rt.Precompute(2 * time.Second); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			if _, err := rt.ResolveFor(slo); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if rt.PredictAhead != 0 {
		t.Fatalf("Precompute left PredictAhead = %v", rt.PredictAhead)
	}
}

func TestMonitorProbeAndPredict(t *testing.T) {
	srv := rpcx.NewServer()
	monitor.RegisterHandlers(srv)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	shaper := netem.NewShaper(80, 5*time.Millisecond) // 10 MB/s, 5 ms
	cl, err := rpcx.Dial(addr, shaper)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	m := monitor.NewLinkMonitor(cl)
	m.BulkBytes = 128 * 1024
	for i := 0; i < 3; i++ {
		if _, err := m.Probe(); err != nil {
			t.Fatal(err)
		}
	}
	cur := m.Current()
	// 80 Mb/s link: estimate should land within a factor ~3.
	if cur.BandwidthMbps < 20 || cur.BandwidthMbps > 300 {
		t.Fatalf("bandwidth estimate %v Mb/s far from shaped 80", cur.BandwidthMbps)
	}
	if cur.DelayMs < 2 || cur.DelayMs > 50 {
		t.Fatalf("delay estimate %v ms far from shaped 5", cur.DelayMs)
	}
	pred := m.Predict(time.Second)
	if pred.BandwidthMbps <= 0 {
		t.Fatal("prediction must be positive")
	}
}

func TestPredictorTracksTrend(t *testing.T) {
	// Passive observations with a falling bandwidth trend: the forecast
	// should be below the latest EMA.
	m := monitor.NewLinkMonitor(nil)
	base := time.Now()
	for i := 0; i < 10; i++ {
		m.Observe(monitor.Sample{At: base.Add(time.Duration(i) * time.Second),
			BandwidthMbps: 500 - float64(i)*40, DelayMs: 10})
	}
	pred := m.Predict(2 * time.Second)
	if pred.BandwidthMbps >= m.Current().BandwidthMbps {
		t.Fatalf("falling trend should forecast lower bandwidth: pred %v vs cur %v",
			pred.BandwidthMbps, m.Current().BandwidthMbps)
	}
}

func TestReconfigurerFastSwitch(t *testing.T) {
	a := supernet.TinyArch(4)
	net := supernet.New(a, 8)
	rc := NewReconfigurer(net)
	if rc.Active() != nil {
		t.Fatal("no active config expected initially")
	}
	d1, err := rc.Switch(a.MaxConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rc.Active() == nil {
		t.Fatal("switch did not activate config")
	}
	if _, err := rc.Switch(a.MinConfig()); err != nil {
		t.Fatal(err)
	}
	// A supernet switch must be far faster than reloading even the
	// smallest zoo model's weights.
	mb, _ := zoo.ByName("mobilenetv3-large")
	load, err := SimulatedWeightLoad(int(mb.TotalWeightBytes()))
	if err != nil {
		t.Fatal(err)
	}
	if d1*10 > load {
		t.Fatalf("supernet switch (%v) should be ≫ faster than weight reload (%v)", d1, load)
	}
}

func TestReconfigurerRejectsInvalid(t *testing.T) {
	a := supernet.TinyArch(4)
	rc := NewReconfigurer(supernet.New(a, 9))
	bad := a.MaxConfig()
	bad.Resolution = 999
	if _, err := rc.Switch(bad); err == nil {
		t.Fatal("invalid config accepted")
	}
}
