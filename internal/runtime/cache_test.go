package runtime

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"murmuration/internal/rl/env"
	"murmuration/internal/supernet"
	"murmuration/internal/tensor"
)

func latConstraint(bw float64) env.Constraint {
	return env.Constraint{Type: env.LatencySLO, LatencyMs: 100,
		BandwidthMbps: []float64{bw}, DelayMs: []float64{10}}
}

// TestStrategyCacheConcurrent hammers Get/Put/Len/Stats from many
// goroutines; run under -race this checks the cache's locking discipline.
func TestStrategyCacheConcurrent(t *testing.T) {
	c := NewStrategyCache(8, 25, 5, 10)
	const goroutines = 16
	const opsPer = 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < opsPer; i++ {
				ct := latConstraint(float64(rng.Intn(16)) * 50)
				switch rng.Intn(3) {
				case 0:
					c.Put(ct, &env.Decision{})
				case 1:
					c.Get(ct)
				default:
					c.Len()
					c.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
	if n := c.Len(); n > 8 {
		t.Fatalf("cache exceeded capacity under concurrency: %d", n)
	}
	st := c.Stats()
	if st.Len != c.Len() || st.Cap != 8 {
		t.Fatalf("stats snapshot inconsistent: %+v", st)
	}
}

func TestStrategyCacheStats(t *testing.T) {
	c := NewStrategyCache(2, 25, 5, 10)
	if _, ok := c.Get(latConstraint(100)); ok {
		t.Fatal("empty cache should miss")
	}
	c.Put(latConstraint(100), &env.Decision{})
	if _, ok := c.Get(latConstraint(100)); !ok {
		t.Fatal("stored entry should hit")
	}
	c.Put(latConstraint(200), &env.Decision{})
	c.Put(latConstraint(300), &env.Decision{}) // evicts LRU (100)
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Evictions != 1 || st.Len != 2 {
		t.Fatalf("stats = %+v, want hits=1 misses=1 evictions=1 len=2", st)
	}
	if hr := st.HitRate(); math.Abs(hr-0.5) > 1e-9 {
		t.Fatalf("hit rate %v, want 0.5", hr)
	}
}

func TestResolveForUsesPerRequestSLO(t *testing.T) {
	a := supernet.TinyArch(4)
	net := supernet.New(a, 11)
	sched, cleanup := testCluster(t, net, 2, 0, 0)
	defer cleanup()

	var seen []env.Constraint
	decider := DeciderFunc(func(c env.Constraint) (*env.Decision, error) {
		seen = append(seen, c)
		cfg := a.MinConfig()
		costs, _ := a.Costs(cfg)
		return &env.Decision{Config: cfg, Placement: supernet.LocalPlacement(costs)}, nil
	})
	rt := New(sched, decider, NewStrategyCache(16, 25, 5, 10), nil)
	rt.SetSLO(SLO{Type: env.LatencySLO, Value: 500})
	rt.SetLinkState(0, 100, 10)

	fast := SLO{Type: env.LatencySLO, Value: 50}
	slow := SLO{Type: env.LatencySLO, Value: 500}
	r1, err := rt.ResolveFor(fast)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := rt.ResolveFor(slow)
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 {
		t.Fatalf("decider ran %d times, want 2 (distinct SLOs)", len(seen))
	}
	if seen[0].LatencyMs != 50 || seen[1].LatencyMs != 500 {
		t.Fatalf("decider saw SLOs %v/%v, want per-request 50/500", seen[0].LatencyMs, seen[1].LatencyMs)
	}
	if r1.Key == r2.Key || r1.Key == "" {
		t.Fatalf("distinct SLOs must produce distinct non-empty keys: %q vs %q", r1.Key, r2.Key)
	}
	if rt.StrategyKeyFor(fast) != r1.Key {
		t.Fatal("StrategyKeyFor must match the key ResolveFor produced")
	}
	// Same SLO again: cache hit, same key.
	r3, err := rt.ResolveFor(fast)
	if err != nil {
		t.Fatal(err)
	}
	if !r3.CacheHit || r3.Key != r1.Key {
		t.Fatalf("repeat resolve should hit the cache with the same key (hit=%v)", r3.CacheHit)
	}
}

// TestExecBatchRejectsBadRank feeds non-rank-4 tensors to ExecBatch —
// including as the first input, which once panicked on Shape[1] before the
// validation loop ran — and expects clean errors.
func TestExecBatchRejectsBadRank(t *testing.T) {
	a := supernet.TinyArch(4)
	net := supernet.New(a, 14)
	sched, cleanup := testCluster(t, net, 1, 0, 0)
	defer cleanup()
	decider := DeciderFunc(func(c env.Constraint) (*env.Decision, error) {
		cfg := a.MinConfig()
		costs, _ := a.Costs(cfg)
		return &env.Decision{Config: cfg, Placement: supernet.LocalPlacement(costs)}, nil
	})
	rt := New(sched, decider, NewStrategyCache(16, 25, 5, 10), nil)
	rt.SetSLO(SLO{Type: env.LatencySLO, Value: 500})
	res, err := rt.ResolveFor(rt.SLO())
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(15))
	good := randInput(rng, 1, 3, 32, 32)
	cases := [][]*tensor.Tensor{
		{tensor.New(5)},                  // rank 1 first
		{tensor.New(3, 32, 32)},          // rank 3 first
		{good, tensor.New(5)},            // bad rank later in the batch
		{good, tensor.New(1, 4, 32, 32)}, // channel mismatch
	}
	for i, xs := range cases {
		if _, _, err := rt.ExecBatch(xs, res.Decision); err == nil {
			t.Fatalf("case %d: malformed batch accepted", i)
		}
	}
	// A well-formed batch still executes.
	if _, _, err := rt.ExecBatch([]*tensor.Tensor{good}, res.Decision); err != nil {
		t.Fatalf("valid batch rejected: %v", err)
	}
}

func TestExecBatchMatchesSingles(t *testing.T) {
	a := supernet.TinyArch(4)
	net := supernet.New(a, 12)
	sched, cleanup := testCluster(t, net, 2, 0, 0)
	defer cleanup()
	decider := DeciderFunc(func(c env.Constraint) (*env.Decision, error) {
		cfg := a.MinConfig()
		costs, _ := a.Costs(cfg)
		return &env.Decision{Config: cfg, Placement: supernet.LocalPlacement(costs)}, nil
	})
	rt := New(sched, decider, NewStrategyCache(16, 25, 5, 10), nil)
	rt.SetSLO(SLO{Type: env.LatencySLO, Value: 500})
	rt.SetLinkState(0, 100, 10)
	res, err := rt.ResolveFor(rt.SLO())
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(13))
	xs := []*tensor.Tensor{
		randInput(rng, 1, 3, 32, 32),
		randInput(rng, 1, 3, 32, 32),
		randInput(rng, 1, 3, 32, 32),
	}
	outs, rep, err := rt.ExecBatch(xs, res.Decision)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != len(xs) {
		t.Fatalf("got %d outputs for %d inputs", len(outs), len(xs))
	}
	if rep.Logits.Shape[0] != 3 {
		t.Fatalf("batched report has %d rows, want 3", rep.Logits.Shape[0])
	}
	// Distributed batched execution must match a monolithic forward of the
	// same stacked batch (BN uses batch statistics by NAS practice, so the
	// reference is the batch forward, not three single forwards).
	stacked := tensor.New(3, 3, 32, 32)
	for i, x := range xs {
		copy(stacked.Data[i*3*32*32:], x.Data)
	}
	want, _, err := net.Forward(stacked, res.Decision.Config, false)
	if err != nil {
		t.Fatal(err)
	}
	classes := want.Shape[1]
	for i := range xs {
		for j := 0; j < classes; j++ {
			got := outs[i].Data[j]
			ref := want.Data[i*classes+j]
			if d := math.Abs(float64(got - ref)); d > 1e-4 {
				t.Fatalf("batched logits differ from monolithic at req %d idx %d: %v vs %v",
					i, j, got, ref)
			}
		}
	}
}

// TestKeyIsTheFormattedKey: Key builds, byte for byte, the key the cache has
// always used — cached entries and batch grouping key on it — and allocates
// only the string it returns.
func TestKeyIsTheFormattedKey(t *testing.T) {
	c := NewStrategyCache(8, 25, 5, 10)
	formatted := func(ct env.Constraint) string {
		var slo float64
		kind := "L"
		if ct.Type == env.LatencySLO {
			slo = ct.LatencyMs
		} else {
			kind = "A"
			slo = ct.AccuracyPct
		}
		key := fmt.Sprintf("%s%d", kind, int(math.Round(slo/c.sloStep)))
		for i := range ct.BandwidthMbps {
			key += fmt.Sprintf("|%d,%d",
				int(math.Round(ct.BandwidthMbps[i]/c.bwStepMbps)),
				int(math.Round(ct.DelayMs[i]/c.delayStep)))
		}
		return key
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		ct := env.Constraint{Type: env.LatencySLO, LatencyMs: rng.Float64() * 3000}
		if i%2 == 1 {
			ct = env.Constraint{Type: env.AccuracySLO, AccuracyPct: rng.Float64() * 100}
		}
		for d := 0; d < i%12; d++ {
			ct.BandwidthMbps = append(ct.BandwidthMbps, rng.Float64()*2000-1)
			ct.DelayMs = append(ct.DelayMs, rng.Float64()*500)
		}
		if got, want := c.Key(ct), formatted(ct); got != want {
			t.Fatalf("Key(%+v) = %q, want %q", ct, got, want)
		}
	}
	dist2 := env.Constraint{Type: env.LatencySLO, LatencyMs: 400,
		BandwidthMbps: []float64{100, 100}, DelayMs: []float64{5, 5}}
	if allocs := testing.AllocsPerRun(100, func() { c.Key(dist2) }); allocs != 1 {
		t.Fatalf("Key allocates %v times a call, want the one string", allocs)
	}
}
