package runtime

import (
	"errors"
	"math/rand"
	"testing"

	"murmuration/internal/rl/env"
	"murmuration/internal/rpcx"
	"murmuration/internal/supernet"
	"murmuration/internal/tensor"
)

// Failover: losing a device must invalidate cached strategies that place work
// on it, degrade its constraint view, and strip it from resolved placements.

func placedDecision(devices [][]int) *env.Decision {
	return &env.Decision{Placement: &supernet.Placement{Devices: devices}}
}

func TestCacheInvalidateDevice(t *testing.T) {
	c := NewStrategyCache(8, 25, 5, 10)
	c.Put(latConstraint(100), placedDecision([][]int{{0, 1}})) // uses device 1
	c.Put(latConstraint(200), placedDecision([][]int{{0, 0}})) // local only
	c.Put(latConstraint(300), placedDecision([][]int{{2, 0}})) // uses device 2

	c.InvalidateDevice(1)
	// The bump is O(1) and visible immediately as an epoch event; the
	// stranded entry is swept lazily by the lookup that finds it.
	if st := c.Stats(); st.InvalidationEpochs != 1 {
		t.Fatalf("InvalidationEpochs = %d, want 1", st.InvalidationEpochs)
	}
	if c.Len() != 2 {
		t.Fatalf("live length %d after invalidation, want 2", c.Len())
	}
	if _, ok := c.Get(latConstraint(100)); ok {
		t.Fatal("entry placing on the lost device survived invalidation")
	}
	if _, ok := c.Get(latConstraint(200)); !ok {
		t.Fatal("local-only entry was evicted by unrelated invalidation")
	}
	if _, ok := c.Get(latConstraint(300)); !ok {
		t.Fatal("entry on a different device was evicted")
	}

	// Invalidations are a distinct counter from capacity evictions.
	st := c.Stats()
	if st.Invalidations != 1 {
		t.Fatalf("Invalidations = %d, want 1", st.Invalidations)
	}
	if st.Evictions != 0 {
		t.Fatalf("invalidation leaked into Evictions: %d", st.Evictions)
	}

	// Device 0 (local) and out-of-range devices are never invalidated.
	c.InvalidateDevice(0)
	c.InvalidateDevice(-3)
	if got := c.Stats(); got.InvalidationEpochs != 1 {
		t.Fatalf("no-op invalidations bumped the epoch counter: %d", got.InvalidationEpochs)
	}
	if c.Len() != 2 {
		t.Fatalf("no-op invalidation changed live length: %d", c.Len())
	}
	// Nil placements are tolerated.
	c.Put(latConstraint(400), &env.Decision{})
	c.InvalidateDevice(2)
	if _, ok := c.Get(latConstraint(300)); ok {
		t.Fatal("entry placing on device 2 survived invalidation")
	}
	if _, ok := c.Get(latConstraint(400)); !ok {
		t.Fatal("placement-less entry was stranded by a device invalidation")
	}
	if got := c.Stats(); got.Invalidations != 2 {
		t.Fatalf("Invalidations = %d after second sweep, want 2", got.Invalidations)
	}
}

// TestCacheInvalidationLazyRestamp: an entry re-Put after its device's epoch
// moved is fresh again — re-resolution repopulates the same key.
func TestCacheInvalidationLazyRestamp(t *testing.T) {
	c := NewStrategyCache(8, 25, 5, 10)
	c.Put(latConstraint(100), placedDecision([][]int{{0, 1}}))
	c.InvalidateDevice(1)
	c.Put(latConstraint(100), placedDecision([][]int{{0, 1}}))
	if _, ok := c.Get(latConstraint(100)); !ok {
		t.Fatal("re-cached entry should be valid under the new epoch")
	}
	if st := c.Stats(); st.Invalidations != 0 {
		t.Fatalf("re-stamped entry was swept: %+v", st)
	}
}

// TestCacheClearIsEpochBump: Clear strands everything in O(1) and lookups
// sweep lazily.
func TestCacheClearIsEpochBump(t *testing.T) {
	c := NewStrategyCache(8, 25, 5, 10)
	c.Put(latConstraint(100), placedDecision([][]int{{0, 1}}))
	c.Put(latConstraint(200), placedDecision([][]int{{0, 0}}))
	if n := c.Clear(); n != 2 {
		t.Fatalf("Clear reported %d live entries, want 2", n)
	}
	if c.Len() != 0 {
		t.Fatalf("live length %d after Clear, want 0", c.Len())
	}
	if _, ok := c.Get(latConstraint(100)); ok {
		t.Fatal("entry served after Clear")
	}
	if _, ok := c.Get(latConstraint(200)); ok {
		t.Fatal("entry served after Clear")
	}
	st := c.Stats()
	if st.InvalidationEpochs != 1 || st.Invalidations != 2 {
		t.Fatalf("counters after Clear + sweeps: %+v", st)
	}
}

// TestDownDeviceDegradesConstraint: a device the table holds down is shown to
// the decider as a dead link, in a cache bucket of its own, until it is up
// again.
func TestDownDeviceDegradesConstraint(t *testing.T) {
	a := supernet.TinyArch(4)
	net := supernet.New(a, 30)
	sched, cleanup := testCluster(t, net, 2, 0, 0)
	defer cleanup()
	decider := DeciderFunc(func(c env.Constraint) (*env.Decision, error) {
		cfg := a.MinConfig()
		costs, _ := a.Costs(cfg)
		return &env.Decision{Config: cfg, Placement: supernet.LocalPlacement(costs)}, nil
	})
	rt := New(sched, decider, NewStrategyCache(16, 25, 5, 10), nil)
	rt.SetSLO(SLO{Type: env.LatencySLO, Value: 200})
	rt.SetLinkState(0, 100, 10)

	healthyKey := rt.StrategyKeyFor(rt.SLO())
	if got := rt.Constraint().BandwidthMbps[0]; got != 100 {
		t.Fatalf("healthy bandwidth %v, want 100", got)
	}

	rt.Devices.Apply(Change{Dev: 1, To: DeviceDown})
	c := rt.Constraint()
	if c.BandwidthMbps[0] != downBandwidthMbps || c.DelayMs[0] != downDelayMs {
		t.Fatalf("down device constraint not degraded: bw=%v delay=%v",
			c.BandwidthMbps[0], c.DelayMs[0])
	}
	if rt.StrategyKeyFor(rt.SLO()) == healthyKey {
		t.Fatal("down device must land in a different cache bucket")
	}
	if h := rt.Devices.Snapshot(); len(h) != 1 || h[0].Up || rt.Devices.Eligible(1) {
		t.Fatalf("device table %+v, want one record, down", h)
	}

	// Recovery restores the live link view and the original cache bucket.
	rt.Devices.Apply(Change{Dev: 1, To: DeviceUp})
	if rt.StrategyKeyFor(rt.SLO()) != healthyKey {
		t.Fatal("recovered device must return to its healthy cache bucket")
	}

	// A device the table has no record of is never eligible, and a change
	// naming one is skipped; the local device always is.
	rt.Devices.Apply(Change{Dev: 5, To: DeviceUp}, Change{Dev: -1, To: DeviceUp}, Change{Dev: 0, To: DeviceDown})
	if rt.Devices.Eligible(5) || rt.Devices.Eligible(-1) || !rt.Devices.Eligible(0) || !rt.Devices.Eligible(1) {
		t.Fatal("eligibility of unknown / local / recovered devices is wrong")
	}
}

func TestResolveSanitizesPlacement(t *testing.T) {
	a := supernet.TinyArch(4)
	net := supernet.New(a, 31)
	sched, cleanup := testCluster(t, net, 2, 0, 0)
	defer cleanup()

	// The decider insists on placing every tile on device 1.
	remote := func() *env.Decision {
		cfg := a.MinConfig()
		costs, _ := a.Costs(cfg)
		p := supernet.LocalPlacement(costs)
		for k := range p.Devices {
			for ti := range p.Devices[k] {
				p.Devices[k][ti] = 1
			}
		}
		return &env.Decision{Config: cfg, Placement: p}
	}
	decider := DeciderFunc(func(c env.Constraint) (*env.Decision, error) {
		return remote(), nil
	})
	rt := New(sched, decider, NewStrategyCache(16, 25, 5, 10), nil)
	rt.SetSLO(SLO{Type: env.LatencySLO, Value: 200})
	rt.SetLinkState(0, 100, 10)

	// Healthy: the remote placement passes through untouched.
	res, err := rt.ResolveFor(rt.SLO())
	if err != nil {
		t.Fatal(err)
	}
	if res.Decision.Placement.Devices[0][0] != 1 {
		t.Fatal("healthy placement was rewritten")
	}

	// Unhealthy: even though the decider still says device 1, the resolved
	// placement must not reference it — and the decider's decision object
	// must not be mutated (cached decisions are shared).
	rt.Devices.Apply(Change{Dev: 1, To: DeviceDown})
	orig := remote()
	res, err = rt.ResolveFor(rt.SLO())
	if err != nil {
		t.Fatal(err)
	}
	for k, layer := range res.Decision.Placement.Devices {
		for ti, dev := range layer {
			if dev != 0 {
				t.Fatalf("layer %d tile %d still on device %d after failover", k, ti, dev)
			}
		}
	}
	if orig.Placement.Devices[0][0] != 1 {
		t.Fatal("sanitize mutated the source decision")
	}

	// The sanitized placement actually executes with the remote gone.
	rng := rand.New(rand.NewSource(32))
	if _, err := sched.Infer(randInput(rng, 1, 3, 32, 32), &supernet.Decision{
		Config: res.Decision.Config, Placement: res.Decision.Placement}); err != nil {
		t.Fatalf("sanitized placement failed locally: %v", err)
	}
}

func TestSchedulerDeviceErrorTyped(t *testing.T) {
	a := supernet.TinyArch(4)
	net := supernet.New(a, 33)
	srv := rpcx.NewServer()
	NewExecutor(net).Register(srv)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl, dialErr := rpcx.Dial(addr, nil)
	srv.Close()
	if dialErr != nil {
		t.Skip("dial failed fast; nothing to test")
	}
	defer cl.Close()

	sched := NewScheduler(net, []*rpcx.Client{cl})
	cfg := a.MaxConfig()
	costs, _ := a.Costs(cfg)
	p := supernet.LocalPlacement(costs)
	for k := range p.Devices {
		for ti := range p.Devices[k] {
			p.Devices[k][ti] = 1
		}
	}
	rng := rand.New(rand.NewSource(34))
	x := tensor.New(1, 3, 32, 32)
	x.RandNormal(rng, 0.5)
	_, err = sched.Infer(x, &supernet.Decision{Config: cfg, Placement: p})
	if err == nil {
		t.Fatal("inference against a dead device must succeed-fail")
	}
	var de *DeviceError
	if !errors.As(err, &de) {
		t.Fatalf("remote failure is not a *DeviceError: %v", err)
	}
	if de.Device != 1 {
		t.Fatalf("DeviceError.Device = %d, want 1", de.Device)
	}
	if de.Unwrap() == nil {
		t.Fatal("DeviceError must carry the transport cause")
	}
}
