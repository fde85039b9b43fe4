package serve

import (
	"sync/atomic"
	"testing"
	"time"

	"murmuration/internal/cluster"
	"murmuration/internal/rl/env"
	"murmuration/internal/rpcx"
	"murmuration/internal/runtime"
	"murmuration/internal/supernet"
)

// remoteDecider always places every tile on placement device 1 — the
// runtime's sanitize pass, not the decider, must keep dead devices out.
func remoteDecider(a *supernet.Arch) runtime.DeciderFunc {
	return func(c env.Constraint) (*env.Decision, error) {
		cfg := a.MinConfig()
		costs, _ := a.Costs(cfg)
		p := supernet.LocalPlacement(costs)
		for k := range p.Devices {
			for ti := range p.Devices[k] {
				p.Devices[k][ti] = 1
			}
		}
		return &env.Decision{Config: cfg, Placement: p}, nil
	}
}

// TestFailoverRetriesOnDeviceError: a batch that dies on a remote device must
// be retried once on a re-resolved (device-free) strategy and served, not
// failed — and the failure must be visible in every failover counter.
func TestFailoverRetriesOnDeviceError(t *testing.T) {
	a := supernet.TinyArch(4)
	net := supernet.New(a, 300)

	// A server that accepts the dial and then goes away: the first remote
	// tile call fails with a device-attributed transport error.
	srv := rpcx.NewServer()
	runtime.NewExecutor(net).Register(srv)
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

	sched := runtime.NewScheduler(net, []*rpcx.Client{cl})
	rt := runtime.New(sched, remoteDecider(a), runtime.NewStrategyCache(32, 25, 5, 10), nil)
	rt.SetLinkState(0, 100, 5)

	var hookDevice atomic.Int64
	g := New(rt, Options{Workers: 1, OnDeviceError: func(dev int, err error) {
		hookDevice.Store(int64(dev))
	}})
	defer g.Close(time.Second)

	out, err := g.Submit(testInput(300), latSLO(30000))
	if err != nil {
		t.Fatalf("failover should have served the request locally: %v", err)
	}
	if out.Logits == nil || out.Logits.Shape[1] != 4 {
		t.Fatalf("bad logits after failover: %v", out.Logits)
	}

	st := g.Stats()
	if st.Served != 1 || st.Failed != 0 {
		t.Fatalf("served=%d failed=%d, want 1/0: %+v", st.Served, st.Failed, st)
	}
	if st.FailoverAttempts != 1 || st.Failovers != 1 {
		t.Fatalf("failover counters %d/%d, want 1/1", st.FailoverAttempts, st.Failovers)
	}
	// Invalidation is an O(1) epoch bump; the stranded entry is swept lazily
	// if a lookup ever lands on its key again, so the event counter — not the
	// per-entry sweep counter — is what must move here.
	if st.InvalidationEpochs == 0 {
		t.Fatal("the poisoned cached strategy was not invalidated")
	}
	// No detector attached: cluster counts derive from the device table.
	if st.ClusterDown != 1 || st.ClusterUp != 0 {
		t.Fatalf("derived cluster counts up=%d down=%d, want 0/1", st.ClusterUp, st.ClusterDown)
	}
	if hookDevice.Load() != 1 {
		t.Fatalf("OnDeviceError saw device %d, want 1", hookDevice.Load())
	}
	if h := rt.Devices.Snapshot(); h[0].Up {
		t.Fatal("failing device still marked healthy")
	}
}

// TestAttachClusterFailoverEvents drives Down/Up through the failure detector
// and checks the gateway mirrors them into the runtime: demote + invalidate
// on Down, reinstate on recovery, counts exposed via Stats.
func TestAttachClusterFailoverEvents(t *testing.T) {
	a := supernet.TinyArch(4)
	net := supernet.New(a, 301)
	// The remote is never called; a closed client is fine as a placeholder.
	srv := rpcx.NewServer()
	addr, _ := srv.Listen("127.0.0.1:0")
	cl, err := rpcx.Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	defer cl.Close()

	sched := runtime.NewScheduler(net, []*rpcx.Client{cl})
	rt := runtime.New(sched, remoteDecider(a), runtime.NewStrategyCache(32, 25, 5, 10), nil)
	rt.SetLinkState(0, 100, 5)
	rt.SetSLO(latSLO(5000))

	g := New(rt, Options{Workers: 1})
	defer g.Close(time.Second)

	// Seed the cache with a strategy that places work on device 1.
	if _, err := rt.ResolveFor(rt.SLO()); err != nil {
		t.Fatal(err)
	}

	ok := atomic.Bool{}
	ok.Store(true)
	probe := func(timeout time.Duration) (time.Duration, uint64, error) {
		if !ok.Load() {
			return 0, 0, rpcx.ErrTimeout
		}
		return time.Millisecond, 0, nil
	}
	m := cluster.NewManager([]cluster.ProbeFunc{probe}, cluster.Options{
		HeartbeatInterval: 5 * time.Millisecond,
		SuspectAfter:      25 * time.Millisecond,
		DownAfter:         60 * time.Millisecond,
	})
	g.AttachCluster(m)
	m.Start()
	defer m.Close()

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

	ok.Store(false)
	waitFor("device demoted on Down", func() bool { return !rt.Devices.Snapshot()[0].Up })
	waitFor("cached strategy invalidated", func() bool { return g.Stats().InvalidationEpochs >= 1 })
	waitFor("cluster counts show the down member", func() bool { return g.Stats().ClusterDown == 1 })

	ok.Store(true)
	waitFor("device reinstated on recovery", func() bool { return rt.Devices.Snapshot()[0].Up })
	waitFor("cluster counts show recovery", func() bool {
		st := g.Stats()
		return st.ClusterUp == 1 && st.ClusterDown == 0
	})
}
