// Chaos tests for the correlated-failure immunity plane: a mass device loss
// and a recovery storm, both scripted as scenario traces whose mass events
// flow through the cluster manager's batched transitions. External test
// package for the same reason as chaos_scenario_test.go.
package serve_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"murmuration/internal/cluster"
	"murmuration/internal/fault"
	"murmuration/internal/limit"
	"murmuration/internal/rl/env"
	"murmuration/internal/rpcx"
	"murmuration/internal/runtime"
	"murmuration/internal/scenario"
	"murmuration/internal/serve"
	"murmuration/internal/supernet"
	"murmuration/internal/testutil"
)

// concurrencyDecider wraps a decider and records, per constraint key, the
// maximum number of concurrently executing decide calls. The resolution
// singleflight makes ==1 an invariant: however many workers miss on the same
// key at once, exactly one decider call runs for it.
type concurrencyDecider struct {
	inner runtime.DeciderFunc
	hold  time.Duration

	mu    sync.Mutex
	cur   map[string]int
	max   int
	calls uint64
}

func (d *concurrencyDecider) decide(c env.Constraint) (*env.Decision, error) {
	key := fmt.Sprintf("%v", c)
	d.mu.Lock()
	if d.cur == nil {
		d.cur = make(map[string]int)
	}
	d.cur[key]++
	if d.cur[key] > d.max {
		d.max = d.cur[key]
	}
	d.calls++
	d.mu.Unlock()
	defer func() {
		d.mu.Lock()
		d.cur[key]--
		d.mu.Unlock()
	}()
	// Widen the window in which a second miss on the same key would overlap:
	// without singleflight this test's burst phase would push max past 1.
	time.Sleep(d.hold)
	return d.inner(c)
}

func (d *concurrencyDecider) maxPerKey() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.max
}

// TestChaosMassDeviceLoss kills half the fleet in one scripted tick (one
// EvMassKill → one MarkDownBatch → one batched reconfiguration) and asserts
// the storm-control contract:
//
//   - the correlated-loss detector fires and tightens admission one rung;
//   - speculative attempts (rpcx retries, failovers, hedges) stay inside the
//     shared retry budget — the combined retry rate is bounded no matter how
//     many mechanisms want to re-drive work;
//   - concurrent strategy-cache misses for one key collapse into a single
//     decider call (ResolveCoalesced > 0, per-key decide concurrency == 1);
//   - survivors keep serving: >= 90% of post-kill requests complete, nothing
//     lands in Failed, and the admission ledger stays exact.
func TestChaosMassDeviceLoss(t *testing.T) {
	testutil.CheckGoroutines(t)
	const (
		numDevices   = 4
		sloMs        = 30000
		killAt       = 10 * time.Millisecond
		inFlightReqs = 12
		survivorReqs = 20
	)
	a := supernet.TinyArch(4)
	net := supernet.New(a, 310)
	start := time.Now()

	srvs := make([]*rpcx.Server, numDevices)
	addrs := make([]string, numDevices)
	for i := range srvs {
		srvs[i], addrs[i] = chaosDaemon(t, net, "127.0.0.1:0")
	}
	defer func() {
		for _, s := range srvs {
			s.Close()
		}
	}()

	clients := make([]*rpcx.Client, numDevices)
	for i := range clients {
		clients[i] = chaosDial(t, addrs[i], nil)
		defer clients[i].Close()
	}

	sched := runtime.NewScheduler(net, clients)
	sched.RemoteTimeout = 10 * time.Second
	budget := limit.NewBudget(limit.BudgetOptions{Ratio: 0.1, Burst: 4})
	sched.SetRetryBudget(budget)

	dec := &concurrencyDecider{inner: liveSpreadDecider(a), hold: 20 * time.Millisecond}
	rt := runtime.New(sched, runtime.DeciderFunc(dec.decide), runtime.NewStrategyCache(64, 25, 5, 10), nil)
	for i := 0; i < numDevices; i++ {
		rt.SetLinkState(i, 100, 5)
	}
	rt.SetSLO(chaosLatSLO(sloMs))

	hbs := make([]cluster.ProbeFunc, numDevices)
	for i := range hbs {
		hb := chaosDial(t, addrs[i], nil)
		defer hb.Close()
		hbs[i] = cluster.PingProbe(hb)
	}
	m := cluster.NewManager(hbs, cluster.Options{
		HeartbeatInterval: 10 * time.Millisecond,
		SuspectAfter:      50 * time.Millisecond,
		DownAfter:         120 * time.Millisecond,
	})
	defer m.Close()

	// MaxBatch 1 + several workers: a burst of same-SLO requests becomes
	// parallel single-request batches, each resolving independently — the
	// exact shape that stampedes a decider without singleflight.
	g := serve.New(rt, serve.Options{
		Workers: 4, MaxBatch: 1, MaxLinger: time.Millisecond, QueueDepth: 64,
		CorrelatedLossK:      2,
		CorrelatedLossWindow: 2 * time.Second,
		CorrelatedLossHold:   30 * time.Second, // hold the tighten for the whole test
	})
	defer g.Close(30 * time.Second)
	g.AttachCluster(m)
	m.Start()

	// The fault timeline as data: one mass-kill event removing devices 0..1.
	orch := scenario.NewOrchestrator([]scenario.Target{
		{Leave: func() { srvs[0].Close() }},
		{Leave: func() { srvs[1].Close() }},
		{},
		{},
	})
	orch.AttachCluster(m)
	player := scenario.NewPlayer(orch, &scenario.Trace{
		Name:   "mass-kill",
		Seed:   310,
		Events: []scenario.Event{{At: killAt, Kind: scenario.EvMassKill, Value: 0.5}},
	})

	// Phase 1 — baseline: traffic flows over the full fleet.
	for i := 0; i < 4; i++ {
		if _, err := g.Submit(chaosInput(int64(i)), chaosLatSLO(sloMs)); err != nil {
			t.Fatalf("baseline request %d: %v", i, err)
		}
	}

	// Phase 2 — the kill lands under load: launch concurrent requests, then
	// advance the trace while they are in flight, so calls caught on dying
	// devices exercise the failover-and-retry path the budget must bound.
	var started, success, shed, missed, otherErr atomic.Uint64
	var wg sync.WaitGroup
	for i := 0; i < inFlightReqs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			started.Add(1)
			_, err := g.Submit(chaosInput(int64(100+i)), chaosLatSLO(sloMs))
			switch {
			case err == nil:
				success.Add(1)
			case fault.Of(err) == fault.AdmissionShed || fault.Of(err) == fault.Load:
				shed.Add(1)
			case fault.Of(err) == fault.DeadlineMissed, fault.Of(err) == fault.BudgetExhausted:
				missed.Add(1)
			default:
				otherErr.Add(1)
				t.Errorf("in-flight request %d: unexpected error class: %v", i, err)
			}
		}(i)
	}
	for started.Load() < inFlightReqs/2 {
		time.Sleep(time.Millisecond)
	}
	if n, err := player.Advance(killAt); err != nil || n != 1 {
		t.Fatalf("mass kill applied %d events, err=%v; want 1, nil", n, err)
	}
	wg.Wait()

	waitFor := func(desc string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(20 * time.Second)
		for time.Now().Before(deadline) {
			if cond() {
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		t.Fatalf("timed out waiting for %s", desc)
	}
	waitFor("both victims Down", func() bool {
		return m.StateOf(0) == cluster.Down && m.StateOf(1) == cluster.Down
	})

	// One batched loss of 2 devices inside a 2s window with K=2: the detector
	// must have fired once and pre-tightened admission by one rung.
	waitFor("correlated-loss event recorded", func() bool {
		return g.Stats().CorrelatedLossEvents >= 1
	})
	if r := g.Ladder().Rung(); r < 1 {
		t.Fatalf("ladder rung %d after a correlated loss, want >= 1 (storm floor)", r)
	}

	// Phase 3 — resolution stampede: bursts of concurrent requests under a
	// fresh SLO value miss the cache on the same new key at once. The
	// singleflight must collapse them; retry until coalescing is observed
	// (each round uses a distinct key so earlier rounds cannot warm it).
	for round := 0; g.Stats().ResolveCoalesced == 0 && round < 5; round++ {
		slo := chaosLatSLO(sloMs - 1000 - float64(round))
		var bwg sync.WaitGroup
		for i := 0; i < 8; i++ {
			bwg.Add(1)
			go func(i int) {
				defer bwg.Done()
				if _, err := g.Submit(chaosInput(int64(200+i)), slo); err != nil &&
					fault.Of(err).Policy().Bucket == fault.BucketFailed {
					t.Errorf("burst request %d: unexpected error class: %v", i, err)
				}
			}(i)
		}
		bwg.Wait()
	}

	// Phase 4 — survivor attainment: sequential requests after the fleet
	// halved must overwhelmingly serve (degraded is fine; Failed is not).
	survived := 0
	for i := 0; i < survivorReqs; i++ {
		if _, err := g.Submit(chaosInput(int64(300+i)), chaosLatSLO(sloMs)); err == nil {
			survived++
		} else if fault.Of(err).Policy().Bucket == fault.BucketFailed {
			t.Fatalf("survivor request %d: unexpected error class: %v", i, err)
		}
	}
	if survived < survivorReqs*9/10 {
		t.Fatalf("survivors served %d/%d, want >= 90%%", survived, survivorReqs)
	}

	st := g.Stats()
	snap := budget.Snapshot()
	t.Logf("mass loss: in-flight success=%d shed=%d missed=%d; budget=%+v; stats=%+v",
		success.Load(), shed.Load(), missed.Load(), snap, st)

	if otherErr.Load() != 0 {
		t.Fatalf("%d requests failed with unexpected errors", otherErr.Load())
	}
	// The shared budget's hard bound: every speculative attempt withdrew a
	// whole token, financed only by the Ratio-per-primary deposits, the
	// starting Burst, and the MinRate trickle over the test's lifetime.
	elapsed := time.Since(start).Seconds()
	if maxW := 0.1*float64(snap.Deposits) + 4 + elapsed + 1; float64(snap.Withdrawals) > maxW {
		t.Fatalf("budget failed to bound retries: %d withdrawals > %.1f allowed (%+v)",
			snap.Withdrawals, maxW, snap)
	}
	if st.RetryBudgetExhausted != snap.Exhausted {
		t.Fatalf("stats mirror RetryBudgetExhausted=%d, budget says %d", st.RetryBudgetExhausted, snap.Exhausted)
	}
	// Singleflight: concurrent misses coalesced, and at no point did two
	// decider calls run for one constraint key.
	if st.ResolveCoalesced == 0 {
		t.Fatal("no resolution was coalesced across 5 burst rounds")
	}
	if st.ResolveCoalesced != rt.ResolveCoalesced() {
		t.Fatalf("stats mirror ResolveCoalesced=%d, runtime says %d", st.ResolveCoalesced, rt.ResolveCoalesced())
	}
	if max := dec.maxPerKey(); max != 1 {
		t.Fatalf("decider ran %d concurrent resolutions for one key, want exactly 1", max)
	}
	// The mass kill epoch-bumped the cache (visible even though the lazy
	// sweep may never touch the stranded entries).
	if st.InvalidationEpochs == 0 {
		t.Fatal("mass kill did not bump the invalidation epoch")
	}
	// Ledger exactness under the storm: every admitted request has exactly
	// one outcome, and none of them is Failed.
	if st.Admitted != st.Served+st.Dropped+st.Failed {
		t.Fatalf("ledger broken: admitted %d != served %d + dropped %d + failed %d",
			st.Admitted, st.Served, st.Dropped, st.Failed)
	}
	if st.Failed != 0 {
		t.Fatalf("mass loss produced Failed=%d, want 0 (shed/degrade only)", st.Failed)
	}
}

// TestChaosRecoveryStorm kills 3 of 4 devices, then returns them all in one
// scripted tick (one EvMassRecover → one MarkUpBatch → one batched Up). The
// gateway must smooth the wave: the reinstatements beyond the first are held
// and released one stagger apart, rewarms run one at a time, and the fleet
// fully recovers — every device healthy, placements spread again, and
// post-recovery traffic serves without the limiter collapsing.
func TestChaosRecoveryStorm(t *testing.T) {
	testutil.CheckGoroutines(t)
	const (
		numDevices = 4
		sloMs      = 30000
		killAt     = 10 * time.Millisecond
		recoverAt  = 20 * time.Millisecond
	)
	a := supernet.TinyArch(4)
	net := supernet.New(a, 311)

	srvs := make([]*rpcx.Server, numDevices)
	addrs := make([]string, numDevices)
	for i := range srvs {
		srvs[i], addrs[i] = chaosDaemon(t, net, "127.0.0.1:0")
	}
	defer func() {
		for _, s := range srvs {
			if s != nil {
				s.Close()
			}
		}
	}()

	clients := make([]*rpcx.Client, numDevices)
	for i := range clients {
		clients[i] = chaosDial(t, addrs[i], nil)
		defer clients[i].Close()
	}

	sched := runtime.NewScheduler(net, clients)
	sched.RemoteTimeout = 10 * time.Second
	sched.SetRetryBudget(limit.NewBudget(limit.BudgetOptions{Ratio: 0.2, Burst: 6}))

	rt := runtime.New(sched, liveSpreadDecider(a), runtime.NewStrategyCache(64, 25, 5, 10), nil)
	for i := 0; i < numDevices; i++ {
		rt.SetLinkState(i, 100, 5)
	}
	rt.SetSLO(chaosLatSLO(sloMs))

	// A long heartbeat keeps the scripted MarkUpBatch ahead of any organic
	// heartbeat recovery, so the batch path (and its staggering) is what the
	// test exercises.
	hbs := make([]cluster.ProbeFunc, numDevices)
	for i := range hbs {
		hb := chaosDial(t, addrs[i], nil)
		defer hb.Close()
		hbs[i] = cluster.PingProbe(hb)
	}
	m := cluster.NewManager(hbs, cluster.Options{
		HeartbeatInterval: 100 * time.Millisecond,
		SuspectAfter:      400 * time.Millisecond,
		DownAfter:         time.Second,
	})
	defer m.Close()

	g := serve.New(rt, serve.Options{
		Workers: 2, MaxBatch: 4, MaxLinger: time.Millisecond, QueueDepth: 32,
		CorrelatedLossK:      2,
		CorrelatedLossWindow: 2 * time.Second,
		CorrelatedLossHold:   500 * time.Millisecond,
	})
	defer g.Close(30 * time.Second)
	g.AttachCluster(m)
	m.Start()

	// Kill devices 0..2 (0.75 of 4); recovery restarts each daemon on its
	// old address and MarkUpBatch returns all three in one batch.
	orch := scenario.NewOrchestrator([]scenario.Target{
		{Leave: func() { srvs[0].Close() }, Join: func() { srvs[0], _ = chaosDaemon(t, net, addrs[0]) }},
		{Leave: func() { srvs[1].Close() }, Join: func() { srvs[1], _ = chaosDaemon(t, net, addrs[1]) }},
		{Leave: func() { srvs[2].Close() }, Join: func() { srvs[2], _ = chaosDaemon(t, net, addrs[2]) }},
		{},
	})
	orch.AttachCluster(m)
	player := scenario.NewPlayer(orch, &scenario.Trace{
		Name: "recovery-storm",
		Seed: 311,
		Events: []scenario.Event{
			{At: killAt, Kind: scenario.EvMassKill, Value: 0.75},
			{At: recoverAt, Kind: scenario.EvMassRecover},
		},
	})

	waitFor := func(desc string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(20 * time.Second)
		for time.Now().Before(deadline) {
			if cond() {
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		t.Fatalf("timed out waiting for %s", desc)
	}

	// Baseline, then the kill.
	for i := 0; i < 3; i++ {
		if _, err := g.Submit(chaosInput(int64(i)), chaosLatSLO(sloMs)); err != nil {
			t.Fatalf("baseline request %d: %v", i, err)
		}
	}
	if n, err := player.Advance(killAt); err != nil || n != 1 {
		t.Fatalf("mass kill applied %d events, err=%v; want 1, nil", n, err)
	}
	waitFor("victims Down", func() bool {
		return m.StateOf(0) == cluster.Down && m.StateOf(1) == cluster.Down && m.StateOf(2) == cluster.Down
	})
	// The lone survivor (plus local) keeps the service alive through the hole.
	for i := 0; i < 3; i++ {
		if _, err := g.Submit(chaosInput(int64(50+i)), chaosLatSLO(sloMs)); err != nil &&
			fault.Of(err).Policy().Bucket == fault.BucketFailed {
			t.Fatalf("outage request %d: unexpected error class: %v", i, err)
		}
	}

	// The simultaneous return: one batch of 3 Up transitions. The first
	// device reinstates immediately; the other two are scheduled one stagger
	// period apart rather than slamming back at once.
	if n, err := player.Finish(); err != nil || n != 1 {
		t.Fatalf("mass recover applied %d events, err=%v; want 1, nil", n, err)
	}
	waitFor("staggered reintegrations scheduled", func() bool {
		return g.Stats().StaggeredReintegrations >= 2
	})

	// Full recovery: every device Up and placement-eligible again once the
	// staggered holds are released.
	waitFor("all devices healthy", func() bool {
		h := rt.Devices.Snapshot()
		for i := 0; i < numDevices; i++ {
			if !h[i].Up {
				return false
			}
		}
		return true
	})
	// A heartbeat client's first probe after the restart can fail once (the
	// old socket died) before its re-dial lands, dipping the member to
	// Suspect — poll rather than assert a snapshot.
	waitFor("every member Up on the detector", func() bool {
		for i := 0; i < numDevices; i++ {
			if m.StateOf(i) != cluster.Up {
				return false
			}
		}
		return true
	})

	// Post-recovery traffic must serve — the limiter and ladder survived the
	// wave — and placement must spread over recovered devices again.
	served := 0
	const postReqs = 20
	for i := 0; i < postReqs; i++ {
		if _, err := g.Submit(chaosInput(int64(100+i)), chaosLatSLO(sloMs)); err == nil {
			served++
		} else if fault.Of(err).Policy().Bucket == fault.BucketFailed {
			t.Fatalf("post-recovery request %d: unexpected error class: %v", i, err)
		}
	}
	if served < postReqs*9/10 {
		t.Fatalf("post-recovery served %d/%d, want >= 90%%", served, postReqs)
	}
	res, err := rt.ResolveFor(rt.SLO())
	if err != nil {
		t.Fatal(err)
	}
	recoveredPlaced := false
	for _, layer := range res.Decision.Placement.Devices {
		for _, dev := range layer {
			if dev >= 1 && dev <= 3 {
				recoveredPlaced = true
			}
		}
	}
	if !recoveredPlaced {
		t.Fatalf("no recovered device back in the placement: %v", res.Decision.Placement.Devices)
	}

	st := g.Stats()
	t.Logf("recovery storm: stats=%+v", st)
	if st.CorrelatedLossEvents == 0 {
		t.Fatal("the 3-device kill did not register as a correlated loss")
	}
	if st.StaggeredReintegrations < 2 {
		t.Fatalf("StaggeredReintegrations=%d, want >= 2 (3 devices in one batch)", st.StaggeredReintegrations)
	}
	if st.Admitted != st.Served+st.Dropped+st.Failed {
		t.Fatalf("ledger broken: admitted %d != served %d + dropped %d + failed %d",
			st.Admitted, st.Served, st.Dropped, st.Failed)
	}
	if st.Failed != 0 {
		t.Fatalf("recovery storm produced Failed=%d, want 0", st.Failed)
	}
}
