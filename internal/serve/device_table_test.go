// Tests for the cluster glue's half of the device table (DESIGN.md §6.1): holds
// are data on the record, placed and released in one goroutine. External test
// package like the chaos tests.
package serve_test

import (
	goruntime "runtime"
	"testing"
	"time"

	"murmuration/internal/cluster"
	"murmuration/internal/health"
	"murmuration/internal/rpcx"
	"murmuration/internal/runtime"
	"murmuration/internal/serve"
	"murmuration/internal/supernet"
	"murmuration/internal/testutil"
)

// tableGateway builds a gateway over n remotes whose clients are nil (nothing
// ever dispatches) and a detector that is never Started: the tests publish its
// transitions themselves.
func tableGateway(t *testing.T, n int, opts serve.Options) (*serve.Gateway, *runtime.Runtime, *cluster.Manager) {
	t.Helper()
	a := supernet.TinyArch(4)
	sched := runtime.NewScheduler(supernet.New(a, 811), make([]*rpcx.Client, n))
	rt := runtime.New(sched, liveSpreadDecider(a), runtime.NewStrategyCache(8, 25, 5, 10), nil)
	probes := make([]cluster.ProbeFunc, n)
	for i := range probes {
		rt.SetLinkState(i, 100, 5)
		probes[i] = func(time.Duration) (time.Duration, uint64, error) { return time.Millisecond, 0, nil }
	}
	m := cluster.NewManager(probes, cluster.Options{})
	g := serve.New(rt, opts)
	g.AttachCluster(m)
	return g, rt, m
}

func waitForTable(t *testing.T, rt *runtime.Runtime, desc string, cond func([]runtime.DeviceState) bool) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for !cond(rt.Devices.Snapshot()) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s: %+v", desc, rt.Devices.Snapshot())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestMassChurnLeavesNoHoldBehind: a fleet that is killed and recovered over
// and over must not accumulate anything. Every staggered reinstatement used
// to append a timer that nothing removed before Close; holds are now a time on
// the record, so after each round the table is as it started and the process
// has the goroutines it had after the first.
func TestMassChurnLeavesNoHoldBehind(t *testing.T) {
	testutil.CheckGoroutines(t)
	const remotes, rounds = 4, 4
	g, rt, m := tableGateway(t, remotes, serve.Options{Workers: 1})
	defer m.Close()
	defer g.Close(time.Second)

	victims := []int{0, 1, 2}
	goroutines := 0
	for round := 0; round < rounds; round++ {
		m.MarkDownBatch(victims)
		waitForTable(t, rt, "victims down", func(ds []runtime.DeviceState) bool {
			return !ds[0].Up && !ds[1].Up && !ds[2].Up && ds[3].Up
		})
		m.MarkUpBatch(victims)
		// First device at once, the other two one and two staggers later; a
		// hold lasts until its device is back.
		waitForTable(t, rt, "every device back, nothing held", func(ds []runtime.DeviceState) bool {
			for _, d := range ds {
				if !d.Up || !d.Hold.IsZero() {
					return false
				}
			}
			return true
		})
		if round == 0 {
			goroutines = goruntime.NumGoroutine()
		}
	}
	if st := g.Stats(); st.StaggeredReintegrations != 2*rounds {
		t.Fatalf("StaggeredReintegrations = %d, want %d (two of three victims per round)",
			st.StaggeredReintegrations, 2*rounds)
	}
	if now := goruntime.NumGoroutine(); now > goroutines {
		t.Fatalf("%d goroutines after %d rounds, %d after the first", now, rounds, goroutines)
	}
}

// TestRestartWhileSuppressedStaysOut: a detected restart is a fenced Down
// followed by an ordinary Up, so it does not reinstate a device around the
// flap damper's refusal — the device rejoins when the penalty has decayed,
// through the same release as any held device. (The restart handler used to
// flip the mask up unconditionally, and the damper sweep reinstated it again.)
func TestRestartWhileSuppressedStaysOut(t *testing.T) {
	testutil.CheckGoroutines(t)
	const incA, incB = uint64(1)<<48 | 0xA, uint64(2)<<48 | 0xB
	restarted := make(chan uint64, 1)
	g, rt, m := tableGateway(t, 2, serve.Options{Workers: 1,
		OnRestart: func(dev int, inc uint64) { restarted <- inc }})
	defer m.Close()
	g.AttachHealth(serve.HealthOptions{
		// One flip suppresses; two flips' penalty takes ~2 half-lives to decay
		// below the reuse threshold.
		Damper: health.DamperOptions{SuppressThreshold: 900, ReuseThreshold: 450,
			HalfLife: 300 * time.Millisecond, HoldDown: 50 * time.Millisecond},
		ProbeEvery: -1,
		TickEvery:  time.Hour,
	})
	defer g.Close(time.Second)

	m.ReportHeartbeat(0, time.Millisecond, incA) // already Up: only the identity is learned
	m.MarkDown(0)
	waitForTable(t, rt, "device 1 down", func(ds []runtime.DeviceState) bool { return !ds[0].Up })

	// The replacement process answers: one restart event, From Down, To Up.
	m.ReportHeartbeat(0, time.Millisecond, incB)
	select {
	case inc := <-restarted:
		if inc != incB {
			t.Fatalf("restart hook saw incarnation %#x, want %#x", inc, incB)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("restart never reached the gateway")
	}
	waitForTable(t, rt, "the refused reinstatement to be held", func(ds []runtime.DeviceState) bool {
		return !ds[0].Hold.IsZero()
	})
	d := rt.Devices.Snapshot()[0]
	if d.Up || rt.Devices.Eligible(1) {
		t.Fatalf("restart reinstated a flap-suppressed device: %+v", d)
	}
	if d.Incarnation != incB {
		t.Fatalf("fence expects incarnation %#x after the restart, want %#x", d.Incarnation, incB)
	}
	if st := g.Stats(); st.FlapSuppressed == 0 {
		t.Fatalf("the damper never engaged: %+v", st)
	}
	if m.StateOf(0) != cluster.Up {
		t.Fatalf("detector says %v, want Up: the hold, not the detector, keeps the device out", m.StateOf(0))
	}

	waitForTable(t, rt, "release once the penalty decayed", func(ds []runtime.DeviceState) bool {
		return ds[0].Up && ds[0].Hold.IsZero()
	})
	if st := g.Stats(); st.Restarts != 1 {
		t.Fatalf("Restarts = %d, want 1", st.Restarts)
	}
}
