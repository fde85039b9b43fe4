// Tests for the cluster glue's half of the device table (DESIGN.md §6.1): one
// batch of detector events is one Apply. External test package like the chaos
// tests.
package serve_test

import (
	goruntime "runtime"
	"sync"
	"testing"
	"time"

	"murmuration/internal/cluster"
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
	opts.Cluster = m
	g := serve.New(rt, opts)
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

// TestMassRecoveryIsOneApply: a fleet that is killed and recovered over and
// over rejoins each time in one step — the first snapshot that shows any
// victim back shows all of them back, so the eligible set (and with it the
// strategy-cache key) moves once per recovery — and accumulates nothing: the
// process has, after every round, the goroutines it had after the first.
func TestMassRecoveryIsOneApply(t *testing.T) {
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
		var first []runtime.DeviceState
		waitForTable(t, rt, "a victim back", func(ds []runtime.DeviceState) bool {
			first = ds
			return ds[0].Up || ds[1].Up || ds[2].Up
		})
		for _, v := range victims {
			if !first[v].Up {
				t.Fatalf("round %d: the first snapshot with a victim back has device %d still down: %+v",
					round, v+1, first)
			}
		}
		if round == 0 {
			goroutines = goruntime.NumGoroutine()
		}
	}
	if now := goruntime.NumGoroutine(); now > goroutines {
		t.Fatalf("%d goroutines after %d rounds, %d after the first", now, rounds, goroutines)
	}
}

// TestRestartFencesAndReinstates: a detected restart is a fenced Down followed
// by an ordinary Up. The fence moves to the new incarnation before the
// restart hook runs, and the device is back in placement once the batch is
// applied.
func TestRestartFencesAndReinstates(t *testing.T) {
	testutil.CheckGoroutines(t)
	const incA, incB = uint64(1)<<48 | 0xA, uint64(2)<<48 | 0xB
	restarted := make(chan uint64, 1)
	g, rt, m := tableGateway(t, 2, serve.Options{Workers: 1,
		OnRestart: func(dev int, inc uint64) { restarted <- inc }})
	defer m.Close()
	g.AttachHealth(serve.HealthOptions{ProbeEvery: -1, TickEvery: time.Hour})
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
	waitForTable(t, rt, "device 1 back", func(ds []runtime.DeviceState) bool { return ds[0].Up })
	d := rt.Devices.Snapshot()[0]
	if d.Incarnation != incB {
		t.Fatalf("fence expects incarnation %#x after the restart, want %#x", d.Incarnation, incB)
	}
	if !rt.Devices.Eligible(1) {
		t.Fatalf("restarted device not back in placement: %+v", d)
	}
	if st := g.Stats(); st.Restarts != 1 {
		t.Fatalf("Restarts = %d, want 1", st.Restarts)
	}
}

// blockingRestartHook is an OnRestart hook that reports each call's device
// on entered and returns once release is called. Release before Close: Close
// waits for the hooks.
func blockingRestartHook() (hook func(int, uint64), entered chan int, release func()) {
	entered, released := make(chan int, 4), make(chan struct{})
	var once sync.Once
	return func(dev int, _ uint64) {
			entered <- dev
			<-released
		}, entered, func() {
			once.Do(func() { close(released) })
		}
}

// TestRestartHookRunsOffTheEventLoop: while device 1's restart hook runs
// (NewGateway's re-probes the link, up to seconds), the detector's next
// verdict — device 2 down — reaches placement; device 1 returns only after
// its hook.
func TestRestartHookRunsOffTheEventLoop(t *testing.T) {
	testutil.CheckGoroutines(t)
	hook, entered, release := blockingRestartHook()
	g, rt, m := tableGateway(t, 2, serve.Options{Workers: 1, OnRestart: hook})
	defer m.Close()
	defer g.Close(time.Second)
	defer release()

	m.ReportHeartbeat(0, time.Millisecond, 1<<48|0xA)
	m.ReportHeartbeat(0, time.Millisecond, 2<<48|0xB) // device 1 restarted
	if dev := <-entered; dev != 1 {
		t.Fatalf("restart hook ran for device %d, want 1", dev)
	}
	m.MarkDown(1)
	waitForTable(t, rt, "device 2 down while device 1's hook runs", func(ds []runtime.DeviceState) bool { return !ds[1].Up })
	if rt.Devices.Eligible(1) {
		t.Fatal("device 1 back in placement before its restart hook returned")
	}
	release()
	waitForTable(t, rt, "device 1 back", func(ds []runtime.DeviceState) bool { return ds[0].Up })
	if rt.Devices.Eligible(2) {
		t.Fatal("device 2 back in placement without an Up")
	}
	if st := g.Stats(); st.Restarts != 1 {
		t.Fatalf("Restarts = %d, want 1", st.Restarts)
	}
}

// TestVerdictsDuringRestartHook: while a device's restart hook runs, an Up
// for it waits for the hook and a Down stands: a device the detector lost
// during the hook is not reinstated when the hook returns.
func TestVerdictsDuringRestartHook(t *testing.T) {
	testutil.CheckGoroutines(t)
	hook, entered, release := blockingRestartHook()
	g, rt, m := tableGateway(t, 2, serve.Options{Workers: 1, OnRestart: hook})
	defer m.Close()
	defer g.Close(time.Second)
	defer release()

	const inc = 2<<48 | 0xB
	m.ReportHeartbeat(0, time.Millisecond, 1<<48|0xA)
	m.ReportHeartbeat(0, time.Millisecond, inc) // device 1 restarted
	<-entered
	m.MarkDown(0)
	m.ReportHeartbeat(0, time.Millisecond, inc) // recovered, same process
	// Batches are handled in order: once device 2's Down shows, device 1's
	// Up has been handled too.
	m.MarkDown(1)
	waitForTable(t, rt, "device 2 down", func(ds []runtime.DeviceState) bool { return !ds[1].Up })
	if rt.Devices.Eligible(1) {
		t.Fatal("an Up during device 1's restart hook reinstated it before the hook returned")
	}
	m.MarkDown(0)
	m.ReportHeartbeat(1, time.Millisecond, 0)
	waitForTable(t, rt, "device 2 back", func(ds []runtime.DeviceState) bool { return ds[1].Up })
	release()
	g.Close(time.Second) // waits for the hook and its reinstatement
	if rt.Devices.Eligible(1) {
		t.Fatalf("device 1 reinstated by its hook after the detector reported it down: %+v", rt.Devices.Snapshot()[0])
	}
}
