package serve

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"murmuration/internal/fault"
	"murmuration/internal/rl/env"
	"murmuration/internal/rpcx"
	"murmuration/internal/runtime"
	"murmuration/internal/supernet"
	"murmuration/internal/tensor"
	"murmuration/internal/testutil"
	"murmuration/internal/watchdog"
)

// Self-protection at the serving layer: a daemon panic fails one batch and
// nothing else, a panic streak demotes the device and failover serves the
// request anyway, worker panics are recovered in-process, and a watchdog
// brownout tightens admission without touching SLO-bearing traffic.

// TestPanicFailsOnlyBatch: a single handler panic on the remote daemon is a
// request fault — the batch riding it fails with a typed error, the very next
// request serves on the same daemon, and no device is demoted.
func TestPanicFailsOnlyBatch(t *testing.T) {
	testutil.CheckGoroutines(t)
	a := supernet.TinyArch(4)
	net1 := supernet.New(a, 500)

	ex := runtime.NewExecutor(net1)
	handler := ex.ExecBlockHandler()
	var calls atomic.Int64
	srv := rpcx.NewServer()
	srv.Handle(runtime.ExecBlockMethod, func(p []byte) ([]byte, error) {
		if calls.Add(1) == 1 {
			panic("injected daemon panic")
		}
		return handler(p)
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := rpcx.Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	sched := runtime.NewScheduler(net1, []*rpcx.Client{cl})
	rt := runtime.New(sched, remoteDecider(a), runtime.NewStrategyCache(32, 25, 5, 10), nil)
	rt.SetLinkState(0, 100, 5)

	g := New(rt, Options{Workers: 1})
	defer g.Close(time.Second)

	_, err = g.Submit(testInput(500), latSLO(30000))
	if fault.Of(err) != fault.Request {
		t.Fatalf("first submit rode the panic: err = %v, want panic-typed", err)
	}
	out, err := g.Submit(testInput(501), latSLO(30000))
	if err != nil {
		t.Fatalf("second submit after isolated panic: %v", err)
	}
	if out.Logits == nil || out.Logits.Shape[1] != 4 {
		t.Fatalf("bad logits after panic recovery: %v", out.Logits)
	}

	st := g.Stats()
	if st.Failed != 1 || st.Served != 1 {
		t.Fatalf("failed=%d served=%d, want 1/1: %+v", st.Failed, st.Served, st)
	}
	if st.RemotePanics == 0 {
		t.Fatalf("daemon panic not visible in serve stats: %+v", st)
	}
	// One panic is a request fault: no failover fired and the device stays
	// healthy.
	if st.FailoverAttempts != 0 {
		t.Fatalf("a lone panic triggered failover: %+v", st)
	}
	if h := rt.Devices.Snapshot(); !h[0].Up {
		t.Fatal("a lone panic demoted the device")
	}
}

// TestRepeatedPanicsDemoteAndFailover: a daemon that panics on every call
// crosses PanicFaultThreshold — the streak reclassifies the panic as a device
// fault, failover serves the request locally, and the device is demoted.
func TestRepeatedPanicsDemoteAndFailover(t *testing.T) {
	testutil.CheckGoroutines(t)
	a := supernet.TinyArch(4)
	net1 := supernet.New(a, 501)

	srv := rpcx.NewServer()
	srv.Handle(runtime.ExecBlockMethod, func([]byte) ([]byte, error) {
		panic("wedged daemon")
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := rpcx.Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	sched := runtime.NewScheduler(net1, []*rpcx.Client{cl})
	rt := runtime.New(sched, remoteDecider(a), runtime.NewStrategyCache(32, 25, 5, 10), nil)
	rt.SetLinkState(0, 100, 5)

	g := New(rt, Options{Workers: 1})
	defer g.Close(time.Second)

	// Below the threshold every panic is a request fault: typed failure, no
	// failover.
	for i := 1; i < runtime.PanicFaultThreshold; i++ {
		_, err := g.Submit(testInput(int64(510+i)), latSLO(30000))
		if fault.Of(err) != fault.Request {
			t.Fatalf("submit %d: err = %v, want panic-typed", i, err)
		}
	}
	// The streak tips the classification: device fault → failover serves the
	// request on a re-resolved (device-free) strategy.
	out, err := g.Submit(testInput(520), latSLO(30000))
	if err != nil {
		t.Fatalf("failover should have served the request locally: %v", err)
	}
	if out.Logits == nil || out.Logits.Shape[1] != 4 {
		t.Fatalf("bad logits after failover: %v", out.Logits)
	}

	st := g.Stats()
	if st.FailoverAttempts != 1 || st.Failovers != 1 {
		t.Fatalf("failover counters %d/%d, want 1/1: %+v", st.FailoverAttempts, st.Failovers, st)
	}
	if want := uint64(runtime.PanicFaultThreshold - 1); st.Failed != want {
		t.Fatalf("failed=%d, want %d: %+v", st.Failed, want, st)
	}
	if st.RemotePanics < uint64(runtime.PanicFaultThreshold) {
		t.Fatalf("RemotePanics=%d, want >= %d", st.RemotePanics, runtime.PanicFaultThreshold)
	}
	if h := rt.Devices.Snapshot(); h[0].Up {
		t.Fatal("panic-streaking device still marked healthy")
	}
}

// TestWorkerPanicRecovered: a panic inside the gateway's own pipeline (here
// the decider) fails that batch with a typed error and the worker loop
// survives to serve the next request.
func TestWorkerPanicRecovered(t *testing.T) {
	testutil.CheckGoroutines(t)
	var calls atomic.Int64
	rt := newTestRuntime(502, func() {
		if calls.Add(1) == 1 {
			panic("decider exploded")
		}
	})
	g := New(rt, Options{Workers: 1})
	defer g.Close(time.Second)

	_, err := g.Submit(testInput(530), latSLO(5000))
	if fault.Of(err) != fault.Request {
		t.Fatalf("panicked batch: err = %v, want panic-typed", err)
	}
	out, err := g.Submit(testInput(531), latSLO(5000))
	if err != nil {
		t.Fatalf("worker did not survive its own panic: %v", err)
	}
	if out.Logits == nil || out.Logits.Shape[1] != 4 {
		t.Fatalf("bad logits after worker recovery: %v", out.Logits)
	}

	st := g.Stats()
	if st.Panics != 1 {
		t.Fatalf("Panics=%d, want 1: %+v", st.Panics, st)
	}
	if st.Failed != 1 || st.Served != 1 {
		t.Fatalf("failed=%d served=%d, want 1/1: %+v", st.Failed, st.Served, st)
	}
}

// TestKernelPanicFailsOneRequest: a panic inside a kernel — here the stem's
// convolution indexing a weight cut short, on one of the goroutines the kernel
// splits its work across — fails that request with a typed error, and the
// gateway serves the next one. Before tensor.split carried a chunk's panic back
// to its caller this ended the process.
func TestKernelPanicFailsOneRequest(t *testing.T) {
	testutil.CheckGoroutines(t)
	defer tensor.SetParallelism(tensor.Parallelism())
	tensor.SetParallelism(4)

	// The largest submodel: at 32 px its stem is enough work to be split.
	a := supernet.TinyArch(4)
	net := supernet.New(a, 504)
	decider := runtime.DeciderFunc(func(env.Constraint) (*env.Decision, error) {
		cfg := a.MaxConfig()
		costs, _ := a.Costs(cfg)
		return &env.Decision{Config: cfg, Placement: supernet.LocalPlacement(costs)}, nil
	})
	rt := runtime.New(runtime.NewScheduler(net, nil), decider, runtime.NewStrategyCache(32, 25, 5, 10), nil)
	g := New(rt, Options{Workers: 1})
	defer g.Close(time.Second)

	stem := net.Params()[0].W
	whole := stem.Data
	stem.Data = whole[:1:1]
	_, err := g.Submit(testInput(550), latSLO(5000))
	stem.Data = whole
	if fault.Of(err) != fault.Request || !strings.Contains(err.Error(), "tensor.split") {
		t.Fatalf("request over a broken kernel: err = %v, want a panic-typed error raised from tensor.split", err)
	}
	out, err := g.Submit(testInput(551), latSLO(5000))
	if err != nil {
		t.Fatalf("gateway did not survive a kernel panic: %v", err)
	}
	if out.Logits == nil || out.Logits.Shape[1] != 4 {
		t.Fatalf("bad logits after a kernel panic: %v", out.Logits)
	}
	if st := g.Stats(); st.Panics != 1 || st.Failed != 1 || st.Served != 1 {
		t.Fatalf("panics=%d failed=%d served=%d, want 1/1/1: %+v", st.Panics, st.Failed, st.Served, st)
	}
}

// TestBrownoutTightensAdmission: flipping the brownout sheds best-effort
// traffic as a typed overload refusal, raises the degradation-ladder floor so
// SLO-bearing batches execute degraded, and clearing it restores both.
func TestBrownoutTightensAdmission(t *testing.T) {
	testutil.CheckGoroutines(t)
	g := New(newTestRuntime(503, nil), Options{Workers: 1, QueueDepth: 8})
	defer g.Close(time.Second)

	// Healthy gateway: best-effort is admitted and served.
	if _, err := g.Submit(testInput(540), runtime.SLO{}); err != nil {
		t.Fatalf("best-effort before brownout: %v", err)
	}

	g.SetBrownout(true)
	if !g.Brownout() {
		t.Fatal("SetBrownout(true) did not take")
	}
	_, err := g.Submit(testInput(541), runtime.SLO{})
	if !errors.Is(err, ErrOverloaded) || fault.Of(err) != fault.Load {
		t.Fatalf("brownout best-effort: err = %v, want a typed overload shed", err)
	}
	if g.Ladder().Floor() != BrownoutRung || g.Ladder().Rung() < BrownoutRung {
		t.Fatalf("brownout floor/rung = %d/%d, want >= %d",
			g.Ladder().Floor(), g.Ladder().Rung(), BrownoutRung)
	}
	// SLO-bearing traffic still serves — degraded at the brownout floor.
	out, err := g.Submit(testInput(542), latSLO(5000))
	if err != nil {
		t.Fatalf("latency request under brownout: %v", err)
	}
	if out.Rung < BrownoutRung {
		t.Fatalf("brownout batch ran at rung %d, want >= %d", out.Rung, BrownoutRung)
	}
	st := g.Stats()
	if st.Brownouts != 1 || st.BrownoutActive != 1 {
		t.Fatalf("brownout counters: %+v", st)
	}
	if st.Overloads == 0 || st.Shed == 0 || st.Degraded == 0 {
		t.Fatalf("brownout effects not counted: %+v", st)
	}

	// Watchdog gauges ride stats once attached and sampled.
	w := watchdog.New(watchdog.Options{})
	g.AttachWatchdog(w)
	w.Sample()
	if st := g.Stats(); st.Goroutines == 0 || st.HeapBytes == 0 {
		t.Fatalf("watchdog gauges missing from stats: %+v", st)
	}

	// Clearing restores admission and drops the floor; the ladder climbs home
	// through its normal hysteresis rather than snapping.
	g.SetBrownout(false)
	if _, err := g.Submit(testInput(543), runtime.SLO{}); err != nil {
		t.Fatalf("best-effort after brownout cleared: %v", err)
	}
	if st := g.Stats(); st.BrownoutActive != 0 {
		t.Fatalf("BrownoutActive still set after clear: %+v", st)
	}
	if g.Ladder().Floor() != 0 {
		t.Fatalf("floor not cleared: %d", g.Ladder().Floor())
	}

	// Edge-triggered: re-asserting the same state does not re-count.
	g.SetBrownout(true)
	g.SetBrownout(true)
	if st := g.Stats(); st.Brownouts != 2 {
		t.Fatalf("Brownouts=%d after two distinct activations, want 2", st.Brownouts)
	}
	g.SetBrownout(false)
}
