package runtime

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"murmuration/internal/limit"
	"murmuration/internal/rpcx"
	"murmuration/internal/supernet"
	"murmuration/internal/tensor"
)

// Self-protection classification: panics are request faults until they
// streak, overload sheds are never device faults, and the per-device AIMD
// limiter clamps dispatch to congested daemons.

// remoteOneDecision builds a max-config decision placing every tile on
// device 1.
func remoteOneDecision(a *supernet.Arch) *supernet.Decision {
	cfg := a.MaxConfig()
	costs, _ := a.Costs(cfg)
	p := supernet.LocalPlacement(costs)
	for k := range p.Devices {
		for ti := range p.Devices[k] {
			p.Devices[k][ti] = 1
		}
	}
	return &supernet.Decision{Config: cfg, Placement: p}
}

func TestPanicStreakDemotesToDeviceFault(t *testing.T) {
	a := supernet.TinyArch(4)
	net := supernet.New(a, 30)

	srv := rpcx.NewServer()
	srv.Handle(ExecBlockMethod, func([]byte) ([]byte, error) {
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

	sched := NewScheduler(net, []*rpcx.Client{cl})
	d := remoteOneDecision(a)
	rng := rand.New(rand.NewSource(3))
	x := tensor.New(1, 3, 32, 32)
	x.RandNormal(rng, 0.5)

	// The first PanicFaultThreshold-1 panics are request faults: typed, not
	// attributable to the device.
	var de *DeviceError
	for i := 1; i < PanicFaultThreshold; i++ {
		_, err := sched.Infer(x, d)
		if !errors.Is(err, rpcx.ErrPanic) {
			t.Fatalf("inference %d: err = %v, want ErrPanic", i, err)
		}
		if errors.As(err, &de) {
			t.Fatalf("panic %d already classified as device fault", i)
		}
	}
	// The streak tips the classification: now it is a device fault.
	_, err = sched.Infer(x, d)
	if !errors.As(err, &de) {
		t.Fatalf("panic #%d not a DeviceError: %v", PanicFaultThreshold, err)
	}
	if de.Device != 1 || !errors.Is(de, rpcx.ErrPanic) {
		t.Fatalf("device fault misattributed: %+v", de)
	}
	if st := sched.Stats(); st.Panics < uint64(PanicFaultThreshold) {
		t.Fatalf("SchedStats.Panics = %d, want >= %d", st.Panics, PanicFaultThreshold)
	}
}

func TestSuccessResetsPanicStreak(t *testing.T) {
	a := supernet.TinyArch(4)
	net := supernet.New(a, 31)

	// Daemon alternates: panic, success, panic, success... the streak never
	// reaches the threshold, so no panic is ever a device fault.
	ex := NewExecutor(supernet.New(a, 31))
	srv := rpcx.NewServer()
	var calls int
	srv.Handle(ExecBlockMethod, func(p []byte) ([]byte, error) {
		calls++
		if calls%2 == 1 {
			panic("intermittent")
		}
		return ex.handleExecBlock(p)
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

	sched := NewScheduler(net, []*rpcx.Client{cl})
	d := remoteOneDecision(a)
	rng := rand.New(rand.NewSource(4))
	x := tensor.New(1, 3, 32, 32)
	x.RandNormal(rng, 0.5)

	var de *DeviceError
	for i := 0; i < 2*PanicFaultThreshold; i++ {
		_, err := sched.Infer(x, d)
		if err == nil {
			continue
		}
		if !errors.Is(err, rpcx.ErrPanic) {
			t.Fatalf("iteration %d: unexpected error %v", i, err)
		}
		if errors.As(err, &de) {
			t.Fatalf("intermittent panic classified as device fault on iteration %d", i)
		}
	}
}

func TestOverloadShedIsNotDeviceFault(t *testing.T) {
	a := supernet.TinyArch(4)
	net := supernet.New(a, 32)
	sched := NewScheduler(net, []*rpcx.Client{nil})
	// Saturate device 1's limiter so dispatch sheds locally without any
	// network I/O (the nil client is never reached).
	lim := sched.Limiter(1)
	for lim.TryAcquire() {
	}
	d := remoteOneDecision(a)
	rng := rand.New(rand.NewSource(5))
	x := tensor.New(1, 3, 32, 32)
	x.RandNormal(rng, 0.5)

	_, err := sched.Infer(x, d)
	if !errors.Is(err, limit.ErrLimited) {
		t.Fatalf("saturated limiter: err = %v, want ErrLimited", err)
	}
	var de *DeviceError
	if errors.As(err, &de) {
		t.Fatal("overload shed classified as device fault")
	}
	if st := sched.Stats(); st.Overloads == 0 {
		t.Fatal("overload shed not counted in SchedStats")
	}
}

func TestLimiterCutsOnCongestion(t *testing.T) {
	sched := NewScheduler(supernet.New(supernet.TinyArch(4), 33), []*rpcx.Client{nil})
	lim := sched.Limiter(1)
	start := lim.Limit()
	lim.TryAcquire()
	lim.Release(releaseOutcome(&rpcx.TimeoutError{Method: "exec.block", After: time.Millisecond}))
	if got := lim.Limit(); got >= start {
		t.Fatalf("timeout did not cut the limit: %d -> %d", start, got)
	}
	// Application-level failure is neutral; success grows.
	lim.TryAcquire()
	lim.Release(releaseOutcome(&rpcx.RemoteError{Msg: "bad tensor"}))
	after := lim.Limit()
	for i := 0; i < after+1; i++ {
		lim.TryAcquire()
		lim.Release(releaseOutcome(nil))
	}
	if got := lim.Limit(); got <= after {
		t.Fatalf("successes did not grow the limit: %d -> %d", after, got)
	}
	if st := sched.Stats(); st.LimiterCuts != 1 || st.LimiterLimit == 0 {
		t.Fatalf("limiter stats: %+v", st)
	}
}
