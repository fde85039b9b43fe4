package runtime

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"murmuration/internal/netem"
	"murmuration/internal/rl/env"
	"murmuration/internal/rpcx"
	"murmuration/internal/supernet"
	"murmuration/internal/tensor"
)

func TestLadderDefaultsAndDisable(t *testing.T) {
	l := NewLadder(0, 0)
	if l.MaxRung() != DefaultMaxRung {
		t.Fatalf("maxRung = %d, want default %d", l.MaxRung(), DefaultMaxRung)
	}
	// Negative maxRung pins the ladder at rung 0 no matter the pressure.
	pinned := NewLadder(-1, 1)
	pinned.ObserveMiss(0, time.Second)
	if r := pinned.Plan(time.Millisecond); r != 0 {
		t.Fatalf("disabled ladder planned rung %d, want 0", r)
	}
	if c := pinned.Counters(); c.Degradations != 0 {
		t.Fatalf("disabled ladder degraded: %+v", c)
	}
}

func TestLadderUnmeasuredStaysOptimistic(t *testing.T) {
	l := NewLadder(3, 2)
	if r := l.Plan(time.Microsecond); r != 0 {
		t.Fatalf("unmeasured ladder planned rung %d, want 0 (probe)", r)
	}
}

func TestLadderDescendsOnMissAndClimbsWithHysteresis(t *testing.T) {
	l := NewLadder(3, 2)
	// A miss at rung 0 inflates its estimate past any budget the miss was
	// observed under; extrapolation then prices the deeper rungs.
	l.ObserveMiss(0, 800*time.Millisecond) // est[0] >= 1.2s
	r := l.Plan(100 * time.Millisecond)
	if r != 3 {
		t.Fatalf("planned rung %d under 100ms budget, want 3", r)
	}
	if c := l.Counters(); c.Degradations != 1 || c.Rung != 3 {
		t.Fatalf("counters after descent: %+v", c)
	}

	// Two comfortable completions (hysteresis K=2) climb one rung and clear
	// the target's estimate so the next plan probes it.
	l.Observe(3, time.Millisecond, 500*time.Millisecond)
	l.Observe(3, time.Millisecond, 500*time.Millisecond)
	if c := l.Counters(); c.Rung != 2 || c.Promotions != 1 {
		t.Fatalf("counters after climb: %+v", c)
	}
	// The probe must survive planning: rung 2's estimate was cleared, and
	// the stale rung-0 estimate must not be extrapolated over it.
	if r := l.Plan(100 * time.Millisecond); r != 2 {
		t.Fatalf("promotion probe re-degraded to rung %d, want 2", r)
	}

	// An uncomfortable completion (over the comfort fraction) resets the
	// streak: two more comfortable ones are needed again.
	l.Observe(2, 90*time.Millisecond, 100*time.Millisecond)
	l.Observe(2, time.Millisecond, 100*time.Millisecond)
	if c := l.Counters(); c.Rung != 2 {
		t.Fatalf("climbed after a reset streak: %+v", c)
	}
	l.Observe(2, time.Millisecond, 100*time.Millisecond)
	if c := l.Counters(); c.Rung != 1 || c.Promotions != 2 {
		t.Fatalf("counters after second climb: %+v", c)
	}
}

func TestLadderMinEstimateFeedsAdmission(t *testing.T) {
	l := NewLadder(3, 2)
	if l.MinEstimate() != 0 {
		t.Fatalf("unmeasured MinEstimate = %v, want 0", l.MinEstimate())
	}
	l.ObserveMiss(0, time.Second) // est[0] >= 1.5s
	got := l.MinEstimate()
	if got <= 0 || got >= 1500*time.Millisecond {
		t.Fatalf("MinEstimate = %v, want discounted below the rung-0 estimate", got)
	}
}

// degradeFixture builds a runtime (no remotes needed for DegradeDecision)
// and a max-quality decision spread over two remote devices.
func degradeFixture(t *testing.T) (*Runtime, *env.Decision, func()) {
	t.Helper()
	a := supernet.TinyArch(4)
	net := supernet.New(a, 7)
	sched, cleanup := testCluster(t, net, 3, 0, 0)
	rt := New(sched, DeciderFunc(func(c env.Constraint) (*env.Decision, error) {
		return nil, errors.New("unused")
	}), nil, nil)

	cfg := a.MaxConfig()
	for i := range cfg.Layers {
		cfg.Layers[i].Partition = supernet.Partition{Gy: 1, Gx: 2}
	}
	costs, err := a.Costs(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := supernet.LocalPlacement(costs)
	for k := range p.Devices {
		for ti := range p.Devices[k] {
			p.Devices[k][ti] = (k+ti)%2 + 1
		}
	}
	return rt, &env.Decision{Config: cfg, Placement: p}, cleanup
}

func TestDegradeDecisionRungs(t *testing.T) {
	rt, d, cleanup := degradeFixture(t)
	defer cleanup()
	a := rt.Scheduler.Local.Arch

	origRes := d.Config.Resolution
	origQuant := d.Config.Layers[0].Quant

	d1 := rt.DegradeDecision(d, 1)
	if d1.Config.Resolution >= origRes {
		t.Fatalf("rung 1 resolution %d, want below %d", d1.Config.Resolution, origRes)
	}
	if d1.Config.Layers[0].Quant != origQuant {
		t.Fatalf("rung 1 changed quantization")
	}

	d2 := rt.DegradeDecision(d, 2)
	if d2.Config.Layers[0].Quant >= origQuant {
		t.Fatalf("rung 2 quant %d, want coarser than %d", d2.Config.Layers[0].Quant, origQuant)
	}

	d3 := rt.DegradeDecision(d, 3)
	for i, ls := range d3.Config.Layers {
		if ls.Partition != (supernet.Partition{Gy: 1, Gx: 1}) {
			t.Fatalf("rung 3 layer %d partition %v, want 1x1", i, ls.Partition)
		}
	}
	for k, row := range d3.Placement.Devices {
		if len(row) != 1 || row[0] != 0 {
			t.Fatalf("rung 3 layer %d placement %v, want [0]", k, row)
		}
	}
	if err := a.Validate(d3.Config); err != nil {
		t.Fatalf("rung 3 config invalid: %v", err)
	}

	// The shared input decision must never be mutated.
	if d.Config.Resolution != origRes || d.Config.Layers[0].Quant != origQuant {
		t.Fatal("DegradeDecision mutated its input")
	}
	if d.Placement.Devices[0][0] == 0 {
		t.Fatal("DegradeDecision mutated the input placement")
	}

	// Each rung actually executes.
	rng := rand.New(rand.NewSource(9))
	x := randInput(rng, 1, 3, 32, 32)
	for rung, dec := range []*env.Decision{d, d1, d2, d3} {
		if _, err := rt.Scheduler.Infer(x, dec); err != nil {
			t.Fatalf("rung %d inference failed: %v", rung, err)
		}
	}
}

func TestDegradeDecisionAtSpaceMinimumIsNoop(t *testing.T) {
	rt, _, cleanup := degradeFixture(t)
	defer cleanup()
	a := rt.Scheduler.Local.Arch
	cfg := a.MinConfig()
	costs, err := a.Costs(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := &env.Decision{Config: cfg, Placement: supernet.LocalPlacement(costs)}
	d3 := rt.DegradeDecision(d, 3)
	if d3.Config.Resolution != cfg.Resolution {
		t.Fatalf("rung 3 moved an already-minimal resolution to %d", d3.Config.Resolution)
	}
	if err := a.Validate(d3.Config); err != nil {
		t.Fatalf("rung 3 of minimal config invalid: %v", err)
	}
}

// TestBudgetExhaustionIsNotDeviceError proves the tentpole's error
// taxonomy: a remote tile call that runs out of deadline budget surfaces as
// rpcx.ErrBudgetExhausted, never as a DeviceError — deadline pressure must
// not demote a healthy device.
func TestBudgetExhaustionIsNotDeviceError(t *testing.T) {
	a := supernet.TinyArch(4)
	net := supernet.New(a, 11)
	// 200ms of emulated one-way delay makes every remote tile hop dwarf a
	// few-ms budget.
	sched, cleanup := testCluster(t, net, 2, 0, 200*time.Millisecond)
	defer cleanup()
	// A budget expiry poisons the connection like any timeout; let the
	// follow-up call re-dial instead of reading the desynced stream.
	sched.Remotes[0].SetRetryPolicy(rpcx.RetryPolicy{MaxAttempts: 2, BaseBackoff: 5 * time.Millisecond})
	sched.Remotes[0].MarkIdempotent(ExecBlockMethod)

	cfg := a.MinConfig()
	costs, err := a.Costs(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := supernet.LocalPlacement(costs)
	for k := range p.Devices {
		for ti := range p.Devices[k] {
			p.Devices[k][ti] = 1
		}
	}
	rng := rand.New(rand.NewSource(3))
	x := randInput(rng, 1, 3, 32, 32)
	d := &supernet.Decision{Config: cfg, Placement: p}

	_, err = sched.InferBudget(x, d, 5*time.Millisecond)
	if !errors.Is(err, rpcx.ErrBudgetExhausted) {
		t.Fatalf("got %v, want ErrBudgetExhausted", err)
	}
	var de *DeviceError
	if errors.As(err, &de) {
		t.Fatalf("budget exhaustion surfaced as DeviceError: %v", err)
	}

	// Without a budget the same decision completes.
	if _, err := sched.Infer(x, d); err != nil {
		t.Fatalf("unbudgeted inference failed: %v", err)
	}
}

// TestHedgedTileRPCWinsOverSlowPrimary runs a two-remote cluster where the
// primary's link is slowed and the alternate is fast: with a hedge policy
// installed, the hedge fires, wins, and the inference completes well under
// the primary's delay. What is hedged is a whole run — four blocks, 8-bit
// inputs between them — and the alternate's answer is bit-equal to local
// execution.
func TestHedgedTileRPCWinsOverSlowPrimary(t *testing.T) {
	a := supernet.TinyArch(4)
	net := supernet.New(a, 13)

	srv1 := rpcx.NewServer()
	NewExecutor(net).Register(srv1)
	addr1, err := srv1.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv1.Close()
	srv2 := rpcx.NewServer()
	NewExecutor(net).Register(srv2)
	addr2, err := srv2.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()

	slow, err := rpcx.Dial(addr1, netem.NewShaper(0, 400*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	fast, err := rpcx.Dial(addr2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fast.Close()

	sched := NewScheduler(net, []*rpcx.Client{slow, fast})
	sched.Hedge = &HedgePolicy{After: 20 * time.Millisecond, BudgetFrac: 1}
	sched.PickAlternate = func(primary int) int {
		if primary == 1 {
			return 2
		}
		return 1
	}

	cfg := a.MaxConfig()
	for i := range cfg.Layers {
		cfg.Layers[i].Quant = tensor.Bits8
	}
	// Every tile targets the slow primary.
	d := allOn(t, a, cfg, func(int) int { return 1 })
	rng := rand.New(rand.NewSource(5))
	x := randInput(rng, 1, 3, 32, 32)

	start := time.Now()
	rep, err := sched.Infer(x, d)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RemoteTiles != cfg.NumLayers() {
		t.Fatalf("%d remote block executions, want %d", rep.RemoteTiles, cfg.NumLayers())
	}
	if elapsed := time.Since(start); elapsed > 300*time.Millisecond {
		t.Fatalf("hedged inference took %v, want well under the 400ms primary delay", elapsed)
	}
	requireSameBits(t, "hedged run", rep.Logits, layerwise(t, net, x, cfg))
	st := sched.Stats()
	if st.RemoteCalls != 1 {
		t.Fatalf("stats %+v: the 1x1 net is one run, want one primary call", st)
	}
	if st.Hedges == 0 || st.HedgeWins == 0 {
		t.Fatalf("stats %+v, want hedges and hedge wins", st)
	}
	if st.Hedges > st.RemoteCalls {
		t.Fatalf("stats %+v: hedges exceed primary calls at BudgetFrac=1", st)
	}
}

// TestHedgeBudgetCapsSecondAttempts pins BudgetFrac low and checks the
// token gate refuses hedges beyond the budget.
func TestHedgeBudgetCapsSecondAttempts(t *testing.T) {
	s := &Scheduler{}
	s.remoteCalls.Store(100)
	frac := 0.1
	granted := 0
	for i := 0; i < 50; i++ {
		if s.tryHedgeToken(frac) {
			granted++
		}
	}
	if granted != 10 {
		t.Fatalf("granted %d hedge tokens for 100 primaries at frac 0.1, want 10", granted)
	}
}
