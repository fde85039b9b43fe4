package adapt

import (
	"os"
	"sync"
	"testing"
	"time"

	"murmuration/internal/device"
	"murmuration/internal/nas"
	"murmuration/internal/rl/env"
	"murmuration/internal/rl/policy"
	"murmuration/internal/runtime"
	"murmuration/internal/serve"
	"murmuration/internal/supernet"
	"murmuration/internal/tensor"
)

// tinySetup builds the small policy/space pair the rollout tests train and
// stage candidates from.
func tinySetup(seed int64) (*supernet.Arch, *policy.Policy, env.ConstraintSpace) {
	a := supernet.TinyArch(4)
	e := env.New(a, nas.NewCalibratedPredictor(a), []device.Kind{device.RaspberryPi4, device.GPUDesktop})
	p := policy.New(e, 16, seed)
	space := env.ConstraintSpace{
		Type: env.LatencySLO, SLOMin: 5, SLOMax: 5000,
		BwMinMbps: 50, BwMaxMbps: 500, DelayMin: 1, DelayMax: 20,
		Points: 10, Remotes: 1,
	}
	return a, p, space
}

// newAdaptRuntime builds a local-only runtime (the controller only needs it
// for ConstraintFor and cache invalidation in these tests).
func newAdaptRuntime(a *supernet.Arch, seed int64, d runtime.Decider) *runtime.Runtime {
	net := supernet.New(a, seed)
	sched := runtime.NewScheduler(net, nil)
	return runtime.New(sched, d, runtime.NewStrategyCache(32, 25, 5, 10), nil)
}

func localMinDecider(a *supernet.Arch) runtime.DeciderFunc {
	return func(c env.Constraint) (*env.Decision, error) {
		cfg := a.MinConfig()
		costs, _ := a.Costs(cfg)
		return &env.Decision{Config: cfg, Placement: supernet.LocalPlacement(costs)}, nil
	}
}

// servedEvent fabricates one tapped served outcome under a 1-remote
// constraint with the given SLO budget and attainment verdict.
func servedEvent(sloMs float64, met bool) serve.OutcomeEvent {
	return serve.OutcomeEvent{
		Kind:  serve.KindServed,
		Class: serve.ClassLatency,
		SLO:   runtime.SLO{Type: env.LatencySLO, Value: sloMs},
		Constraint: env.Constraint{
			Type: env.LatencySLO, LatencyMs: sloMs,
			BandwidthMbps: []float64{100}, DelayMs: []float64{5},
		},
		LatencyMs: 10,
		SLOMet:    met,
	}
}

func repeatEvents(ev serve.OutcomeEvent, n int) []serve.OutcomeEvent {
	out := make([]serve.OutcomeEvent, n)
	for i := range out {
		out[i] = ev
	}
	return out
}

// TestShadowWinAdvancesToCanary pins the shadow gate's success path: a
// candidate that wins its shadow evaluation moves to canary on the same Tick
// that completes MinShadow comparisons, without ForceCanary.
func TestShadowWinAdvancesToCanary(t *testing.T) {
	a, p, space := tinySetup(1)
	rt := newAdaptRuntime(a, 1, localMinDecider(a))
	ctl, err := New(Config{
		Runtime: rt, Policy: p, Space: space,
		MinShadow: 4, TrainRounds: 1, Log: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Candidate identical to the incumbent: every shadow comparison is a tie,
	// and ties count as wins.
	ctl.ForceCandidate(policyDecider{p: p.Clone()})

	ctl.Tick(repeatEvents(servedEvent(5000, true), 6))
	if ctl.shadowScored.Load() == 0 {
		t.Fatal("no shadow comparisons were scored")
	}
	if m := ctl.Mode(); m != ModeCanary {
		t.Fatalf("mode after a won shadow = %v, want canary", m)
	}
}

// TestShadowLossRestagesCandidate pins the shadow gate's failure path: a
// candidate that cannot meet the live SLOs is discarded without ever serving
// a request, and a fresh snapshot of the retrained working policy is staged
// under a new version.
func TestShadowLossRestagesCandidate(t *testing.T) {
	a, p, space := tinySetup(2)
	rt := newAdaptRuntime(a, 2, localMinDecider(a))
	ctl, err := New(Config{
		Runtime: rt, Policy: p, Space: space,
		MinShadow: 4, TrainRounds: 1, Log: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	v1 := ctl.ForceCandidate(policyDecider{p: p.Clone()})

	// An SLO no decision can meet: the candidate cannot win a single
	// comparison, so the gate must discard it.
	ctl.Tick(repeatEvents(servedEvent(1e-6, true), 6))
	rs := ctl.routing.Load()
	if rs.mode != ModeShadow {
		t.Fatalf("mode after shadow loss = %v, want shadow (restaged)", rs.mode)
	}
	if rs.candidateVer <= v1 {
		t.Fatalf("candidate version %d after restage, want > %d", rs.candidateVer, v1)
	}
}

// TestCanaryRollbackAndCircuitBreaker drives the canary guardrail twice: the
// first attainment collapse rolls back to last-good after RollbackWindows
// consecutive bad windows (hysteresis — one bad window is not enough), and
// the second consecutive rollback trips the circuit breaker, pinning the
// frozen policy.
func TestCanaryRollbackAndCircuitBreaker(t *testing.T) {
	a, p, space := tinySetup(3)
	rt := newAdaptRuntime(a, 3, localMinDecider(a))
	ctl, err := New(Config{
		Runtime: rt, Policy: p, Space: space,
		MinShadow: 4, MinCanary: 4, RollbackWindows: 2, MaxRollbacks: 2,
		TrainRounds: 1, Log: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	bad := repeatEvents(servedEvent(5000, false), 5)

	ctl.ForceCandidate(policyDecider{p: p.Clone()})
	ctl.ForceCanary()
	ctl.Tick(bad)
	if m := ctl.Mode(); m != ModeCanary {
		t.Fatalf("one bad window already rolled back (mode %v); hysteresis requires two", m)
	}
	ctl.Tick(bad)
	if m := ctl.Mode(); m != ModeIncumbent {
		t.Fatalf("mode after %d bad windows = %v, want incumbent", 2, m)
	}
	if got := ctl.AdaptStats().Rollbacks; got != 1 {
		t.Fatalf("rollbacks = %d, want 1", got)
	}
	if ctl.Pinned() {
		t.Fatal("pinned after a single rollback; breaker threshold is 2")
	}

	ctl.ForceCandidate(policyDecider{p: p.Clone()})
	ctl.ForceCanary()
	ctl.Tick(bad)
	ctl.Tick(bad)
	if got := ctl.AdaptStats().Rollbacks; got != 2 {
		t.Fatalf("rollbacks = %d, want 2", got)
	}
	if !ctl.Pinned() {
		t.Fatal("two consecutive rollbacks must pin the policy")
	}

	// Pinned: healthy windows stage nothing; promotion hooks are inert.
	ctl.Tick(repeatEvents(servedEvent(5000, true), 6))
	if m := ctl.Mode(); m != ModeIncumbent {
		t.Fatalf("pinned controller staged a candidate (mode %v)", m)
	}
	ctl.ForcePromote()
	if got := ctl.AdaptStats().Promotions; got != 0 {
		t.Fatalf("pinned controller promoted (promotions %d)", got)
	}
}

// shedEvent fabricates one tapped admission refusal for an SLO-carrying
// request (no constraint: sheds never resolve one).
func shedEvent(sloMs float64) serve.OutcomeEvent {
	return serve.OutcomeEvent{
		Kind:  serve.KindShed,
		Class: serve.ClassLatency,
		SLO:   runtime.SLO{Type: env.LatencySLO, Value: sloMs},
	}
}

// TestCanaryShedStarvationRollsBack pins the starvation guardrail: a canary
// whose windows carry only sheds — SLO traffic refused wholesale, nothing
// served — must accumulate bad windows and roll back. Without the starvation
// clause a bad candidate that poisons the batch-cost estimate sheds the whole
// class, the attainment clause reads every window as clean, and the canary
// wedges forever.
func TestCanaryShedStarvationRollsBack(t *testing.T) {
	a, p, space := tinySetup(6)
	rt := newAdaptRuntime(a, 6, localMinDecider(a))
	ctl, err := New(Config{
		Runtime: rt, Policy: p, Space: space,
		MinShadow: 4, MinCanary: 1 << 30, RollbackWindows: 2,
		TrainRounds: 1, Log: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctl.ForceCandidate(policyDecider{p: p.Clone()})
	ctl.ForceCanary()

	sheds := repeatEvents(shedEvent(100), 5)
	ctl.Tick(sheds)
	if m := ctl.Mode(); m != ModeCanary {
		t.Fatalf("one starved window already rolled back (mode %v); hysteresis requires two", m)
	}
	ctl.Tick(sheds)
	if m := ctl.Mode(); m != ModeIncumbent {
		t.Fatalf("mode after two shed-starved windows = %v, want incumbent (rollback)", m)
	}
	if got := ctl.AdaptStats().Rollbacks; got != 1 {
		t.Fatalf("rollbacks = %d, want 1", got)
	}
}

// TestPromotePersistsAndResumes pins crash safety: a promotion writes the
// versioned checkpoint, the current checkpoint, and the manifest durably,
// and a fresh controller over the same directory resumes serving the
// promoted version — not the frozen config it was constructed with.
func TestPromotePersistsAndResumes(t *testing.T) {
	a, p, space := tinySetup(4)
	rt := newAdaptRuntime(a, 4, localMinDecider(a))
	dir := t.TempDir()
	cfg := Config{
		Runtime: rt, Policy: p, Space: space, Dir: dir,
		MinShadow: 4, RollbackWindows: 2, TrainRounds: 1, Log: t.Logf,
	}
	ctl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctl.ForceCandidate(policyDecider{p: p.Clone()})
	ctl.ForcePromote()

	for _, f := range []string{ctl.versionCkptPath(1), ctl.currentCkptPath(), ctl.manifestPath()} {
		if _, err := os.Stat(f); err != nil {
			t.Fatalf("promotion artifact missing: %v", err)
		}
	}
	if s := ctl.AdaptStats(); s.PolicyVersion != 1 || s.Promotions != 1 {
		t.Fatalf("after promote: %+v, want version 1 / promotions 1", s)
	}

	// Two clean windows settle the probation: v1 becomes last-good.
	ctl.Tick(repeatEvents(servedEvent(5000, true), 5))
	ctl.Tick(repeatEvents(servedEvent(5000, true), 5))
	m, err := LoadManifest(ctl.manifestPath())
	if err != nil {
		t.Fatal(err)
	}
	if m.Current != 1 || m.LastGood != 1 {
		t.Fatalf("settled manifest %+v, want current=1 lastGood=1", m)
	}

	ctl2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s := ctl2.AdaptStats(); s.PolicyVersion != 1 || s.Promotions != 1 {
		t.Fatalf("resumed controller: %+v, want version 1 / promotions 1", s)
	}
}

// TestCanaryRollbackKeepsLedger is the in-flight rollback edge: with every
// decision canary-routed, a rollback fired while batches are mid-flight must
// not double-count (or lose) a single request in the gateway's ledger.
func TestCanaryRollbackKeepsLedger(t *testing.T) {
	a := supernet.TinyArch(4)
	base := localMinDecider(a)
	rt := newAdaptRuntime(a, 5, base)
	ctl, err := New(Config{Runtime: rt, Incumbent: base, CanaryFrac: 1.0, Log: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	rt.SwapDecider(ctl)
	gw := serve.New(rt, serve.Options{Workers: 2, MaxBatch: 4, MaxLinger: time.Millisecond})
	defer gw.Close(2 * time.Second)
	ctl.AttachGateway(gw)

	// A distinguishable candidate: max config instead of min.
	cand := runtime.DeciderFunc(func(c env.Constraint) (*env.Decision, error) {
		cfg := a.MaxConfig()
		costs, _ := a.Costs(cfg)
		return &env.Decision{Config: cfg, Placement: supernet.LocalPlacement(costs)}, nil
	})
	ctl.ForceCandidate(cand)
	ctl.ForceCanary()

	x := tensor.New(1, 3, 32, 32)
	slo := runtime.SLO{Type: env.LatencySLO, Value: 10000}
	var wg sync.WaitGroup
	submit := func(n int) {
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				gw.Submit(x, slo)
			}()
		}
	}
	submit(20)
	// Roll back only once canary decisions are demonstrably in flight/served,
	// while the first wave is still being drained.
	deadline := time.Now().Add(5 * time.Second)
	for gw.Stats().CanaryServed == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no canary request served before rollback")
		}
		time.Sleep(time.Millisecond)
	}
	ctl.ForceRollback("test: mid-flight rollback")
	submit(20)
	wg.Wait()

	st := gw.Stats()
	if st.Admitted != st.Served+st.Dropped+st.Failed {
		t.Fatalf("ledger broken across rollback: admitted %d != served %d + dropped %d + failed %d",
			st.Admitted, st.Served, st.Dropped, st.Failed)
	}
	var met, missed uint64
	for c := 0; c < serve.NumClasses; c++ {
		met += st.ClassMet[c]
		missed += st.ClassMissed[c]
	}
	if met+missed != st.Admitted {
		t.Fatalf("class ledger broken: met %d + missed %d != admitted %d", met, missed, st.Admitted)
	}
	if st.Rollbacks != 1 {
		t.Fatalf("stats rollbacks = %d, want 1", st.Rollbacks)
	}
	if st.CanaryServed == 0 {
		t.Fatal("no canary-served requests before the rollback")
	}
	if st.CanaryServed > st.Served {
		t.Fatalf("canary served %d exceeds served %d", st.CanaryServed, st.Served)
	}
}
