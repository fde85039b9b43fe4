package scenario

import (
	"testing"
	"time"

	"murmuration/internal/cluster"
	"murmuration/internal/netem"
	"murmuration/internal/rl/env"
	"murmuration/internal/testutil"
)

func TestOrchestratorDispatch(t *testing.T) {
	testutil.CheckGoroutines(t)
	sh := netem.NewShaper(0, 0)
	o := NewOrchestrator([]Target{{Shaper: sh}})

	if err := o.Apply(Event{Kind: EvSetDelay, Device: 0, Value: 40}); err != nil {
		t.Fatal(err)
	}
	if got := sh.Delay(); got != 40*time.Millisecond {
		t.Fatalf("delay = %v, want 40ms", got)
	}
	if err := o.Apply(Event{Kind: EvBlackhole, Device: 0, Value: 1e7}); err != nil {
		t.Fatal(err)
	}
	if !sh.OutageActive() {
		t.Fatal("blackhole not active")
	}
	if err := o.Apply(Event{Kind: EvBlackhole, Device: 0, Value: 0}); err != nil {
		t.Fatal(err)
	}
	if sh.OutageActive() {
		t.Fatal("blackhole not cleared")
	}
	if err := o.Apply(Event{Kind: EvSetLoss, Device: 0, Value: 0.5, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if err := o.Apply(Event{Kind: EvSetCorrupt, Device: 0, Value: 0.5, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	if err := o.Apply(Event{Kind: EvSetRate, Device: 0, Value: 10}); err != nil {
		t.Fatal(err)
	}
	if got := o.Applied(); got != 6 {
		t.Fatalf("applied = %d, want 6", got)
	}
}

func TestOrchestratorLeaveJoin(t *testing.T) {
	testutil.CheckGoroutines(t)
	var left, joined int
	o := NewOrchestrator([]Target{{
		Leave: func() { left++ },
		Join:  func() { joined++ },
	}})
	if err := o.Apply(Event{Kind: EvDeviceLeave, Device: 0}); err != nil {
		t.Fatal(err)
	}
	if err := o.Apply(Event{Kind: EvDeviceJoin, Device: 0}); err != nil {
		t.Fatal(err)
	}
	if left != 1 || joined != 1 {
		t.Fatalf("left=%d joined=%d, want 1/1", left, joined)
	}

	// Without hooks, leave/join fall back to a blackhole window on the shaper.
	sh := netem.NewShaper(0, 0)
	o2 := NewOrchestrator([]Target{{Shaper: sh}})
	if err := o2.Apply(Event{Kind: EvDeviceLeave, Device: 0}); err != nil {
		t.Fatal(err)
	}
	if !sh.OutageActive() {
		t.Fatal("leave without hook should blackhole the shaper")
	}
	if err := o2.Apply(Event{Kind: EvDeviceJoin, Device: 0}); err != nil {
		t.Fatal(err)
	}
	if sh.OutageActive() {
		t.Fatal("join without hook should clear the blackhole")
	}
}

func TestOrchestratorRestartAsym(t *testing.T) {
	testutil.CheckGoroutines(t)
	var restarts int
	var gotMin int
	var gotDur time.Duration
	o := NewOrchestrator([]Target{{
		Restart: func() { restarts++ },
		Asym:    func(minBytes int, d time.Duration) { gotMin, gotDur = minBytes, d },
	}})
	if err := o.Apply(Event{Kind: EvRestart, Device: 0}); err != nil {
		t.Fatal(err)
	}
	if restarts != 1 {
		t.Fatalf("restarts = %d, want 1", restarts)
	}
	if err := o.Apply(Event{Kind: EvAsymDegrade, Device: 0, Value: 150, Seed: 8192}); err != nil {
		t.Fatal(err)
	}
	if gotMin != 8192 || gotDur != 150*time.Millisecond {
		t.Fatalf("asym hook got (%d, %v), want (8192, 150ms)", gotMin, gotDur)
	}
	// Seed <= 0 selects the default stall threshold.
	if err := o.Apply(Event{Kind: EvAsymDegrade, Device: 0, Value: 10}); err != nil {
		t.Fatal(err)
	}
	if gotMin != DefaultAsymMinBytes {
		t.Fatalf("default threshold = %d, want %d", gotMin, DefaultAsymMinBytes)
	}

	// Without a hook, asym-degrade opens the shaper's Downstream stall window.
	sh := netem.NewShaper(0, 0)
	o2 := NewOrchestrator([]Target{{Shaper: sh}})
	if err := o2.Apply(Event{Kind: EvAsymDegrade, Device: 0, Value: 1e7}); err != nil {
		t.Fatal(err)
	}
	if !sh.StallActive(netem.Downstream) {
		t.Fatal("asym-degrade without hook should open the downstream stall")
	}
	if sh.StallActive(netem.Upstream) {
		t.Fatal("asym-degrade must be one-directional")
	}
	if err := o2.Apply(Event{Kind: EvAsymDegrade, Device: 0, Value: 0}); err != nil {
		t.Fatal(err)
	}
	if sh.StallActive(netem.Downstream) {
		t.Fatal("asym-degrade with Value <= 0 should clear the stall")
	}
	// A restart is a process identity change; a shaper cannot emulate it.
	if err := o2.Apply(Event{Kind: EvRestart, Device: 0}); err == nil {
		t.Fatal("want error for restart event without a restart hook")
	}
}

// TestOrchestratorMassEvents covers the correlated-failure kinds: a mass
// kill removes ceil(frac*N) devices and delivers their Down transitions as
// one batch, a mass recover revives exactly that set with one batched Up,
// and a restart storm restarts ceil(frac*N) devices.
func TestOrchestratorMassEvents(t *testing.T) {
	testutil.CheckGoroutines(t)
	const n = 5
	var left, joined, restarted [n]int
	targets := make([]Target, n)
	for i := range targets {
		i := i
		targets[i] = Target{
			Leave:   func() { left[i]++ },
			Join:    func() { joined[i]++ },
			Restart: func() { restarted[i]++ },
		}
	}
	o := NewOrchestrator(targets)

	probes := make([]cluster.ProbeFunc, n)
	for i := range probes {
		probes[i] = func(timeout time.Duration) (time.Duration, uint64, error) {
			return time.Millisecond, 0, nil
		}
	}
	m := cluster.NewManager(probes, cluster.Options{})
	defer m.Close()
	batches := m.Subscribe()
	o.AttachCluster(m)

	// 0.5 of 5 devices → ceil = 3 victims, lowest indices first.
	if err := o.Apply(Event{Kind: EvMassKill, Value: 0.5}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		want := 0
		if i < 3 {
			want = 1
		}
		if left[i] != want {
			t.Fatalf("device %d left %d times, want %d", i, left[i], want)
		}
		wantState := cluster.Up
		if i < 3 {
			wantState = cluster.Down
		}
		if st := m.StateOf(i); st != wantState {
			t.Fatalf("device %d state %v, want %v", i, st, wantState)
		}
	}
	if batch := <-batches; len(batch) != 3 {
		t.Fatalf("down batch carried %d events, want 3", len(batch))
	}

	// Recovery revives exactly the killed set, again as one batch.
	if err := o.Apply(Event{Kind: EvMassRecover}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		want := 0
		if i < 3 {
			want = 1
		}
		if joined[i] != want {
			t.Fatalf("device %d joined %d times, want %d", i, joined[i], want)
		}
		if st := m.StateOf(i); st != cluster.Up {
			t.Fatalf("device %d state %v after recovery, want Up", i, st)
		}
	}
	if batch := <-batches; len(batch) != 3 {
		t.Fatalf("up batch carried %d events, want 3", len(batch))
	}

	// A second recover with nothing killed is a no-op, not an error.
	if err := o.Apply(Event{Kind: EvMassRecover}); err != nil {
		t.Fatal(err)
	}

	// Full-fleet restart storm.
	if err := o.Apply(Event{Kind: EvRestartStorm, Value: 1}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if restarted[i] != 1 {
			t.Fatalf("device %d restarted %d times, want 1", i, restarted[i])
		}
	}
	if got := o.Applied(); got != 4 {
		t.Fatalf("applied = %d, want 4", got)
	}
}

// TestOrchestratorMassErrors: a mass event whose victims lack hooks must
// fail before touching any device.
func TestOrchestratorMassErrors(t *testing.T) {
	testutil.CheckGoroutines(t)
	var left int
	o := NewOrchestrator([]Target{
		{Leave: func() { left++ }},
		{}, // no hooks at all
	})
	if err := o.Apply(Event{Kind: EvMassKill, Value: 1}); err == nil {
		t.Fatal("want error when a victim has no leave hook or shaper")
	}
	if left != 0 {
		t.Fatalf("validation failure still killed %d devices; mass apply must be all-or-nothing", left)
	}
	if err := o.Apply(Event{Kind: EvRestartStorm, Value: 0.5}); err == nil {
		t.Fatal("want error when a storm target has no restart hook")
	}
}

func TestOrchestratorErrors(t *testing.T) {
	testutil.CheckGoroutines(t)
	o := NewOrchestrator([]Target{{}})
	if err := o.Apply(Event{Kind: EvRequest, SLOType: env.LatencySLO, Resolution: 32}); err != ErrNotEnvironment {
		t.Fatalf("want ErrNotEnvironment, got %v", err)
	}
	if err := o.Apply(Event{Kind: EvSetDelay, Device: 5}); err == nil {
		t.Fatal("want error for out-of-range device")
	}
	if err := o.Apply(Event{Kind: EvSetDelay, Device: 0}); err == nil {
		t.Fatal("want error when no shaper is bound")
	}
	if err := o.Apply(Event{Kind: EvDeviceLeave, Device: 0}); err == nil {
		t.Fatal("want error when no leave hook or shaper is bound")
	}
}

func TestPlayerAdvance(t *testing.T) {
	testutil.CheckGoroutines(t)
	sh := netem.NewShaper(0, 0)
	o := NewOrchestrator([]Target{{Shaper: sh}})
	var order []Kind
	o.OnApply = func(ev Event) { order = append(order, ev.Kind) }

	tr := &Trace{
		Name: "player",
		Events: []Event{
			{At: 0, Kind: EvRequest, SLOType: env.LatencySLO, SLOValue: 100, Resolution: 32},
			{At: 10 * time.Millisecond, Kind: EvSetDelay, Device: 0, Value: 50},
			{At: 20 * time.Millisecond, Kind: EvRequest, SLOType: env.LatencySLO, SLOValue: 100, Resolution: 32},
			{At: 30 * time.Millisecond, Kind: EvDeviceLeave, Device: 0},
			{At: 60 * time.Millisecond, Kind: EvDeviceJoin, Device: 0},
			{At: 90 * time.Millisecond, Kind: EvSetDelay, Device: 0, Value: 0},
		},
	}
	p := NewPlayer(o, tr)
	if got := p.Remaining(); got != 4 {
		t.Fatalf("remaining = %d, want 4 (requests excluded)", got)
	}

	n, err := p.Advance(30 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("applied %d events by t=30ms, want 2", n)
	}
	if !sh.OutageActive() {
		t.Fatal("leave at t=30ms should have blackholed the shaper")
	}

	// Advancing to the same point again is a no-op.
	if n, _ := p.Advance(30 * time.Millisecond); n != 0 {
		t.Fatalf("re-advance applied %d events, want 0", n)
	}

	n, err = p.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || p.Remaining() != 0 {
		t.Fatalf("finish applied %d, remaining %d; want 2, 0", n, p.Remaining())
	}
	if sh.OutageActive() {
		t.Fatal("join should have cleared the blackhole")
	}

	want := []Kind{EvSetDelay, EvDeviceLeave, EvDeviceJoin, EvSetDelay}
	if len(order) != len(want) {
		t.Fatalf("applied order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("applied order %v, want %v", order, want)
		}
	}
}
