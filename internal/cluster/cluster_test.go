package cluster

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"murmuration/internal/monitor"
	"murmuration/internal/rpcx"
	"murmuration/internal/testutil"
)

// scriptedProbe is a ProbeFunc whose outcome tests flip at will.
type scriptedProbe struct {
	fail atomic.Bool
	rtt  time.Duration
	inc  atomic.Uint64
}

func (p *scriptedProbe) fn(timeout time.Duration) (time.Duration, uint64, error) {
	if p.fail.Load() {
		return 0, 0, errors.New("probe: scripted failure")
	}
	return p.rtt, p.inc.Load(), nil
}

// waitState polls until member i reaches want or the deadline passes.
func waitState(t *testing.T, m *Manager, i int, want State) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if m.StateOf(i) == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("member %d never reached %v (now %v)", i, want, m.StateOf(i))
}

// fastOpts makes the detector converge in tens of milliseconds for tests.
func fastOpts() Options {
	return Options{
		HeartbeatInterval: 5 * time.Millisecond,
		SuspectAfter:      25 * time.Millisecond,
		DownAfter:         60 * time.Millisecond,
		ProbeTimeout:      50 * time.Millisecond,
	}
}

// TestStateMachineFullCycle drives Up → Suspect → Down → Up through probe
// outcomes and checks the published events and counters.
func TestStateMachineFullCycle(t *testing.T) {
	p := &scriptedProbe{rtt: time.Millisecond}
	m := NewManager([]ProbeFunc{p.fn}, fastOpts())
	events := m.Subscribe()
	m.Start()
	defer m.Close()

	if m.StateOf(0) != Up {
		t.Fatalf("members must start Up, got %v", m.StateOf(0))
	}
	// Let a few successes land so the EMA timeout has samples.
	time.Sleep(30 * time.Millisecond)

	p.fail.Store(true)
	waitState(t, m, 0, Suspect)
	waitState(t, m, 0, Down)

	p.fail.Store(false)
	waitState(t, m, 0, Up)

	c := m.CountersSnapshot()
	if c.Downs != 1 || c.Recoveries != 1 {
		t.Fatalf("counters after one churn cycle: %+v", c)
	}
	if c.Transitions < 3 {
		t.Fatalf("expected >=3 transitions, got %d", c.Transitions)
	}

	// The event stream saw the full cycle in order.
	var seq []State
	timeout := time.After(2 * time.Second)
	for len(seq) < 3 {
		select {
		case batch := <-events:
			for _, ev := range batch {
				seq = append(seq, ev.To)
			}
		case <-timeout:
			t.Fatalf("event stream incomplete: %v", seq)
		}
	}
	if seq[0] != Suspect || seq[1] != Down || seq[2] != Up {
		t.Fatalf("transition order %v, want [suspect down up]", seq)
	}
}

// TestSuspectRecoversWithoutDown: a brief glitch (one failed probe window)
// must not reach Down.
func TestSuspectRecoversWithoutDown(t *testing.T) {
	p := &scriptedProbe{rtt: time.Millisecond}
	opts := fastOpts()
	opts.DownAfter = 10 * time.Second // effectively unreachable here
	m := NewManager([]ProbeFunc{p.fn}, opts)
	m.Start()
	defer m.Close()
	time.Sleep(20 * time.Millisecond)

	p.fail.Store(true)
	waitState(t, m, 0, Suspect)
	p.fail.Store(false)
	waitState(t, m, 0, Up)

	c := m.CountersSnapshot()
	if c.Downs != 0 {
		t.Fatalf("brief glitch reached Down: %+v", c)
	}
}

// TestReportFailureAcceleratesDetection: a data-path failure report demotes
// a member to Suspect immediately, without waiting for the prober.
func TestReportFailureAcceleratesDetection(t *testing.T) {
	p := &scriptedProbe{rtt: time.Millisecond}
	opts := fastOpts()
	opts.HeartbeatInterval = time.Hour // prober effectively off
	opts.SuspectAfter = time.Hour
	opts.DownAfter = 2 * time.Hour
	m := NewManager([]ProbeFunc{p.fn}, opts)
	m.Start()
	defer m.Close()

	m.ReportFailure(0)
	if got := m.StateOf(0); got != Suspect {
		t.Fatalf("data-path failure should suspect immediately, got %v", got)
	}
	m.ReportSuccess(0, time.Millisecond)
	if got := m.StateOf(0); got != Up {
		t.Fatalf("success should clear suspicion, got %v", got)
	}
	m.MarkDown(0)
	if got := m.StateOf(0); got != Down {
		t.Fatalf("MarkDown ignored, got %v", got)
	}
}

// TestCountsAndSnapshot covers the aggregate views.
func TestCountsAndSnapshot(t *testing.T) {
	a := &scriptedProbe{rtt: time.Millisecond}
	b := &scriptedProbe{rtt: time.Millisecond}
	opts := fastOpts()
	opts.HeartbeatInterval = time.Hour
	m := NewManager([]ProbeFunc{a.fn, b.fn}, opts)
	m.Start()
	defer m.Close()

	m.MarkDown(1)
	up, suspect, down := m.Counts()
	if up != 1 || suspect != 0 || down != 1 {
		t.Fatalf("counts %d/%d/%d, want 1/0/1", up, suspect, down)
	}
	snap := m.Snapshot()
	if len(snap) != 2 || snap[0] != Up || snap[1] != Down {
		t.Fatalf("snapshot %v", snap)
	}
	if m.String() != "up:1 suspect:0 down:1" {
		t.Fatalf("String() = %q", m.String())
	}
	if m.StateOf(99) != Down {
		t.Fatal("out-of-range member must read as Down")
	}
}

// TestPingProbeAgainstRealDaemon runs the heartbeat against a live rpcx
// server, kills it, waits for Down, restarts it on the same address, and
// waits for reintegration — the detector's end-to-end contract.
func TestPingProbeAgainstRealDaemon(t *testing.T) {
	testutil.CheckGoroutines(t)
	srv := rpcx.NewServer()
	monitor.RegisterHandlers(srv)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	hb, err := rpcx.Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer hb.Close()
	// Re-dial so the prober can reconnect once the daemon returns.
	hb.SetRetryPolicy(rpcx.RetryPolicy{MaxAttempts: 1})

	opts := fastOpts()
	opts.HeartbeatInterval = 10 * time.Millisecond
	opts.SuspectAfter = 50 * time.Millisecond
	opts.DownAfter = 120 * time.Millisecond
	m := NewManager([]ProbeFunc{PingProbe(hb)}, opts)
	events := m.Subscribe()
	m.Start()
	defer m.Close()

	time.Sleep(40 * time.Millisecond) // healthy heartbeats flow
	if m.StateOf(0) != Up {
		t.Fatalf("live daemon not Up: %v", m.StateOf(0))
	}

	srv.Close()
	waitState(t, m, 0, Down)

	srv2 := rpcx.NewServer()
	monitor.RegisterHandlers(srv2)
	if _, err := srv2.Listen(addr); err != nil {
		t.Fatalf("re-listen %s: %v", addr, err)
	}
	defer srv2.Close()
	waitState(t, m, 0, Up)

	if c := m.CountersSnapshot(); c.Downs < 1 || c.Recoveries < 1 {
		t.Fatalf("churn counters: %+v", c)
	}
	// Drain events: at least one Down and one Up must have been published.
	sawDown, sawUp := false, false
	for {
		select {
		case batch := <-events:
			for _, ev := range batch {
				if ev.To == Down {
					sawDown = true
				}
				if ev.To == Up && ev.From != Up {
					sawUp = true
				}
			}
		default:
			if !sawDown || !sawUp {
				t.Fatalf("event stream missed transitions: down=%v up=%v", sawDown, sawUp)
			}
			return
		}
	}
}

// TestIncarnationChangePublishesRestart: a changed incarnation on an
// otherwise-healthy member (no heartbeat ever missed) must surface as a
// Restart event with the new incarnation, and bump the Restarts counter.
func TestIncarnationChangePublishesRestart(t *testing.T) {
	p := &scriptedProbe{rtt: time.Millisecond}
	first := uint64(1)<<48 | 5
	p.inc.Store(first)
	m := NewManager([]ProbeFunc{p.fn}, fastOpts())
	events := m.Subscribe()
	m.Start()
	defer m.Close()

	deadline := time.Now().Add(5 * time.Second)
	for m.IncarnationOf(0) != first {
		if time.Now().After(deadline) {
			t.Fatal("incarnation never learned")
		}
		time.Sleep(2 * time.Millisecond)
	}

	second := uint64(2)<<48 | 9
	p.inc.Store(second) // silent restart: probes keep succeeding

	timeout := time.After(5 * time.Second)
	for {
		select {
		case batch := <-events:
			for _, ev := range batch {
				if !ev.Restart {
					continue // ignore plain liveness transitions
				}
				if ev.Member != 0 || ev.To != Up || ev.Incarnation != second {
					t.Fatalf("bad restart event: %+v", ev)
				}
				if c := m.CountersSnapshot(); c.Restarts == 0 {
					t.Fatal("Restarts counter not bumped")
				}
				if m.StateOf(0) != Up {
					t.Fatalf("member should stay Up, got %v", m.StateOf(0))
				}
				if m.IncarnationOf(0) != second {
					t.Fatalf("IncarnationOf = %#x, want %#x", m.IncarnationOf(0), second)
				}
				return
			}
		case <-timeout:
			t.Fatal("no restart event published")
		}
	}
}

// TestNodeInfo: the daemon-side node counts heartbeats and serves uptime.
func TestNodeInfo(t *testing.T) {
	srv := rpcx.NewServer()
	monitor.RegisterHandlers(srv)
	node := NewNode()
	node.Register(srv) // counting ping replaces the plain echo
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

	probe := PingProbe(cl)
	// First probe is the hello handshake (not a ping); the node's heartbeat
	// counter only sees the three pings that follow.
	for i := 0; i < 4; i++ {
		if _, _, err := probe(time.Second); err != nil {
			t.Fatal(err)
		}
	}
	info, err := FetchInfo(cl, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if info.Heartbeats != 3 {
		t.Fatalf("heartbeats %d, want 3", info.Heartbeats)
	}
	if info.Uptime <= 0 {
		t.Fatalf("uptime %v", info.Uptime)
	}
	if node.Heartbeats() != 3 {
		t.Fatalf("node counter %d", node.Heartbeats())
	}
}

// TestSubscribeAfterCloseAndDoubleClose: lifecycle edges must not panic.
func TestLifecycleEdges(t *testing.T) {
	testutil.CheckGoroutines(t)
	p := &scriptedProbe{rtt: time.Millisecond}
	m := NewManager([]ProbeFunc{p.fn}, fastOpts())
	m.Start()
	m.Start() // idempotent
	ch := m.Subscribe()
	m.Close()
	m.Close() // idempotent
	if _, ok := <-ch; ok {
		t.Fatal("subscriber channel should be closed after Close")
	}
	// Reports after close are harmless no-ops on live state.
	m.ReportFailure(0)
	m.ReportSuccess(0, time.Millisecond)
}

// TestAdaptiveTimeoutResistsOutlierPoisoning feeds the detector an
// adversarial RTT sequence: a steady 1ms baseline salted with 2s outliers.
// Without the per-sample clamp a single outlier multiplies the EMA by ~600×
// and the adaptive timeout saturates at ProbeTimeout, masking a genuinely
// degrading device; with it, the timeout must stay within a small multiple
// of the honest baseline.
func TestAdaptiveTimeoutResistsOutlierPoisoning(t *testing.T) {
	defer testutil.CheckGoroutines(t)
	p := &scriptedProbe{rtt: time.Millisecond}
	m := NewManager([]ProbeFunc{p.fn}, Options{
		HeartbeatInterval: 10 * time.Millisecond,
		ProbeTimeout:      2 * time.Second,
	})
	// Prime the estimate with an honest baseline.
	for i := 0; i < 20; i++ {
		m.ReportSuccess(0, time.Millisecond)
	}
	base := m.adaptiveTimeout(0)

	// One pathological probe.
	m.ReportSuccess(0, 2*time.Second)
	if got := m.adaptiveTimeout(0); got > 4*base {
		t.Fatalf("single outlier inflated timeout %v -> %v (>4x)", base, got)
	}

	// An adversarial alternation: every other sample is a 2s outlier. The
	// clamp bounds each outlier's contribution, and the interleaved honest
	// samples keep pulling the estimate back down, so the timeout stays far
	// below what an unclamped EMA would reach (~RTTMultiplier x 1s cap).
	for i := 0; i < 10; i++ {
		m.ReportSuccess(0, 2*time.Second)
		m.ReportSuccess(0, time.Millisecond)
	}
	if got := m.adaptiveTimeout(0); got > 100*time.Millisecond {
		t.Fatalf("alternating outliers poisoned timeout to %v, want <= 100ms", got)
	}

	// A sustained, genuine rise must still track: the clamp slows the climb
	// but cannot freeze it.
	for i := 0; i < 50; i++ {
		m.ReportSuccess(0, 100*time.Millisecond)
	}
	if got := m.adaptiveTimeout(0); got < 300*time.Millisecond {
		t.Fatalf("clamp froze adaptation: timeout %v after sustained 100ms RTTs", got)
	}
}
