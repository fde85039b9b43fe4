package health

import (
	"testing"
	"time"

	"murmuration/internal/testutil"
)

// All tests in this package run the tracker on a synthetic clock:
// time is a variable advanced by hand, never a sleep.

const win = time.Second

// testOpts: small hysteresis so state walks stay short, one-step ramp
// options where the test doesn't care about ramp length.
func testOpts() Options {
	return Options{
		Window:           win,
		MinSamples:       2,
		LatencyFactor:    3,
		FailureRate:      0.30,
		GrayWindows:      2,
		CleanWindows:     2,
		ReintegrateAfter: 5 * win,
		RampWeights:      []float64{0.25, 0.5},
	}
}

// feedWindow pushes one window of observations for a two-device fleet and
// rolls it: device 0 at p50 slowMs with failures/total failure rate, device 1
// always healthy at 1ms. Returns the transitions fired by the roll.
func feedWindow(tr *Tracker, now time.Time, slowMs float64, failures, total int) []Transition {
	for k := 0; k < total-failures; k++ {
		tr.ObserveOK(0, time.Duration(slowMs*float64(time.Millisecond)), now)
	}
	for k := 0; k < failures; k++ {
		tr.ObserveFailure(0, now)
	}
	for k := 0; k < total; k++ {
		tr.ObserveOK(1, time.Millisecond, now)
	}
	return tr.Tick(now.Add(win))
}

func TestGrayDetectionThresholdAndHysteresis(t *testing.T) {
	defer testutil.CheckGoroutines(t)
	tr := NewTracker(2, testOpts())
	now := time.Unix(0, 0)
	tr.Tick(now) // prime the window clock

	// A device at 2× the fleet median is below the 3× threshold: never gray.
	for w := 0; w < 4; w++ {
		feedWindow(tr, now, 2, 0, 4)
		now = now.Add(win)
	}
	if got := tr.StateOf(0); got != Active {
		t.Fatalf("2x device state = %v, want Active", got)
	}
	if c := tr.Counters(); c.GraySuspects != 0 {
		t.Fatalf("GraySuspects = %d, want 0", c.GraySuspects)
	}

	// At 10× the fleet median: one gray window is a suspect, not a demotion
	// (hysteresis needs GrayWindows consecutive).
	feedWindow(tr, now, 10, 0, 4)
	now = now.Add(win)
	if got := tr.StateOf(0); got != Active {
		t.Fatalf("after 1 gray window state = %v, want Active (hysteresis)", got)
	}
	if c := tr.Counters(); c.GraySuspects != 1 {
		t.Fatalf("GraySuspects = %d, want 1", c.GraySuspects)
	}

	// A clean window in between resets the streak.
	feedWindow(tr, now, 2, 0, 4)
	now = now.Add(win)
	feedWindow(tr, now, 10, 0, 4)
	now = now.Add(win)
	if got := tr.StateOf(0); got != Active {
		t.Fatalf("gray-clean-gray state = %v, want Active", got)
	}

	// GrayWindows consecutive gray windows demote to Probation.
	feedWindow(tr, now, 10, 0, 4)
	now = now.Add(win)
	if got := tr.StateOf(0); got != Probation {
		t.Fatalf("after consecutive gray windows state = %v, want Probation", got)
	}
	if c := tr.Counters(); c.Probations != 1 {
		t.Fatalf("Probations = %d, want 1", c.Probations)
	}
	// Device 1 anchored the fleet median the whole time and stayed Active.
	if got := tr.StateOf(1); got != Active {
		t.Fatalf("healthy device state = %v, want Active", got)
	}
}

func TestFailureRateGraysWithoutLatency(t *testing.T) {
	defer testutil.CheckGoroutines(t)
	tr := NewTracker(2, testOpts())
	now := time.Unix(0, 0)
	tr.Tick(now)
	// Same latency as the fleet, but 50% failures: gray on the failure SLI.
	for w := 0; w < 2; w++ {
		feedWindow(tr, now, 1, 2, 4)
		now = now.Add(win)
	}
	if got := tr.StateOf(0); got != Probation {
		t.Fatalf("state = %v, want Probation from failure rate alone", got)
	}
	sli, ok := tr.LastSLI(0)
	if !ok || sli.FailureRate != 0.5 {
		t.Fatalf("LastSLI = %+v ok=%v, want FailureRate 0.5", sli, ok)
	}
}

func TestOverloadIsNotGray(t *testing.T) {
	defer testutil.CheckGoroutines(t)
	tr := NewTracker(2, testOpts())
	now := time.Unix(0, 0)
	tr.Tick(now)
	// 75% overload rejections are backpressure, not sickness.
	for w := 0; w < 4; w++ {
		tr.ObserveOK(0, time.Millisecond, now)
		for k := 0; k < 3; k++ {
			tr.ObserveOverload(0, now)
		}
		for k := 0; k < 4; k++ {
			tr.ObserveOK(1, time.Millisecond, now)
		}
		tr.Tick(now.Add(win))
		now = now.Add(win)
	}
	if got := tr.StateOf(0); got != Active {
		t.Fatalf("state = %v, want Active (overload is not gray)", got)
	}
	if sli, _ := tr.LastSLI(0); sli.OverloadRate != 0.75 {
		t.Fatalf("OverloadRate = %v, want 0.75", sli.OverloadRate)
	}
}

func TestProbationRelapseQuarantinesAndRecoveryRestores(t *testing.T) {
	defer testutil.CheckGoroutines(t)
	// Relapse direction: Probation + GrayWindows more gray → Quarantined.
	tr := NewTracker(2, testOpts())
	now := time.Unix(0, 0)
	tr.Tick(now)
	for w := 0; w < 4; w++ { // 2 → Probation, 2 more → Quarantined
		feedWindow(tr, now, 10, 0, 4)
		now = now.Add(win)
	}
	if got := tr.StateOf(0); got != Quarantined {
		t.Fatalf("state = %v, want Quarantined", got)
	}
	if c := tr.Counters(); c.Quarantines != 1 || c.Probations != 1 {
		t.Fatalf("counters = %+v, want 1 quarantine, 1 probation", c)
	}
	if w := tr.Weight(0); w != 0 {
		t.Fatalf("quarantined weight = %v, want 0", w)
	}

	// Recovery direction: Probation + CleanWindows clean → Active.
	tr2 := NewTracker(2, testOpts())
	now = time.Unix(0, 0)
	tr2.Tick(now)
	for w := 0; w < 2; w++ {
		feedWindow(tr2, now, 10, 0, 4)
		now = now.Add(win)
	}
	if got := tr2.StateOf(0); got != Probation {
		t.Fatalf("state = %v, want Probation", got)
	}
	for w := 0; w < 2; w++ {
		feedWindow(tr2, now, 1, 0, 4)
		now = now.Add(win)
	}
	if got := tr2.StateOf(0); got != Active {
		t.Fatalf("state = %v, want Active after clean probation", got)
	}
	if c := tr2.Counters(); c.Quarantines != 0 {
		t.Fatalf("Quarantines = %d, want 0 on the recovery path", c.Quarantines)
	}
}

// quarantineDevice walks device 0 of a fresh tracker into Quarantined and
// returns the tracker and the current synthetic time.
func quarantineDevice(t *testing.T) (*Tracker, time.Time) {
	t.Helper()
	tr := NewTracker(2, testOpts())
	now := time.Unix(0, 0)
	tr.Tick(now)
	for w := 0; w < 4; w++ {
		feedWindow(tr, now, 10, 0, 4)
		now = now.Add(win)
	}
	if got := tr.StateOf(0); got != Quarantined {
		t.Fatalf("setup: state = %v, want Quarantined", got)
	}
	return tr, now
}

func TestReintegrationRampWeightsAndCompletion(t *testing.T) {
	defer testutil.CheckGoroutines(t)
	tr, now := quarantineDevice(t)

	// Clean windows alone don't release: the ReintegrateAfter time gate
	// (5 windows here) must also elapse. Quarantine entry was at `now`.
	feedWindow(tr, now, 1, 0, 4)
	now = now.Add(win)
	feedWindow(tr, now, 1, 0, 4)
	now = now.Add(win)
	if got := tr.StateOf(0); got != Quarantined {
		t.Fatalf("state = %v, want Quarantined until ReintegrateAfter", got)
	}
	for w := 0; w < 3; w++ { // windows 3..5 since quarantine
		feedWindow(tr, now, 1, 0, 4)
		now = now.Add(win)
	}
	if got := tr.StateOf(0); got != Reintegrating {
		t.Fatalf("state = %v, want Reintegrating after time gate + clean windows", got)
	}

	// Ramp step 0: weight 0.25, and Admit passes exactly 1 in 4.
	if w := tr.Weight(0); w != 0.25 {
		t.Fatalf("ramp weight = %v, want 0.25", w)
	}
	admits := 0
	for k := 0; k < 8; k++ {
		if tr.Admit(0) {
			admits++
		}
	}
	if admits != 2 {
		t.Fatalf("admitted %d of 8 at weight 0.25, want 2", admits)
	}

	// CleanWindows clean windows advance to step 1 (weight 0.5), the same
	// again completes the ramp back to Active.
	feedWindow(tr, now, 1, 0, 4)
	now = now.Add(win)
	feedWindow(tr, now, 1, 0, 4)
	now = now.Add(win)
	if w := tr.Weight(0); w != 0.5 {
		t.Fatalf("ramp weight after advance = %v, want 0.5", w)
	}
	feedWindow(tr, now, 1, 0, 4)
	now = now.Add(win)
	feedWindow(tr, now, 1, 0, 4)
	now = now.Add(win)
	if got := tr.StateOf(0); got != Active {
		t.Fatalf("state = %v, want Active after full ramp", got)
	}
	if c := tr.Counters(); c.Reintegrations != 1 {
		t.Fatalf("Reintegrations = %d, want 1", c.Reintegrations)
	}
	if !tr.Admit(0) || tr.Weight(0) != 1 {
		t.Fatal("active device must take full traffic again")
	}
}

func TestReintegrationRelapseAborts(t *testing.T) {
	defer testutil.CheckGoroutines(t)
	tr, now := quarantineDevice(t)
	for w := 0; w < 5; w++ {
		feedWindow(tr, now, 1, 0, 4)
		now = now.Add(win)
	}
	if got := tr.StateOf(0); got != Reintegrating {
		t.Fatalf("state = %v, want Reintegrating", got)
	}
	// One gray window during the ramp aborts straight back to Quarantined.
	feedWindow(tr, now, 10, 0, 4)
	now = now.Add(win)
	if got := tr.StateOf(0); got != Quarantined {
		t.Fatalf("state = %v, want Quarantined after relapse", got)
	}
	if c := tr.Counters(); c.Quarantines != 2 || c.Reintegrations != 0 {
		t.Fatalf("counters = %+v, want 2 quarantines, 0 reintegrations", c)
	}
	// The relapse restarts the time gate: clean windows right after it do
	// not release before ReintegrateAfter elapses again.
	feedWindow(tr, now, 1, 0, 4)
	now = now.Add(win)
	feedWindow(tr, now, 1, 0, 4)
	if got := tr.StateOf(0); got != Quarantined {
		t.Fatalf("state = %v, want Quarantined (time gate restarted)", got)
	}
}

func TestDetectorDownFreezesStreaks(t *testing.T) {
	defer testutil.CheckGoroutines(t)
	tr := NewTracker(2, testOpts())
	now := time.Unix(0, 0)
	tr.Tick(now)
	feedWindow(tr, now, 10, 0, 4)
	now = now.Add(win)
	// The heartbeat detector takes over: grayness no longer applies.
	tr.SetUp(0, false)
	for w := 0; w < 3; w++ {
		feedWindow(tr, now, 10, 0, 4)
		now = now.Add(win)
	}
	if got := tr.StateOf(0); got != Active {
		t.Fatalf("state = %v, want Active (down devices move no streaks)", got)
	}
	// Back up: the streak restarts from zero, so demotion takes the full
	// hysteresis again.
	tr.SetUp(0, true)
	feedWindow(tr, now, 10, 0, 4)
	now = now.Add(win)
	if got := tr.StateOf(0); got != Active {
		t.Fatalf("state = %v, want Active after one post-rejoin gray window", got)
	}
	feedWindow(tr, now, 10, 0, 4)
	if got := tr.StateOf(0); got != Probation {
		t.Fatalf("state = %v, want Probation", got)
	}
}

func TestThinWindowsMoveNoStreaks(t *testing.T) {
	defer testutil.CheckGoroutines(t)
	tr := NewTracker(2, testOpts())
	now := time.Unix(0, 0)
	tr.Tick(now)
	// One sample per window is below MinSamples=2: never judged, never gray.
	for w := 0; w < 5; w++ {
		tr.ObserveOK(0, 100*time.Millisecond, now)
		tr.ObserveOK(1, time.Millisecond, now)
		tr.Tick(now.Add(win))
		now = now.Add(win)
	}
	if got := tr.StateOf(0); got != Active {
		t.Fatalf("state = %v, want Active (thin windows unjudged)", got)
	}
	if _, ok := tr.LastSLI(0); ok {
		t.Fatal("thin windows must not produce a judged SLI")
	}
}

func TestTransitionCallbackFiresOutsideLock(t *testing.T) {
	defer testutil.CheckGoroutines(t)
	tr := NewTracker(2, testOpts())
	var got []Transition
	tr.OnTransition = func(x Transition) {
		// Re-entering the tracker here deadlocks if the callback were fired
		// under the lock.
		_ = tr.StateOf(x.Device)
		got = append(got, x)
	}
	now := time.Unix(0, 0)
	tr.Tick(now)
	for w := 0; w < 4; w++ {
		feedWindow(tr, now, 10, 0, 4)
		now = now.Add(win)
	}
	if len(got) != 2 || got[0].To != Probation || got[1].To != Quarantined {
		t.Fatalf("transitions = %+v, want Probation then Quarantined", got)
	}
	if got[1].From != Probation {
		t.Fatalf("quarantine From = %v, want Probation", got[1].From)
	}
}
