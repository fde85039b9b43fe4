package serve

import (
	"testing"
	"time"
)

// TestCorrelatedLossWindowEdge drives the correlated-loss detector with
// explicit Down times: two losses closer than correlatedLossWindow are one
// event and raise the ladder floor by stormRung; two losses at or beyond the
// window are unrelated and change nothing.
func TestCorrelatedLossWindowEdge(t *testing.T) {
	cases := []struct {
		name   string
		gap    time.Duration
		events uint64
		floor  int
	}{
		{"inside window", time.Second, 1, stormRung},
		{"at window edge", correlatedLossWindow, 0, 0},
		{"past window", 2500 * time.Millisecond, 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := New(newTestRuntime(1, nil), Options{Workers: 1})
			defer g.Close(time.Second)
			t0 := time.Unix(1_000_000, 0)
			g.noteDown(t0)
			g.noteDown(t0.Add(tc.gap))
			if got := g.Stats().CorrelatedLossEvents; got != tc.events {
				t.Errorf("CorrelatedLossEvents = %d, want %d", got, tc.events)
			}
			if got := g.Ladder().Floor(); got != tc.floor {
				t.Errorf("ladder floor = %d, want %d", got, tc.floor)
			}
		})
	}
}
