package serve

import (
	"fmt"
	"testing"
	"time"
)

// TestLingerWakeup is the regression test for the lost linger wakeup: a
// lingering worker arms a timer and then parks on the queue cond; if the
// timer's broadcast can land before the worker is parked, the worker sleeps —
// holding the queue head — until the next admission. One closed-loop client
// never sends that next admission, so the request hangs. Short lingers make
// the timer fire inside the arm→park window within a few dozen requests.
func TestLingerWakeup(t *testing.T) {
	requests := 3000
	if raceDetector {
		// The parent wedges within ~100 requests at 5 and 20 µs; a third of the
		// loop keeps -race -count=20 inside the default test timeout.
		requests = 1000
	}
	for _, workers := range []int{1, 2} {
		for _, linger := range []time.Duration{5 * time.Microsecond, 20 * time.Microsecond, 100 * time.Microsecond} {
			t.Run(fmt.Sprintf("workers=%d/linger=%v", workers, linger), func(t *testing.T) {
				t.Parallel()
				g := New(newTestRuntime(1, nil), Options{Workers: workers, MaxLinger: linger})
				defer g.Close(time.Second)
				x := testInput(1)
				done := make(chan error, 1)
				watchdog := time.NewTimer(time.Hour)
				defer watchdog.Stop()
				for i := 0; i < requests; i++ {
					go func() {
						_, err := g.Submit(x, latSLO(60000))
						done <- err
					}()
					watchdog.Reset(2 * time.Second)
					select {
					case err := <-done:
						if err != nil {
							t.Fatalf("request %d: %v", i, err)
						}
					case <-watchdog.C:
						t.Fatalf("request %d still waiting after 2s: the lingering worker lost its wakeup", i)
					}
				}
			})
		}
	}
}
