package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"murmuration/internal/runtime"
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

// TestOneLingerPerBatchKey: while a worker lingers on a head, a second
// compatible request either rides that batch or runs at once. It never opens
// a second linger on the key: that linger could catch nothing the first one
// would not, and would only delay its own head. Heads of different keys each
// linger — the rule is per key, not global.
func TestOneLingerPerBatchKey(t *testing.T) {
	const linger = 300 * time.Millisecond
	submit := func(g *Gateway, slo runtime.SLO) <-chan Outcome {
		ch := make(chan Outcome, 1)
		go func() {
			out, _ := g.Submit(testInput(1), slo)
			ch <- out
		}()
		return ch
	}
	// lingerOn submits the gateway's first request and returns once a worker
	// lingers on it: mu is held from popping a head to parking in its linger,
	// so an admitted head that has left the queue is a lingering one.
	lingerOn := func(t *testing.T, g *Gateway, slo runtime.SLO) <-chan Outcome {
		ch := submit(g, slo)
		waitFor(t, func() bool {
			st := g.Stats()
			return st.Admitted == 1 && st.QueueDepth[classOf(slo)] == 0
		})
		return ch
	}
	served := func(t *testing.T, g *Gateway, outs ...Outcome) {
		t.Helper()
		for _, out := range outs {
			if out.Err != nil {
				t.Fatal(out.Err)
			}
		}
		g.mu.Lock()
		defer g.mu.Unlock()
		if len(g.lingering) != 0 {
			t.Fatalf("%d heads still registered as lingering after their batches ran", len(g.lingering))
		}
	}

	t.Run("compatible", func(t *testing.T) {
		g := New(newTestRuntime(1, nil), Options{Workers: 2, MaxLinger: linger})
		defer g.Close(time.Second)
		first := lingerOn(t, g, latSLO(60000))
		second := <-submit(g, latSLO(60000))
		head := <-first
		served(t, g, head, second)
		rode := head.BatchSize == 2 && second.BatchSize == 2
		if !rode && second.QueueWait >= linger/4 {
			t.Fatalf("second request waited %v in a batch of %d beside a lingering head (batch of %d): it lingered a second time on one key",
				second.QueueWait, second.BatchSize, head.BatchSize)
		}
	})

	t.Run("incompatible", func(t *testing.T) {
		g := New(newTestRuntime(1, nil), Options{Workers: 2, MaxLinger: linger})
		defer g.Close(time.Second)
		first := lingerOn(t, g, latSLO(60000))
		acc := <-submit(g, accSLO(75))
		lat := <-first
		served(t, g, lat, acc)
		for class, out := range map[Class]Outcome{ClassLatency: lat, ClassAccuracy: acc} {
			if out.BatchSize != 1 || out.QueueWait < linger/2 {
				t.Fatalf("%v head: batch of %d after %v, want a lone batch that lingered: one key's linger must not stop another's",
					class, out.BatchSize, out.QueueWait)
			}
		}
	})
}

// TestClosedLoopOneLingerPerKey: two closed-loop clients on one strategy key,
// with a linger far longer than an execution. While one client's head
// lingers, the other's requests ride that batch or run at once, so of any two
// compatible requests in flight at most one waits out a linger of its own.
// Without the rule the two clients linger side by side on every request.
//
// The bound counts requests that waited at least half the linger in a batch
// of one, among those admitted while both clients were running. Each such
// linger window holds the admission of a next request of the other client —
// its previous one was executing, one execution is far shorter than half a
// linger — and that request ran at once: it could not linger on the same key,
// and had it joined, the head would not be alone. Lingers on one key never
// overlap, so no two windows share that request, and at most half of the
// counted requests linger; the other client's last request and the stale read
// of finished leave two windows without a partner. Once a client is done the
// other lingers on every request, uncounted.
func TestClosedLoopOneLingerPerKey(t *testing.T) {
	const (
		linger    = 20 * time.Millisecond
		perClient = 50
	)
	g := New(newTestRuntime(1, nil), Options{Workers: 2, MaxLinger: linger})
	defer g.Close(time.Second)
	x := testInput(1)
	type sample struct {
		out      Outcome
		together bool // admitted while the other client was still running
	}
	samples := make(chan sample, 2*perClient)
	var finished atomic.Int32
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer finished.Add(1)
			for i := 0; i < perClient; i++ {
				together := finished.Load() == 0
				out, err := g.Submit(x, latSLO(60000))
				if err != nil {
					t.Error(err)
					return
				}
				samples <- sample{out, together}
			}
		}()
	}
	wg.Wait()
	close(samples)
	together, lingered := 0, 0
	for s := range samples {
		if !s.together {
			continue
		}
		together++
		if s.out.BatchSize == 1 && s.out.QueueWait >= linger/2 {
			lingered++
		}
	}
	if 2*lingered > together+2 {
		t.Fatalf("%d of %d requests admitted beside the other client lingered alone for >= %v: compatible requests in flight linger side by side",
			lingered, together, linger/2)
	}
}
