// Package testutil holds shared test helpers. The goroutine-leak check
// guards the self-protection work: a server that pins a goroutine per dead
// client, or a worker pool that survives Close, shows up here as a count
// that never returns to baseline.
package testutil

import (
	"bytes"
	"runtime"
	"testing"
	"time"
)

// leakSlack absorbs runtime-internal goroutines (timer wheels, GC workers,
// race-detector helpers) that come and go independently of the test body.
const leakSlack = 10

// CheckGoroutines snapshots the goroutine count and registers a cleanup that
// fails the test if, after the body finishes, the count does not return to
// within a small slack of the baseline. Background goroutines legitimately
// take a moment to unwind after Close, so the check polls before judging.
// Members of the tensor kernels' worker team are not counted: the first
// kernel call of a process may start them, and they live for its life.
func CheckGoroutines(t testing.TB) {
	t.Helper()
	before := goroutines()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		var after int
		for {
			after = goroutines()
			if after <= before+leakSlack {
				return
			}
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Errorf("goroutine leak: %d before, %d after (slack %d)\n%s",
			before, after, leakSlack, buf[:n])
	})
}

// goroutines counts the live goroutines, less the tensor worker team's. The
// team's members are the only goroutines package tensor starts (CI holds it
// to one go statement), so they are the ones created by it.
func goroutines() int {
	buf := make([]byte, 64<<10)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	all := bytes.Count(buf, []byte("\n\ngoroutine ")) + 1
	return all - bytes.Count(buf, []byte("\ncreated by murmuration/internal/tensor."))
}
