// Package watchdog samples process resource pressure — goroutine count and
// heap allocation — in a jittered loop and drives a brownout signal: past
// configurable thresholds the serving layer is told to shed aggressively
// (raise the degradation ladder's floor, tighten admission) until pressure
// clears. It is the last line of the self-protection stack: admission
// control and concurrency limits bound intake per request class and per
// device; the watchdog bounds the process as a whole, catching whatever
// leaks past them before the OOM killer or the scheduler does.
package watchdog

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"
)

// Options configures a Watchdog. Zero values select the defaults; a zero
// threshold disables that check.
type Options struct {
	// Interval is the mean sampling period (default 250ms), jittered by
	// ±sampleJitter so a fleet of watchdogs does not sample in lockstep.
	Interval time.Duration
	// MaxGoroutines trips the brownout when the goroutine count exceeds it
	// (0 disables the check).
	MaxGoroutines int
	// MaxHeapBytes trips the brownout when heap allocation exceeds it
	// (0 disables the check).
	MaxHeapBytes uint64
	// ReleaseFrac is the hysteresis band: brownout clears only once every
	// tripped gauge has dropped below ReleaseFrac × its threshold (default
	// 0.8), so the signal does not flap right at the boundary.
	ReleaseFrac float64
	// ClearAfter is how many consecutive below-band samples are required
	// before the brownout releases (default 3).
	ClearAfter int
	// OnBrownout is called (off the sampling goroutine, synchronously) when
	// pressure crosses a threshold; reason names the tripped gauge.
	// OnClear is called when pressure has stayed below the release band for
	// ClearAfter samples.
	OnBrownout func(reason string)
	OnClear    func()
}

func (o Options) withDefaults() Options {
	if o.Interval <= 0 {
		o.Interval = 250 * time.Millisecond
	}
	if o.ReleaseFrac <= 0 || o.ReleaseFrac >= 1 {
		o.ReleaseFrac = 0.8
	}
	if o.ClearAfter <= 0 {
		o.ClearAfter = 3
	}
	return o
}

// sampleJitter is the ± fraction by which each sampling period is randomized.
const sampleJitter = 0.2

// Watchdog samples resource gauges and publishes a brownout signal. Create
// with New, start the loop with Start, stop it with Close; Sample can also
// be driven manually (tests, custom loops).
type Watchdog struct {
	opts Options

	mu          sync.Mutex
	goroutines  int
	heapBytes   uint64
	active      bool
	clearStreak int
	brownouts   uint64
	samples     uint64
	started     bool
	stopped     bool

	stop chan struct{}
	wg   sync.WaitGroup
}

// New creates a watchdog.
func New(opts Options) *Watchdog {
	return &Watchdog{opts: opts.withDefaults(), stop: make(chan struct{})}
}

// Start launches the jittered sampling loop. Idempotent.
func (w *Watchdog) Start() {
	w.mu.Lock()
	if w.started || w.stopped {
		w.mu.Unlock()
		return
	}
	w.started = true
	w.mu.Unlock()
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		rng := rand.New(rand.NewSource(time.Now().UnixNano()))
		for {
			j := 1 + sampleJitter*(2*rng.Float64()-1)
			t := time.NewTimer(time.Duration(float64(w.opts.Interval) * j))
			select {
			case <-w.stop:
				t.Stop()
				return
			case <-t.C:
			}
			w.Sample()
		}
	}()
}

// Close stops the sampling loop and waits for it to exit. Idempotent.
func (w *Watchdog) Close() {
	w.mu.Lock()
	if w.stopped {
		w.mu.Unlock()
		return
	}
	w.stopped = true
	w.mu.Unlock()
	close(w.stop)
	w.wg.Wait()
}

// Sample takes one resource measurement and advances the brownout state
// machine, invoking OnBrownout/OnClear on edges. Safe to call manually.
func (w *Watchdog) Sample() {
	g := runtime.NumGoroutine()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	var trip string
	if w.opts.MaxGoroutines > 0 && g > w.opts.MaxGoroutines {
		trip = fmt.Sprintf("goroutines %d > %d", g, w.opts.MaxGoroutines)
	} else if w.opts.MaxHeapBytes > 0 && ms.HeapAlloc > w.opts.MaxHeapBytes {
		trip = fmt.Sprintf("heap %d B > %d B", ms.HeapAlloc, w.opts.MaxHeapBytes)
	}
	// Below the release band on every enabled gauge?
	clear := true
	if w.opts.MaxGoroutines > 0 && float64(g) >= w.opts.ReleaseFrac*float64(w.opts.MaxGoroutines) {
		clear = false
	}
	if w.opts.MaxHeapBytes > 0 && float64(ms.HeapAlloc) >= w.opts.ReleaseFrac*float64(w.opts.MaxHeapBytes) {
		clear = false
	}

	var fire func()
	w.mu.Lock()
	w.samples++
	w.goroutines = g
	w.heapBytes = ms.HeapAlloc
	switch {
	case trip != "":
		w.clearStreak = 0
		if !w.active {
			w.active = true
			w.brownouts++
			if cb := w.opts.OnBrownout; cb != nil {
				reason := trip
				fire = func() { cb(reason) }
			}
		}
	case w.active && clear:
		w.clearStreak++
		if w.clearStreak >= w.opts.ClearAfter {
			w.active = false
			w.clearStreak = 0
			if cb := w.opts.OnClear; cb != nil {
				fire = func() { cb() }
			}
		}
	default:
		// Between the release band and the threshold (or inactive): hold.
		w.clearStreak = 0
	}
	w.mu.Unlock()
	if fire != nil {
		fire()
	}
}

// Goroutines returns the last sampled goroutine count (0 before any sample).
func (w *Watchdog) Goroutines() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.goroutines
}

// HeapBytes returns the last sampled heap allocation (0 before any sample).
func (w *Watchdog) HeapBytes() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.heapBytes
}

// Active reports whether the brownout signal is currently raised.
func (w *Watchdog) Active() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.active
}

// Brownouts returns how many times the brownout signal has been raised.
func (w *Watchdog) Brownouts() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.brownouts
}

// Samples returns how many measurements have been taken.
func (w *Watchdog) Samples() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.samples
}
