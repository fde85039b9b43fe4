package main

import (
	"errors"
	goruntime "runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"murmuration/internal/serve"
	"murmuration/internal/tensor"
)

// errWatchdog marks a request that had no outcome when its watchdog expired.
var errWatchdog = errors.New("bench: request watchdog expired")

// kickAfter is how often a client that waits for an outcome looks at the
// gateway: when it finds no batch executing twice in a row, the worker that
// holds its request sleeps, and the client moves on so that its next
// admission wakes the worker. HEAD loses the wakeup that ends nextBatch's 2 ms
// linger now and then (the linger timer can fire before the worker is back on
// the condition variable), and a worker that missed it sleeps until the next
// admission. A healthy worker starts executing 2 ms after admission, so a
// client only ever moves on early after a stall of the host, and then nothing
// is lost by it.
const kickAfter = 25 * time.Millisecond

// sample is one request as its client saw it. Start is when the request was
// due (open loop) or sent (closed loop); latency runs from Start.
type sample struct {
	planned
	Start time.Time
	End   time.Time
	Out   serve.Outcome
	Err   error
	// Kicked: the client found the request's worker asleep (kickAfter) and
	// sent its next one to wake it; the request was served late, not lost.
	Kicked bool
	// TimedOut: no outcome within the workload's watchdog; counts as failed.
	TimedOut bool

	done chan struct{} // closed once End, Out and Err are set
}

func (s *sample) served() bool { return s.Err == nil }

func (s *sample) latency() time.Duration { return s.End.Sub(s.Start) }

// launch submits s on a goroutine of its own.
func (w *workload) launch(sys *system, pool []*tensor.Tensor, s *sample) {
	s.done = make(chan struct{})
	go func() {
		out, err := sys.gw.Submit(pool[s.Input], w.Mix[s.Class].SLO)
		s.End = time.Now()
		s.Out, s.Err = out, err
		close(s.done)
	}()
}

// send launches s and waits for its outcome the way a closed-loop client
// does. It returns false when the client should move on without it: either s
// has no outcome while no batch is executing, so the worker that holds it
// sleeps and the client's next admission will wake it (s.Kicked), or the
// watchdog expired.
func (w *workload) send(sys *system, pool []*tensor.Tensor, s *sample) bool {
	w.launch(sys, pool, s)
	asleep := 0
	for limit := s.Start.Add(w.Watchdog); time.Now().Before(limit); {
		if waitFor(s.done, kickAfter) {
			return true
		}
		if asleep = sys.asleepFor(asleep); asleep == 2 {
			s.Kicked = true
			return false
		}
	}
	return false
}

func waitFor(done <-chan struct{}, limit time.Duration) bool {
	select {
	case <-done:
		return true
	default:
	}
	if limit <= 0 {
		return false
	}
	t := time.NewTimer(limit)
	defer t.Stop()
	select {
	case <-done:
		return true
	case <-t.C:
		return false
	}
}

// settle waits up to limit for every sample to finish and returns them by
// value; one that has no outcome by then is reported failed and timed out.
func settle(all []*sample, limit time.Duration) []sample {
	deadline := time.Now().Add(limit)
	out := make([]sample, len(all))
	for i, s := range all {
		if waitFor(s.done, time.Until(deadline)) {
			out[i] = *s
		} else {
			out[i] = sample{planned: s.planned, Start: s.Start, End: time.Now(), Err: errWatchdog, Kicked: s.Kicked, TimedOut: true}
		}
	}
	return out
}

// phase is the outcome of one load phase (warm-up, measured or traced).
type phase struct {
	Samples []sample
	// LagMs is, per open-loop arrival, how late the generator dispatched it,
	// and Margin how long before a due time it stopped sleeping.
	LagMs      []float64
	Margin     time.Duration
	Begin, End time.Time
}

func (p *phase) wall() time.Duration { return p.End.Sub(p.Begin) }

func (p *phase) counts() (sent, served, failed, kicked, timedOut int) {
	sent = len(p.Samples)
	for i := range p.Samples {
		s := &p.Samples[i]
		switch {
		case s.served():
			served++
		case s.TimedOut:
			timedOut++
		}
		if s.Kicked {
			kicked++
		}
	}
	return sent, served, sent - served, kicked, timedOut
}

// runPhase offers w's load to the gateway for dur and returns once every
// request it sent has its outcome. The generator shares the process with the
// system under test, so its CPU is part of the process's.
func runPhase(w *workload, sys *system, pool []*tensor.Tensor, seed int64, dur time.Duration) *phase {
	if w.RateRPS > 0 {
		return runOpen(w, sys, pool, seed, dur)
	}
	return runClosed(w, sys, pool, seed, dur)
}

// runClosed runs one goroutine per client; each sends its next request only
// after the previous one has its outcome, or after it gave up on it (send). A
// client whose last request is still out keeps sending past the end of the
// phase, because only an admission wakes a sleeping worker.
func runClosed(w *workload, sys *system, pool []*tensor.Tensor, seed int64, dur time.Duration) *phase {
	sys.markIdle()
	p := &phase{Begin: time.Now()}
	stop := p.Begin.Add(dur)
	perClient := make([][]*sample, w.Clients)
	var wg sync.WaitGroup
	for c := 0; c < w.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			pl := newPlanner(w, seed*1000+int64(c), len(pool))
			out := false // the previous request is still out
			for now := time.Now(); now.Before(stop) || (out && now.Before(stop.Add(w.Watchdog))); now = time.Now() {
				s := &sample{planned: pl.next(), Start: now}
				perClient[c] = append(perClient[c], s)
				out = !w.send(sys, pool, s)
			}
		}(c)
	}
	wg.Wait()
	var all []*sample
	for _, ss := range perClient {
		all = append(all, ss...)
	}
	p.Samples = settle(all, w.Watchdog)
	p.End = time.Now()
	return p
}

// runOpen dispatches a pre-drawn Poisson schedule from one goroutine. It
// sleeps to a margin before each due time and then yields in a spin,
// dispatches every arrival that is already overdue without sleeping, and
// records how late each dispatch was. Requests are timed from their due time,
// so a stall in the system (or the generator) is charged to the requests it
// delays. A sleeping worker is woken by the next arrival; after the last one
// the dispatcher sends one more request whenever requests are out and no batch
// is executing (kickAfter).
//
// The dispatcher sleeps in the kernel (nanosleep), not on a runtime timer:
// its thread then wakes on time whatever the Ps are doing, and needs a P only
// for the microseconds a dispatch takes. On a runtime timer it waited for a
// busy P to notice the timer, and with a P of its own for the spin the host's
// scheduler settled, run by run, into one of two placements of three threads
// on two CPUs whose latency_tail_ms differed by a fifth.
func runOpen(w *workload, sys *system, pool []*tensor.Tensor, seed int64, dur time.Duration) *phase {
	sys.markIdle()
	pl := newPlanner(w, seed, len(pool))
	arrivals := pl.poisson(w.RateRPS, dur)
	all := make([]*sample, len(arrivals))
	p := &phase{LagMs: make([]float64, len(arrivals))}
	margin := sleepMargin()
	p.Margin = margin
	p.Begin = time.Now()
	for i, a := range arrivals {
		due := p.Begin.Add(a.Due)
		now := time.Now()
		for now.Before(due) {
			if wait := due.Sub(now); wait > margin {
				nanosleep(wait - margin)
			} else {
				goruntime.Gosched()
			}
			now = time.Now()
		}
		p.LagMs[i] = float64(now.Sub(due)) / float64(time.Millisecond)
		all[i] = &sample{planned: a, Start: due}
		w.launch(sys, pool, all[i])
	}
	// Wait for the outcomes in order; while one is out and no batch executes,
	// admit one more request to wake the worker that holds it.
	asleep, limit := 0, time.Now().Add(w.Watchdog)
	for i := 0; i < len(all) && time.Now().Before(limit); {
		if waitFor(all[i].done, kickAfter) {
			i++
		} else if asleep = sys.asleepFor(asleep); asleep == 2 {
			asleep = 0
			all[i].Kicked = true
			s := &sample{planned: pl.next(), Start: time.Now()}
			all = append(all, s)
			w.launch(sys, pool, s)
		}
	}
	p.Samples = settle(all, 0)
	p.End = time.Now()
	return p
}

// nanosleep blocks the calling thread in the kernel for d.
func nanosleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	syscall.Nanosleep(&ts, nil)
}

// sleepMargin is how long before a due time the dispatcher stops sleeping and
// starts spinning: 100 µs, or more on a host whose sleeps overrun by more than
// that (measured here as the p90 of twenty 1 ms sleeps, plus a quarter), so
// the spin is as short as the host allows and the generator's CPU stays a
// small part of the process's.

func sleepMargin() time.Duration {
	var over []float64
	for i := 0; i < 20; i++ {
		t := time.Now()
		nanosleep(time.Millisecond)
		over = append(over, float64(time.Since(t)-time.Millisecond))
	}
	if m := time.Duration(1.25 * pct(over, 90)); m > 100*time.Microsecond {
		return m
	}
	return 100 * time.Microsecond
}

// usage is a point-in-time reading of what the process has consumed.
type usage struct {
	CPU        time.Duration // user + system, getrusage
	SysCPU     time.Duration // the system part of CPU
	GCCPU      float64       // seconds, runtime/metrics
	Mallocs    uint64
	TotalAlloc uint64
	Gateway    serve.Stats
	// RemoteCalls counts primary tile RPCs the scheduler dispatched (hedges
	// are in Gateway.Hedges).
	RemoteCalls uint64
}

func readUsage(sys *system) usage {
	var u usage
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		u.CPU = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		u.SysCPU = time.Duration(ru.Stime.Nano())
	}
	gc := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(gc)
	if gc[0].Value.Kind() == metrics.KindFloat64 {
		u.GCCPU = gc[0].Value.Float64()
	}
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	u.Mallocs, u.TotalAlloc = ms.Mallocs, ms.TotalAlloc
	u.Gateway = sys.gw.Stats()
	u.RemoteCalls = sys.rt.Scheduler.Stats().RemoteCalls
	return u
}

// liveHeapMB forces a collection and reads what survives it: weights, caches,
// pools and the bench's own input pool and samples.
func liveHeapMB() float64 {
	goruntime.GC()
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}
