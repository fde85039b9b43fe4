package serve

import (
	"sync"
	"time"

	"murmuration/internal/health"
	"murmuration/internal/runtime"
	"murmuration/internal/tensor"
)

// request is one queued inference.
type request struct {
	x        *tensor.Tensor
	slo      runtime.SLO
	class    Class
	key      string    // strategy key at admission; batch-compatibility group
	deadline time.Time // zero for non-latency classes
	enqueued time.Time
	done     chan Outcome // buffered(1); exactly one Outcome is ever sent
	// sent guards the done channel (under Gateway.mu): delivery must be
	// idempotent so a panic recovered mid-delivery cannot double-send into
	// the buffered(1) channel and wedge a worker.
	sent bool
}

// expired reports whether the request's deadline has passed.
func (r *request) expired(now time.Time) bool {
	return !r.deadline.IsZero() && now.After(r.deadline)
}

// batchesWith reports whether o may ride in r's batch: same class and
// strategy key. It is the one compatibility predicate — collectCompatible
// gathers by it and nextBatch's one-linger-per-key rule checks by it.
func (r *request) batchesWith(o *request) bool {
	return o.class == r.class && o.key == r.key
}

// Gateway is the serving front-end: bounded per-class queues, deadline-aware
// admission, a batching worker pool, and counters. Create with New; stop
// with Close.
type Gateway struct {
	rt   *runtime.Runtime
	opts Options

	mu   sync.Mutex
	cond *sync.Cond
	// wake broadcasts cond under mu; it is the linger timer's callback. A
	// lingering worker holds mu from arming the timer until cond.Wait parks
	// it, so a timer that fires early blocks on mu until the worker is
	// registered — a bare cond.Broadcast there is a lost wakeup that leaves
	// the worker asleep, holding the queue head, until the next admission.
	wake    func()
	queues  [numClasses][]*request
	closing bool
	// lingering holds the head of every batch a worker is lingering on. A
	// worker whose head batches with one of them runs at once (nextBatch).
	lingering []*request

	// emaBatchSec is a per-class exponential moving average of
	// batched-inference duration, feeding the admission-time queue-wait
	// estimate. Per-class because strategy cost differs sharply between
	// classes (a latency batch is typically much cheaper than an accuracy
	// one) and a shared estimate lets one class poison another's admission.
	emaBatchSec [numClasses]float64

	// ladder is the degradation ladder workers consult when a batch's
	// remaining deadline budget is below the strategy's observed cost.
	ladder *runtime.Ladder

	// health is the gray-failure tracker, nil until AttachHealth (see
	// health.go); guarded by mu.
	health *health.Tracker

	// stop is closed by Close (once); loops counts the goroutines Close waits
	// for: the device-table subscriber (reconfigure) and the health tick
	// loop, which watch stop, and the running restart hooks (cluster.go).
	stop     chan struct{}
	stopOnce sync.Once
	loops    sync.WaitGroup

	// clusterMu orders the cluster glue's Applies, the event loop's and the
	// restart hooks' (cluster.go), and guards restarting: the devices whose
	// OnRestart hooks are running.
	clusterMu  sync.Mutex
	restarting map[int]*restarting

	stats Stats

	workers sync.WaitGroup
}

// New creates a gateway over a runtime and starts its worker pool.
func New(rt *runtime.Runtime, opts Options) *Gateway {
	g := &Gateway{rt: rt, opts: opts.withDefaults()}
	g.ladder = runtime.NewLadder(g.opts.MaxRung, g.opts.LadderHysteresis)
	g.stop = make(chan struct{})
	g.loops.Add(1)
	go g.reconfigure()
	g.cond = sync.NewCond(&g.mu)
	g.wake = func() {
		g.mu.Lock()
		g.cond.Broadcast()
		g.mu.Unlock()
	}
	if m := g.opts.Cluster; m != nil {
		g.restarting = make(map[int]*restarting)
		// The event loop exits when the manager closes, before or after the
		// gateway. Same-tick transitions (a mass kill, a mass recovery, a
		// sweep expiring several members) arrive as one slice and are
		// applied as one batch.
		batches := m.Subscribe()
		go func() {
			for evs := range batches {
				g.handleClusterBatch(evs)
			}
		}()
	}
	for i := 0; i < g.opts.Workers; i++ {
		g.workers.Add(1)
		go func() {
			defer g.workers.Done()
			g.worker()
		}()
	}
	return g
}

// admit applies admission control: shed when closing, when the class queue
// is at depth, or when a latency-SLO request cannot plausibly make its
// deadline given the queue ahead of it.
func (g *Gateway) admit(req *request) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closing {
		g.stats.Shed++
		return ErrShuttingDown
	}
	q := req.class
	if len(g.queues[q]) >= g.opts.QueueDepth {
		g.stats.Shed++
		return ErrQueueFull
	}
	if q == ClassLatency && g.emaBatchSec[q] > 0 {
		// Queue-wait estimate: batches ahead of us in our class, divided
		// over the worker pool, plus our own batch's execution. The
		// execution component is the cheaper of the class EMA and the
		// ladder's deepest-rung estimate — under deadline pressure workers
		// degrade rather than drop, so admission must not shed a request
		// that a degraded rung could still serve in time.
		batchesAhead := (len(g.queues[q]) + g.opts.MaxBatch - 1) / g.opts.MaxBatch
		wait := time.Duration(float64(batchesAhead) / float64(g.opts.Workers) *
			g.emaBatchSec[q] * float64(time.Second))
		exec := time.Duration(g.emaBatchSec[q] * float64(time.Second))
		if e := g.ladder.MinEstimate(); e > 0 && e < exec {
			exec = e
		}
		if time.Now().Add(wait + exec).After(req.deadline) {
			g.stats.Shed++
			return ErrDeadlineUnattainable
		}
	}
	g.stats.Admitted++
	g.queues[q] = append(g.queues[q], req)
	// Broadcast, not Signal: a lingering worker could otherwise swallow the
	// wakeup meant for an idle one and strand an incompatible request.
	g.cond.Broadcast()
	return nil
}

// popHead removes and returns the first live request from the highest-
// priority non-empty queue, failing expired ones on the way. Returns nil
// when every queue is empty. Caller holds g.mu.
func (g *Gateway) popHead(now time.Time) *request {
	for c := Class(0); c < numClasses; c++ {
		for len(g.queues[c]) > 0 {
			req := g.queues[c][0]
			g.queues[c] = g.queues[c][1:]
			if req.expired(now) {
				g.failLocked(req, ErrDeadlineMissed)
				continue
			}
			return req
		}
	}
	return nil
}

// collectCompatible removes up to max additional requests with the head's
// class and strategy key, preserving queue order of the rest. Expired
// requests encountered during the scan are failed. Caller holds g.mu.
func (g *Gateway) collectCompatible(head *request, max int, now time.Time) []*request {
	if max <= 0 {
		return nil
	}
	q := head.class
	var batch []*request
	kept := g.queues[q][:0]
	for _, req := range g.queues[q] {
		switch {
		case len(batch) < max && head.batchesWith(req):
			if req.expired(now) {
				g.failLocked(req, ErrDeadlineMissed)
				continue
			}
			batch = append(batch, req)
		default:
			kept = append(kept, req)
		}
	}
	// Zero the tail so dropped slots don't pin requests.
	for i := len(kept); i < len(g.queues[q]); i++ {
		g.queues[q][i] = nil
	}
	g.queues[q] = kept
	return batch
}

// failLocked delivers an error outcome for an admitted request that will
// not execute and updates the drop counters. Caller holds g.mu. A request
// that already received its outcome is left alone (idempotent delivery).
func (g *Gateway) failLocked(req *request, err error) {
	if req.sent {
		return
	}
	req.sent = true
	g.stats.Dropped++
	g.stats.ClassMissed[req.class]++
	if req.class == ClassLatency {
		g.stats.DeadlineMissed++
	}
	req.done <- Outcome{Err: err}
}

// deliver sends a request's outcome exactly once; it reports false when the
// request already received one. The buffered(1) done channel never blocks a
// first send.
func (g *Gateway) deliver(req *request, out Outcome) bool {
	g.mu.Lock()
	if req.sent {
		g.mu.Unlock()
		return false
	}
	req.sent = true
	g.mu.Unlock()
	req.done <- out
	return true
}

// Ladder exposes the gateway's degradation ladder for observation (current
// rung, degradation/promotion counters).
func (g *Gateway) Ladder() *runtime.Ladder { return g.ladder }

// resetWaitEstimates clears the per-class queue-wait EMAs when batch cost
// changed regime (the device table changed; see reconfigure); the next batch
// of each class re-seeds its estimate, which would otherwise mis-admit until
// it decayed.
func (g *Gateway) resetWaitEstimates() {
	g.mu.Lock()
	defer g.mu.Unlock()
	for c := range g.emaBatchSec {
		g.emaBatchSec[c] = 0
	}
}

// reconfigure is the device table's one subscriber, a goroutine that lives
// from New to Close. A notification — one per applied batch of transitions,
// coalesced while a pass runs — means a placement lost or regained a device,
// so batch cost changed regime and the wait estimates are reset.
func (g *Gateway) reconfigure() {
	defer g.loops.Done()
	for {
		select {
		case <-g.stop:
			return
		case <-g.rt.Devices.Changed():
		}
		g.resetWaitEstimates()
	}
}

// Stats returns a snapshot of the gateway's counters.
func (g *Gateway) Stats() Stats {
	g.mu.Lock()
	defer g.mu.Unlock()
	s := g.stats
	ss := g.rt.Scheduler.Stats()
	s.Hedges, s.HedgeWins = ss.Hedges, ss.HedgeWins
	s.CorruptFrames, s.Redials = ss.CorruptFrames, ss.Redials
	s.RemotePanics = ss.Panics
	s.LimiterCuts, s.LimiterLimit = ss.LimiterCuts, ss.LimiterLimit
	s.FencedResponses, s.StalledCalls = ss.FencedResponses, ss.StalledCalls
	s.RetryBudgetExhausted = ss.RetryBudgetExhausted
	s.ResolveCoalesced = g.rt.ResolveCoalesced()
	s.AsymmetricQuarantines = g.rt.Devices.AsymmetricQuarantines()
	if g.health != nil {
		hc := g.health.Counters()
		s.GraySuspects = hc.GraySuspects
		s.Probations = hc.Probations
		s.Quarantines = hc.Quarantines
		s.Reintegrations = hc.Reintegrations
	}
	for c := Class(0); c < numClasses; c++ {
		s.QueueDepth[c] = len(g.queues[c])
	}
	if g.rt.Cache != nil {
		s.Cache = g.rt.Cache.Stats()
		s.InvalidationEpochs = s.Cache.InvalidationEpochs
	}
	if g.opts.Cluster != nil {
		up, suspect, down := g.opts.Cluster.Counts()
		s.ClusterUp, s.ClusterSuspect, s.ClusterDown = uint64(up), uint64(suspect), uint64(down)
	} else {
		// No detector attached: derive a coarse view from the device table
		// (data-path failures still take devices down).
		for _, d := range g.rt.Devices.Snapshot() {
			if d.Up {
				s.ClusterUp++
			} else {
				s.ClusterDown++
			}
		}
	}
	return s
}

// Close drains the gateway: admission stops immediately, queued requests
// keep executing for up to grace, and whatever is still queued after that
// is failed with ErrShuttingDown. Close returns once every worker exited,
// except that a worker wedged inside a batch execution (e.g. a remote call
// with no deadline) is abandoned after a second grace window rather than
// hanging shutdown forever.
func (g *Gateway) Close(grace time.Duration) {
	g.mu.Lock()
	g.closing = true
	g.cond.Broadcast()
	g.mu.Unlock()
	// Both loops exit promptly; a probe in flight is waited out, bounded by
	// its own ProbeTimeout, and so is a restart hook (none starts once
	// closing is set).
	g.stopOnce.Do(func() { close(g.stop) })
	g.loops.Wait()

	done := make(chan struct{})
	go func() {
		g.workers.Wait()
		close(done)
	}()
	select {
	case <-done:
		return
	case <-time.After(grace):
	}
	// Grace expired: abandon what is still queued so workers can exit.
	g.mu.Lock()
	for c := Class(0); c < numClasses; c++ {
		for _, req := range g.queues[c] {
			g.failLocked(req, ErrShuttingDown)
		}
		g.queues[c] = nil
	}
	g.cond.Broadcast()
	g.mu.Unlock()
	// Workers with an empty queue exit on the broadcast; one stuck mid-
	// execution can only be abandoned — its outcome sends are buffered, so
	// it cannot block on delivery if it ever returns.
	select {
	case <-done:
	case <-time.After(grace + 100*time.Millisecond):
	}
}
