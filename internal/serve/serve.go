// Package serve is Murmuration's SLO-aware serving layer: a concurrent
// inference gateway that sits in front of runtime.Runtime and turns the
// single-request pipeline into a request-serving system.
//
// Requests are classified by their SLO into service classes (latency-SLO
// ahead of accuracy-SLO ahead of best-effort) and admitted into bounded
// per-class queues. Admission is deadline-aware: a latency-SLO request whose
// estimated queue wait already exceeds its budget is shed immediately rather
// than admitted and missed. A worker pool drains the queues in strict class
// priority, coalescing compatible requests — same resolved strategy key from
// the StrategyCache — into one batched Scheduler inference (up to MaxBatch,
// waiting at most MaxLinger to fill a batch). At most one worker lingers per
// class and strategy key: it collects every compatible arrival, so a second
// linger on that key could catch nothing and would only delay its head — a
// worker that finds one runs what it took at once. Everything observable is
// counted and exposed via Stats() so experiments and benchmarks can assert
// on admitted / served / shed / deadline-missed totals.
package serve

import (
	"time"

	"murmuration/internal/fault"
	"murmuration/internal/rl/env"
	"murmuration/internal/runtime"
	"murmuration/internal/tensor"
)

// Class is the service class a request is queued under, derived from its
// SLO. Lower values are served first.
type Class int

// Service classes in strict priority order.
const (
	ClassLatency    Class = iota // latency-SLO requests: have a hard deadline
	ClassAccuracy                // accuracy-SLO requests: quality-bound, no deadline
	ClassBestEffort              // no SLO: served when capacity is idle
	numClasses
)

// String names the class for logs and stats.
func (c Class) String() string {
	switch c {
	case ClassLatency:
		return "latency"
	case ClassAccuracy:
		return "accuracy"
	case ClassBestEffort:
		return "best-effort"
	}
	return "unknown"
}

// NumClasses is the number of service classes — the length of the per-class
// arrays in Stats, exported for scorers that iterate them.
const NumClasses = int(numClasses)

// ClassFor derives the service class a request with the given SLO queues
// under — the exported form of the gateway's own classifier, so external
// scorers bucket exactly the way admission does.
func ClassFor(slo runtime.SLO) Class { return classOf(slo) }

// classOf derives the service class from an SLO. A latency SLO with a
// positive budget gets the deadline class; a positive accuracy SLO gets the
// quality class; anything else is best-effort.
func classOf(slo runtime.SLO) Class {
	switch {
	case slo.Type == env.LatencySLO && slo.Value > 0:
		return ClassLatency
	case slo.Type == env.AccuracySLO && slo.Value > 0:
		return ClassAccuracy
	}
	return ClassBestEffort
}

// Sentinel errors surfaced to submitters, each born with its fault class.
// Over the wire the class travels as a code (rpcx statusFault), so a remote
// client classifies with fault.Of exactly as a local submitter does.
var (
	// ErrQueueFull sheds a request because its class queue is at depth.
	ErrQueueFull = fault.New(fault.AdmissionShed, "serve: shed: queue full")
	// ErrDeadlineUnattainable sheds a latency-SLO request at admission
	// because the estimated queue wait already exceeds its budget.
	ErrDeadlineUnattainable = fault.New(fault.AdmissionShed, "serve: shed: deadline unattainable")
	// ErrDeadlineMissed fails an admitted request whose deadline passed
	// while it waited in the queue.
	ErrDeadlineMissed = fault.New(fault.DeadlineMissed, "serve: deadline missed in queue")
	// ErrShuttingDown rejects work during/after gateway shutdown.
	ErrShuttingDown = fault.New(fault.AdmissionShed, "serve: shed: gateway shutting down")
	// ErrOverloaded sheds a request because the gateway is protecting itself:
	// a watchdog brownout tightened admission, or dispatch hit a concurrency
	// limit downstream. Like every shed it is a refusal, not a failure.
	ErrOverloaded = fault.New(fault.Load, "serve: shed: overloaded")
)

// BrownoutRung is the degradation-ladder floor a watchdog brownout raises:
// under resource pressure every batch executes at least one rung degraded,
// trading quality for headroom until the pressure clears.
const BrownoutRung = 1

// Options configures a Gateway. Zero values select the defaults.
type Options struct {
	// Workers is the number of parallel batch executors (default 2).
	Workers int
	// MaxBatch caps how many compatible requests coalesce into one batched
	// inference (default 8, max 255 — the wire encodes it in one byte).
	MaxBatch int
	// MaxLinger is how long a worker waits to fill a batch after the first
	// request is taken (default 2ms). Lingering never extends past a
	// latency-SLO head's feasible slack, and a worker whose head has the
	// class and strategy key of another worker's lingering head does not
	// linger: the first linger already collects every arrival the second
	// could, so the second would only delay its own head.
	MaxLinger time.Duration
	// QueueDepth bounds each class queue (default 64).
	QueueDepth int
	// OnDeviceError, when set, is called (off the worker's hot path but
	// synchronously, so keep it cheap) whenever a batch fails with a
	// device-attributed error, before the failover retry. Daemons use it to
	// log which device is dying.
	OnDeviceError func(device int, err error)
	// OnRestart, when set, is called from the cluster event loop when a
	// device's incarnation changes (a silent restart was detected), after the
	// old incarnation is fenced and the device is down with its adaptive
	// state reset, and before the device is reinstated. The gateway command
	// wires it to capability re-negotiation: re-probing the link monitor and
	// refreshing the runtime's link state, because the restarted process may
	// have different performance than the one the estimates were learned on.
	OnRestart func(device int, incarnation uint64)
	// MaxRung is the deepest degradation-ladder rung workers may descend to
	// when the remaining deadline budget is below the strategy's observed
	// cost: 0 selects runtime.DefaultMaxRung, a negative value disables
	// degradation entirely (requests then drop under pressure, as before).
	MaxRung int
	// LadderHysteresis is how many consecutive comfortable completions are
	// needed before the ladder climbs one rung back toward full quality
	// (default runtime.DefaultLadderHysteresis).
	LadderHysteresis int
	// CorrelatedLossK is the correlated-loss threshold: when at least K
	// devices go Down within CorrelatedLossWindow the gateway records a
	// CorrelatedLossEvent and pre-emptively raises the degradation-ladder
	// floor one rung for CorrelatedLossHold — the surviving capacity is about
	// to absorb the dead devices' traffic, so every batch cheapens before the
	// wave lands instead of after the first misses. Default 2; negative
	// disables the detector.
	CorrelatedLossK int
	// CorrelatedLossWindow is the sliding window the detector counts Down
	// events over (default 2s).
	CorrelatedLossWindow time.Duration
	// CorrelatedLossHold is how long the pre-emptive tighten persists after
	// the last detection (default 5s).
	CorrelatedLossHold time.Duration
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 8
	}
	if o.MaxBatch > 255 {
		o.MaxBatch = 255
	}
	if o.MaxLinger <= 0 {
		o.MaxLinger = 2 * time.Millisecond
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.CorrelatedLossK == 0 {
		o.CorrelatedLossK = 2
	}
	if o.CorrelatedLossWindow <= 0 {
		o.CorrelatedLossWindow = 2 * time.Second
	}
	if o.CorrelatedLossHold <= 0 {
		o.CorrelatedLossHold = 5 * time.Second
	}
	return o
}

// Stats is a point-in-time snapshot of the gateway's counters. After a
// drain, Admitted == Served + Dropped + Failed: no admitted request
// disappears silently.
type Stats struct {
	// Admitted counts requests that passed admission control.
	Admitted uint64
	// Served counts admitted requests that completed execution and were
	// delivered (late completions included — see DeadlineMissed).
	Served uint64
	// Shed counts requests rejected at admission: full queue, hopeless
	// deadline, or shutdown.
	Shed uint64
	// Dropped counts admitted requests abandoned before execution (deadline
	// expired in queue, or shutdown drain gave up).
	Dropped uint64
	// DeadlineMissed counts admitted latency-SLO requests that did not make
	// their budget: every Dropped latency request plus every late Served
	// completion.
	DeadlineMissed uint64
	// Failed counts admitted requests whose execution errored.
	Failed uint64
	// Batches / BatchedRequests describe batching efficiency:
	// BatchedRequests/Batches is the mean batch size.
	Batches         uint64
	BatchedRequests uint64
	// FailoverAttempts counts batches whose execution hit a device-attributed
	// error and were retried once on a re-resolved strategy; Failovers counts
	// the retries that then succeeded. A batch only lands in Failed after its
	// failover retry also failed (or the error was not device-attributable).
	FailoverAttempts uint64
	Failovers        uint64
	// Degraded counts requests served below rung 0 on the degradation
	// ladder; DegradedRungs sums their rungs (DegradedRungs/Degraded is the
	// mean degradation depth).
	Degraded      uint64
	DegradedRungs uint64
	// BudgetExhausted counts admitted requests dropped because their
	// deadline budget ran out during execution — even the deepest permitted
	// rung could not finish in time.
	BudgetExhausted uint64
	// Hedges / HedgeWins are the scheduler's hedged tile-RPC counters:
	// second attempts issued after the hedge delay, and how many of those
	// second responses arrived first and were used.
	Hedges    uint64
	HedgeWins uint64
	// CorruptFrames counts rpcx frames rejected by checksum/framing
	// validation on the scheduler's remote clients; Redials counts the
	// connection re-establishments forced by poisoned connections. Both come
	// from the integrity layer: corruption is detected, the connection torn
	// down, and the call retried — never delivered corrupted.
	CorruptFrames uint64
	Redials       uint64
	// ClusterUp / ClusterSuspect / ClusterDown are the failure detector's
	// member counts at snapshot time (from the attached cluster.Manager, or
	// derived from the runtime's device table when none is attached).
	ClusterUp      uint64
	ClusterSuspect uint64
	ClusterDown    uint64
	// Panics counts batch executions that panicked inside the gateway and
	// were recovered (the batch failed, the process survived); RemotePanics
	// counts typed handler-panic responses received from daemons.
	Panics       uint64
	RemotePanics uint64
	// Overloads counts requests shed or dropped as overload refusals: brownout
	// admission sheds plus batches refused by a concurrency limit (local AIMD
	// or a daemon's in-flight cap). Overload is never a fault — these ride
	// Shed/Dropped in the ledger, never Failed.
	Overloads uint64
	// LimiterCuts counts multiplicative cuts across the scheduler's per-device
	// AIMD limiters; LimiterLimit is their summed current limit (a gauge).
	LimiterCuts  uint64
	LimiterLimit uint64
	// Brownouts counts watchdog brownout activations; BrownoutActive is 1
	// while the gateway is currently in brownout (a gauge).
	Brownouts      uint64
	BrownoutActive uint64
	// Goroutines / HeapBytes are the watchdog's last resource samples (0 when
	// no watchdog is attached). Gauges, not counters.
	Goroutines uint64
	HeapBytes  uint64
	// PolicyVersion is the serving policy's version (a gauge, 0 when no
	// adaptation controller is attached); ShadowScored, Promotions, and
	// Rollbacks are the attached controller's rollout counters. CanaryServed
	// counts requests served by a canary-routed candidate decision — these
	// ride the normal Served/ClassMet ledger, the counter only attributes
	// them. All five are wire v7.
	PolicyVersion uint64
	ShadowScored  uint64
	CanaryServed  uint64
	Promotions    uint64
	Rollbacks     uint64
	// GraySuspects counts gray-window detections by the health tracker (a
	// device's data-path SLIs breached the fleet-relative thresholds while
	// its heartbeats stayed Up); Probations, Quarantines, and Reintegrations
	// count the health machine's transitions into Probation, into
	// Quarantined, and completed reintegration ramps back to Active.
	// FlapSuppressed counts devices crossing into flap-damping suppression
	// (reinstatement refused until the flip penalty decays). All five are
	// wire v8, zero when no health tracker is attached (AttachHealth).
	GraySuspects   uint64
	Quarantines    uint64
	Probations     uint64
	Reintegrations uint64
	FlapSuppressed uint64
	// Restarts counts detected device restarts (incarnation changes) the
	// gateway reconfigured around: strategy cache invalidated, adaptive state
	// reset, capabilities re-negotiated. FencedResponses counts tile responses
	// produced by a dead incarnation that were dropped before reaching any
	// caller or adaptive state. StalledCalls counts remote calls the per-call
	// progress watchdog aborted (typed rpcx.ErrStalled — a half-open link).
	// AsymmetricQuarantines counts health quarantines attributed to stall
	// evidence: the link passed heartbeats while wedging tensor transfers.
	// All four are wire v9.
	Restarts              uint64
	FencedResponses       uint64
	StalledCalls          uint64
	AsymmetricQuarantines uint64
	// RetryBudgetExhausted counts speculative attempts — rpcx retries,
	// failover re-executions, hedges — refused by the shared retry budget:
	// each one a contribution to a retry storm that did not happen.
	// ResolveCoalesced counts strategy resolutions served by another caller's
	// in-flight decider run instead of a duplicate run (singleflight).
	// InvalidationEpochs mirrors Cache.InvalidationEpochs on the wire: O(1)
	// strategy-cache invalidation events (device-loss epoch bumps and policy
	// clears). CorrelatedLossEvents counts correlated-loss detections (>= K
	// devices Down inside the window) that pre-emptively tightened admission
	// one ladder rung. StaggeredReintegrations counts device reinstatements
	// the recovery-storm smoother delayed so returning capacity ramps instead
	// of slamming. All five are wire v10.
	RetryBudgetExhausted    uint64
	ResolveCoalesced        uint64
	InvalidationEpochs      uint64
	CorrelatedLossEvents    uint64
	StaggeredReintegrations uint64
	// ClassMet / ClassMissed are the per-SLO-class attainment ledger: every
	// admitted request lands in exactly one bucket of its class once it gets
	// its outcome. Met is served within the SLO (for classes without a
	// deadline, simply served); Missed is everything else — a late serve, a
	// queue drop, a budget exhaustion, or a failure. After a drain,
	// sum(ClassMet) + sum(ClassMissed) == Admitted, so per-class attainment
	// is Met/(Met+Missed) straight off the stats wire (v6), with no
	// client-side bookkeeping.
	ClassMet    [numClasses]uint64
	ClassMissed [numClasses]uint64
	// QueueDepth is the current per-class queue occupancy.
	QueueDepth [numClasses]int
	// Cache is the runtime strategy-cache snapshot (occupancy, hit-rate).
	Cache runtime.CacheStats
}

// Outcome is the per-request result delivered to a submitter.
type Outcome struct {
	Logits     *tensor.Tensor
	QueueWait  time.Duration // admission → execution start
	ExecTime   time.Duration // the batched scheduler call this request rode in
	DecideTime time.Duration // strategy resolution time for the batch
	BatchSize  int
	CacheHit   bool
	// Rung is the degradation-ladder rung the batch executed at (0 = the
	// resolved strategy unchanged).
	Rung int
	// PolicyVersion / Canary attribute the serving decision to its policy
	// snapshot (see runtime.Resolution). Zero when the decider is unversioned.
	PolicyVersion uint64
	Canary        bool
	Err           error
}

// Submit enqueues one inference under slo and blocks until its outcome is
// ready. It is safe for concurrent use; the returned error is also set on
// Outcome.Err.
func (g *Gateway) Submit(x *tensor.Tensor, slo runtime.SLO) (Outcome, error) {
	req := &request{
		x:        x,
		slo:      slo,
		class:    classOf(slo),
		key:      g.rt.StrategyKeyFor(slo),
		enqueued: time.Now(),
		done:     make(chan Outcome, 1),
	}
	if req.class == ClassLatency {
		req.deadline = req.enqueued.Add(time.Duration(slo.Value * float64(time.Millisecond)))
	}
	if err := g.admit(req); err != nil {
		return Outcome{Err: err}, err
	}
	out := <-req.done
	return out, out.Err
}
