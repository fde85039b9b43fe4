package runtime

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"murmuration/internal/monitor"
	"murmuration/internal/rl/env"
	"murmuration/internal/supernet"
	"murmuration/internal/tensor"
)

// Link parameters substituted for a device that is not Eligible. The
// near-zero bandwidth and huge delay make any placement that uses the device
// so expensive that the decider routes around it, and they land in a
// different cache bucket than the device's healthy link state, so pre-failure
// strategies are never served from cache while the device is out.
const (
	downBandwidthMbps = 0.01
	downDelayMs       = 1e6
)

// Decider produces a decision for a constraint — in production this is the
// trained SUPREME policy's greedy decode; tests and baselines can plug in
// anything (evolutionary search, fixed strategies).
type Decider interface {
	Decide(c env.Constraint) (*env.Decision, error)
}

// DeciderFunc adapts a function to the Decider interface.
type DeciderFunc func(c env.Constraint) (*env.Decision, error)

// Decide implements Decider.
func (f DeciderFunc) Decide(c env.Constraint) (*env.Decision, error) { return f(c) }

// SLO is the user-facing service-level objective (paper §5: "The SLO API
// enables users to specify latency or accuracy SLOs as a scalar value").
type SLO struct {
	Type  env.SLOType
	Value float64 // ms for latency SLOs, percent for accuracy SLOs
}

// Runtime is the deployment coordinator: it assembles the live constraint
// from monitors (optionally through the predictor), resolves a strategy via
// the cache or the decider, and executes inference through the scheduler.
//
// Whether a remote device may take a tile is answered in one place,
// Devices.Eligible: the constraint shows an ineligible device as a dead link,
// sanitizeDecision strips it from whatever placement was resolved, and
// AlternateFor never offers it to a hedge.
type Runtime struct {
	Scheduler *Scheduler
	Cache     *StrategyCache
	Devices   *DeviceTable // the scheduler's device table (devices.go)
	decider   Decider      // fixed when the runtime is built
	// Monitors[i] tracks the link of remote device i+1. May be nil when
	// link state is set manually via SetLinkState.
	Monitors []*monitor.LinkMonitor

	// PredictAhead, when > 0, uses the monitor predictor's forecast that
	// far ahead instead of the current estimate (precompute support).
	PredictAhead time.Duration

	mu         sync.Mutex
	slo        SLO
	manualLink []monitor.Sample // fallback when Monitors are absent

	// Resolution singleflight: concurrent cache misses for the same strategy
	// key collapse into one decider call whose result every waiter shares.
	// Under a correlated invalidation (a mass Down) every worker misses at
	// once; without coalescing each would run the decider — a re-planning
	// stampede on the admission path exactly when capacity is scarcest.
	sfMu             sync.Mutex
	sfCalls          map[string]*sfCall
	resolveCoalesced atomic.Uint64
}

// sfCall is one in-flight shared resolution: the leader closes done after
// publishing the decision and error for every coalesced waiter.
type sfCall struct {
	done chan struct{}
	d    *env.Decision
	err  error
}

// New creates a runtime. All remote devices start eligible.
func New(s *Scheduler, d Decider, cache *StrategyCache, monitors []*monitor.LinkMonitor) *Runtime {
	r := &Runtime{
		Scheduler:  s,
		Cache:      cache,
		Devices:    s.Devices,
		decider:    d,
		Monitors:   monitors,
		manualLink: make([]monitor.Sample, len(s.Remotes)),
	}
	s.Devices.cache = cache // leaving placement invalidates the strategies using the device
	// Wire the scheduler's hedged-RPC alternate-device choice to the device
	// table and link estimates, unless the caller already installed its own
	// policy.
	if s.PickAlternate == nil {
		s.PickAlternate = r.AlternateFor
	}
	return r
}

// InvalidateStrategies strands every cached strategy with an O(1) epoch
// bump (removal is lazy — see StrategyCache), returning how many entries
// were live, so every later resolution runs the decider afresh.
func (r *Runtime) InvalidateStrategies() int {
	if r.Cache == nil {
		return 0
	}
	return r.Cache.Clear()
}

// AlternateFor picks the remote device a hedged tile RPC should be retried
// on: the lowest-delay eligible device other than the primary, or 0 when no
// such device exists (hedging is then skipped).
func (r *Runtime) AlternateFor(primary int) int {
	r.mu.Lock()
	manual := append([]monitor.Sample(nil), r.manualLink...)
	r.mu.Unlock()

	best, bestDelay := 0, math.Inf(1)
	for i := range r.Scheduler.Remotes {
		dev := i + 1
		if dev == primary || !r.Devices.Eligible(dev) {
			continue
		}
		var s monitor.Sample
		if i < len(r.Monitors) && r.Monitors[i] != nil && r.Monitors[i].Samples() > 0 {
			s = r.Monitors[i].Current()
		} else if i < len(manual) {
			s = manual[i]
		}
		if best == 0 || s.DelayMs < bestDelay {
			best, bestDelay = dev, s.DelayMs
		}
	}
	return best
}

// SetSLO sets the active objective.
func (r *Runtime) SetSLO(s SLO) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.slo = s
}

// SLO returns the active objective.
func (r *Runtime) SLO() SLO {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.slo
}

// SetLinkState manually sets the link estimate for remote device i+1 (used
// when no active monitor runs, e.g. in simulations and tests).
func (r *Runtime) SetLinkState(i int, bandwidthMbps, delayMs float64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if i < 0 || i >= len(r.manualLink) {
		return fmt.Errorf("runtime: link index %d out of range", i)
	}
	r.manualLink[i] = monitor.Sample{At: time.Now(), BandwidthMbps: bandwidthMbps, DelayMs: delayMs}
	return nil
}

// Constraint assembles the current (goal, task) pair from the SLO and the
// freshest link state.
func (r *Runtime) Constraint() env.Constraint {
	return r.ConstraintFor(r.SLO())
}

// ConstraintFor assembles the (goal, task) pair for an explicit SLO and the
// freshest link state. The serving layer uses it to resolve strategies for
// per-request SLOs without mutating the runtime's global objective.
func (r *Runtime) ConstraintFor(slo SLO) env.Constraint {
	return r.constraintAhead(slo, r.PredictAhead)
}

// constraintAhead is ConstraintFor with the prediction horizon as an
// argument (> 0 reads each monitor's forecast that far ahead instead of its
// current estimate), so Precompute can look ahead without touching the
// PredictAhead field that concurrent serving reads.
func (r *Runtime) constraintAhead(slo SLO, ahead time.Duration) env.Constraint {
	r.mu.Lock()
	manual := append([]monitor.Sample(nil), r.manualLink...)
	r.mu.Unlock()

	c := env.Constraint{Type: slo.Type}
	if slo.Type == env.LatencySLO {
		c.LatencyMs = slo.Value
	} else {
		c.AccuracyPct = slo.Value
	}
	for i := 0; i < len(r.Scheduler.Remotes); i++ {
		var s monitor.Sample
		switch {
		case !r.Devices.Eligible(i + 1):
			// Present a dead link so the decider avoids the device and the
			// cache keys this regime separately.
			s = monitor.Sample{BandwidthMbps: downBandwidthMbps, DelayMs: downDelayMs}
		case i < len(r.Monitors) && r.Monitors[i] != nil && r.Monitors[i].Samples() > 0:
			if ahead > 0 {
				s = r.Monitors[i].Predict(ahead)
			} else {
				s = r.Monitors[i].Current()
			}
		default:
			s = manual[i]
		}
		c.BandwidthMbps = append(c.BandwidthMbps, s.BandwidthMbps)
		c.DelayMs = append(c.DelayMs, s.DelayMs)
	}
	return c
}

// sanitizeDecision returns a decision whose placement assigns no tile to an
// ineligible device, remapping stray tiles to device 0 (local). It is the
// hard guarantee behind constraint degradation: even if the decider or a
// cached entry still points at a lost device, execution never will. The
// input is not mutated — cached decisions are shared.
func (r *Runtime) sanitizeDecision(d *env.Decision) *env.Decision {
	dirty := false
	if d != nil && d.Placement != nil {
		for _, layer := range d.Placement.Devices {
			for _, dev := range layer {
				if !r.Devices.Eligible(dev) {
					dirty = true
				}
			}
		}
	}
	if !dirty {
		return d
	}
	clone := &env.Decision{Config: d.Config, Placement: &supernet.Placement{
		Devices: make([][]int, len(d.Placement.Devices)),
	}}
	for k, layer := range d.Placement.Devices {
		row := append([]int(nil), layer...)
		for t, dev := range row {
			if !r.Devices.Eligible(dev) {
				row[t] = 0
			}
		}
		clone.Placement.Devices[k] = row
	}
	return clone
}

// Result is the outcome of one SLO-aware inference.
type Result struct {
	Report     *InferenceReport
	Decision   *env.Decision
	Constraint env.Constraint
	DecideTime time.Duration
	CacheHit   bool
}

// Resolution is a resolved strategy: the decision to execute plus the
// bucketized cache key identifying the (SLO, network-state) regime it was
// resolved for. Requests sharing a Key are batch-compatible.
type Resolution struct {
	Decision   *env.Decision
	Constraint env.Constraint
	Key        string
	CacheHit   bool
	DecideTime time.Duration
}

// StrategyKeyFor returns the bucketized cache key for an SLO under current
// link state without resolving a decision. The serving layer uses it at
// admission time to group batch-compatible requests cheaply.
func (r *Runtime) StrategyKeyFor(slo SLO) string {
	c := r.ConstraintFor(slo)
	if r.Cache != nil {
		return r.Cache.Key(c)
	}
	return fmt.Sprintf("%d|%.0f|%.0f|%v|%v", c.Type, c.LatencyMs, c.AccuracyPct, c.BandwidthMbps, c.DelayMs)
}

// ResolveFor resolves the strategy for an explicit SLO (cache → decider)
// without executing an inference.
func (r *Runtime) ResolveFor(slo SLO) (*Resolution, error) {
	c := r.ConstraintFor(slo)
	start := time.Now()
	key := ""
	var d *env.Decision
	hit := false
	if r.Cache != nil {
		key = r.Cache.Key(c)
		if cached, ok := r.Cache.Get(c); ok {
			d = cached
			hit = true
		}
	}
	if d == nil {
		sfKey := key
		if sfKey == "" {
			// No cache configured: fall back to an exact-constraint key so
			// unrelated constraints never coalesce into one flight.
			sfKey = fmt.Sprintf("%d|%.0f|%.0f|%v|%v", c.Type, c.LatencyMs, c.AccuracyPct, c.BandwidthMbps, c.DelayMs)
		}
		var err error
		if d, err = r.decideShared(sfKey, c); err != nil {
			return nil, err
		}
	}
	return &Resolution{
		Decision:   r.sanitizeDecision(d),
		Constraint: c,
		Key:        key,
		CacheHit:   hit,
		DecideTime: time.Since(start),
	}, nil
}

// decideShared runs the decider for a strategy key with singleflight
// semantics: the first caller for a key becomes the leader, runs the decider
// and populates the cache; concurrent callers for the same key block on the
// leader's result instead of stampeding the decider. Errors are shared too —
// a failing decider fails the whole flight once, not once per waiter.
func (r *Runtime) decideShared(key string, c env.Constraint) (*env.Decision, error) {
	r.sfMu.Lock()
	if r.sfCalls == nil {
		r.sfCalls = make(map[string]*sfCall)
	}
	if call, ok := r.sfCalls[key]; ok {
		r.sfMu.Unlock()
		<-call.done
		r.resolveCoalesced.Add(1)
		return call.d, call.err
	}
	call := &sfCall{done: make(chan struct{})}
	r.sfCalls[key] = call
	r.sfMu.Unlock()

	// The flight must be torn down on every exit — including a decider
	// panic, which the serving layer recovers per batch. Without this a
	// panicked leader would strand its followers on done forever and wedge
	// every future resolution of the key.
	defer func() {
		if p := recover(); p != nil {
			call.err = fmt.Errorf("runtime: decider panicked: %v", p)
			r.sfMu.Lock()
			delete(r.sfCalls, key)
			r.sfMu.Unlock()
			close(call.done)
			panic(p)
		}
		r.sfMu.Lock()
		delete(r.sfCalls, key)
		r.sfMu.Unlock()
		close(call.done)
	}()

	call.d, call.err = r.decider.Decide(c)
	if call.err == nil && r.Cache != nil {
		r.Cache.Put(c, call.d)
	}
	return call.d, call.err
}

// ResolveCoalesced returns how many resolutions were served by another
// caller's in-flight decider run instead of running their own — each one a
// re-planning stampede contribution that did not happen.
func (r *Runtime) ResolveCoalesced() uint64 { return r.resolveCoalesced.Load() }

// Infer performs one inference: resolve strategy (cache → decider), then
// execute it across the cluster.
func (r *Runtime) Infer(x *tensor.Tensor) (*Result, error) {
	res, err := r.ResolveFor(r.SLO())
	if err != nil {
		return nil, err
	}
	rep, err := r.Scheduler.Infer(x, res.Decision)
	if err != nil {
		return nil, err
	}
	return &Result{Report: rep, Decision: res.Decision, Constraint: res.Constraint,
		DecideTime: res.DecideTime, CacheHit: res.CacheHit}, nil
}

// ExecBatch executes one resolved decision over a batch of inputs in a
// single distributed inference: every input is resized to the decision's
// resolution, stacked along the batch dimension, run through the scheduler
// once, and the per-input logit rows are split back out. This is the serving
// layer's dynamic-batching entry point: requests that resolved to the same
// strategy amortize tiling, dispatch, and per-layer overhead.
func (r *Runtime) ExecBatch(xs []*tensor.Tensor, d *env.Decision) ([]*tensor.Tensor, *InferenceReport, error) {
	return r.ExecBatchBudget(xs, d, 0)
}

// ExecBatchBudget is ExecBatch under a deadline budget: the remaining budget
// bounds (and travels with) every remote tile call, so the batch fails fast
// with an error matching rpcx.ErrBudgetExhausted instead of completing late.
// budget <= 0 means no deadline.
func (r *Runtime) ExecBatchBudget(xs []*tensor.Tensor, d *env.Decision, budget time.Duration) ([]*tensor.Tensor, *InferenceReport, error) {
	if len(xs) == 0 {
		return nil, nil, fmt.Errorf("runtime: empty batch")
	}
	res := d.Config.Resolution
	ch, n := 0, 0
	for i, x := range xs {
		if x.Rank() != 4 {
			return nil, nil, fmt.Errorf("runtime: batch input %d has rank %d, want 4", i, x.Rank())
		}
		if i == 0 {
			ch = x.Shape[1]
		} else if x.Shape[1] != ch {
			return nil, nil, fmt.Errorf("runtime: batch input %d has %d channels, want %d", i, x.Shape[1], ch)
		}
		n += x.Shape[0]
	}
	// A batch of one input is that input: the scheduler resizes it in its
	// workspace. Several are resized straight into their rows of the
	// workspace's image, which the stem then reads in place.
	var rep *InferenceReport
	var err error
	if len(xs) == 1 {
		rep, err = r.Scheduler.InferBudget(xs[0], d, budget)
	} else {
		ws := r.Scheduler.Local.AcquireWorkspace()
		defer ws.Release()
		batch := ws.Image(n, ch, res)
		plane := ch * res * res
		row := 0
		var axes tensor.ResizeAxes // one table allocation for the batch
		for _, x := range xs {
			k := x.Shape[0]
			tensor.BilinearResizeInto(tensor.FromSlice(batch.Data[row*plane:(row+k)*plane], k, ch, res, res), x, &axes)
			row += k
		}
		rep, err = r.Scheduler.inferIn(ws, batch, d, budget)
	}
	if err != nil {
		return nil, nil, err
	}
	classes := rep.Logits.Shape[1]
	outs := make([]*tensor.Tensor, len(xs))
	row := 0
	for i, x := range xs {
		k := x.Shape[0]
		t := tensor.New(k, classes)
		copy(t.Data, rep.Logits.Data[row*classes:(row+k)*classes])
		outs[i] = t
		row += k
	}
	return outs, rep, nil
}

// Precompute resolves and caches the strategy for the *predicted* network
// state without running an inference (paper §5.1: "The Monitoring Data
// Predictor forecasts network conditions, allowing for precomputation with
// RL algorithm and caching of strategies").
func (r *Runtime) Precompute(ahead time.Duration) error {
	c := r.constraintAhead(r.SLO(), ahead)
	if r.Cache == nil {
		return fmt.Errorf("runtime: no cache configured")
	}
	if _, ok := r.Cache.Get(c); ok {
		return nil
	}
	d, err := r.decider.Decide(c)
	if err != nil {
		return err
	}
	r.Cache.Put(c, r.sanitizeDecision(d))
	return nil
}
