package adapt

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"murmuration/internal/nn"
	"murmuration/internal/rl/env"
	"murmuration/internal/rl/policy"
	"murmuration/internal/rl/supreme"
	"murmuration/internal/runtime"
	"murmuration/internal/serve"
)

// Mode is the rollout state a candidate policy is in.
type Mode int32

// Rollout modes. Shadow and Canary both carry a candidate; Incumbent means
// no candidate is staged (either between rollouts or because the circuit
// breaker pinned the policy).
const (
	ModeIncumbent Mode = iota
	ModeShadow
	ModeCanary
)

// String names the mode for logs.
func (m Mode) String() string {
	switch m {
	case ModeIncumbent:
		return "incumbent"
	case ModeShadow:
		return "shadow"
	case ModeCanary:
		return "canary"
	}
	return "unknown"
}

// Config configures a Controller. Zero values select the defaults.
type Config struct {
	// Runtime is the deployment runtime whose decider the controller becomes
	// (required). The controller invalidates its strategy cache on every
	// promotion and rollback.
	Runtime *runtime.Runtime
	// Incumbent is the initial serving decider. When nil and Policy is set,
	// the frozen Policy serves.
	Incumbent runtime.Decider
	// Policy is the trainable policy the background loop retrains (a private
	// clone is trained; serving always uses frozen snapshots). Nil disables
	// retraining — the controller is then routing-only (tests, static
	// deployments).
	Policy *policy.Policy
	// Space is the constraint grid the replay buffer is bucketed on
	// (required when Policy is set).
	Space env.ConstraintSpace
	// TrainOpts tune the background trainer (zero: supreme.DefaultOptions).
	TrainOpts supreme.Options
	// Dir is where versioned checkpoints and the manifest persist ("" = no
	// persistence; promotions survive only the process).
	Dir string
	// Interval is the retrain/evaluate cadence (default 2s).
	Interval time.Duration
	// CanaryFrac is the fraction of decisions routed through the candidate
	// during canary (default 0.2, clamped to [0.001, 1]).
	CanaryFrac float64
	// RollbackSLO is the attainment floor: a window whose SLO attainment
	// falls below it counts as bad (default 0.7).
	RollbackSLO float64
	// TrainRounds is how many targeted SUPREME rounds run per tick (default 2).
	TrainRounds int
	// MinShadow is how many shadow comparisons must accumulate before the
	// shadow gate is evaluated (default 16); ShadowWinFrac is the win
	// fraction the candidate needs to advance to canary (default 0.6).
	MinShadow     int
	ShadowWinFrac float64
	// MinCanary is how many canary-served outcomes must be observed, with no
	// bad window, before full promotion (default 8).
	MinCanary int
	// RollbackWindows is the hysteresis: consecutive bad windows required to
	// roll back, and also the post-promotion probation length in windows
	// (default 2).
	RollbackWindows int
	// MaxRollbacks is the circuit breaker: this many consecutive rollbacks
	// pin the frozen policy (default 2).
	MaxRollbacks int
	// FeedCap bounds the outcome feed (default DefaultFeedCap).
	FeedCap int
	// Log receives state-transition lines (default log.Printf).
	Log func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = 2 * time.Second
	}
	if c.CanaryFrac <= 0 {
		c.CanaryFrac = 0.2
	}
	if c.CanaryFrac > 1 {
		c.CanaryFrac = 1
	}
	if c.RollbackSLO <= 0 {
		c.RollbackSLO = 0.7
	}
	if c.TrainRounds <= 0 {
		c.TrainRounds = 2
	}
	if c.MinShadow <= 0 {
		c.MinShadow = 16
	}
	if c.ShadowWinFrac <= 0 {
		c.ShadowWinFrac = 0.6
	}
	if c.MinCanary <= 0 {
		c.MinCanary = 8
	}
	if c.RollbackWindows <= 0 {
		c.RollbackWindows = 2
	}
	if c.MaxRollbacks <= 0 {
		c.MaxRollbacks = 2
	}
	if c.Log == nil {
		c.Log = log.Printf
	}
	return c
}

// Per-tick work bounds: cells retrained and shadow comparisons scored are
// capped so a busy gateway cannot turn the background loop into a second
// serving workload.
const (
	maxCellsPerTick  = 8
	maxShadowPerTick = 32
)

// routing is the immutable decision-routing snapshot behind the atomic
// pointer: the serving hot path loads it once per decision and never takes a
// lock. Transitions install a fresh copy.
type routing struct {
	mode           Mode
	incumbent      runtime.Decider
	incumbentVer   uint64
	candidate      runtime.Decider
	candidateVer   uint64
	canaryPermille uint64
}

// Controller is the rollout state machine. It implements runtime.MetaDecider
// (install it as the runtime's decider), serve.AdaptSource (attach it to the
// gateway), and drives retraining plus guarded promotion in a background
// goroutine between Start and Close.
type Controller struct {
	cfg  Config
	rt   *runtime.Runtime
	feed *Feed
	gw   *serve.Gateway

	routing   atomic.Pointer[routing]
	canaryCtr atomic.Uint64

	// Wire-visible counters (serve.AdaptStats); atomics because the gateway
	// reads them under its own mutex while the loop updates them.
	shadowScored atomic.Uint64
	promotions   atomic.Uint64
	rollbacks    atomic.Uint64

	// trainer owns the working policy (a private clone of cfg.Policy); only
	// the background loop (or Tick in tests) touches it.
	trainer *supreme.Trainer

	// mu guards the state-machine bookkeeping below across the background
	// loop and the Force* test hooks. Never held while calling into the
	// gateway or while serving decisions.
	mu             sync.Mutex
	version        uint64 // last assigned snapshot version
	shadowWins     int
	shadowTotal    int
	canarySeen     int
	badWindows     int
	watchLeft      int // >0: post-promotion probation windows remaining
	rollbackStreak int
	pinned         bool
	lastGood       runtime.Decider
	lastGoodVer    uint64

	stop chan struct{}
	done chan struct{}
}

// choiceDecider is a decider that exposes the policy choice sequence behind
// each decision (policy snapshots do; arbitrary deciders do not).
type choiceDecider interface {
	DecideChoices(c env.Constraint) (*env.Decision, []int, error)
}

// policyDecider adapts a frozen policy snapshot to runtime.Decider.
type policyDecider struct{ p *policy.Policy }

// Decide implements runtime.Decider.
func (pd policyDecider) Decide(c env.Constraint) (*env.Decision, error) {
	d, _, err := pd.DecideChoices(c)
	return d, err
}

// DecideChoices implements choiceDecider.
func (pd policyDecider) DecideChoices(c env.Constraint) (*env.Decision, []int, error) {
	choices, err := pd.p.Greedy(c)
	if err != nil {
		return nil, nil, err
	}
	d, err := pd.p.Env.Decode(choices)
	if err != nil {
		return nil, nil, err
	}
	return d, choices, nil
}

func decideWithChoices(d runtime.Decider, c env.Constraint) (*env.Decision, []int, error) {
	if cd, ok := d.(choiceDecider); ok {
		return cd.DecideChoices(c)
	}
	dec, err := d.Decide(c)
	return dec, nil, err
}

// New creates a controller. The incumbent serves immediately; when Dir holds
// a manifest and a current checkpoint from a previous run, the last promoted
// policy is restored and serves instead of the configured one (crash
// recovery: a promotion, once durable, survives the process).
func New(cfg Config) (*Controller, error) {
	cfg = cfg.withDefaults()
	if cfg.Runtime == nil {
		return nil, fmt.Errorf("adapt: Config.Runtime is required")
	}
	if cfg.Incumbent == nil && cfg.Policy == nil {
		return nil, fmt.Errorf("adapt: need Config.Incumbent or Config.Policy")
	}
	ctl := &Controller{
		cfg:  cfg,
		rt:   cfg.Runtime,
		feed: NewFeed(cfg.FeedCap),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	incumbent := cfg.Incumbent
	if incumbent == nil {
		incumbent = policyDecider{p: cfg.Policy.Clone()}
	}
	rs := &routing{mode: ModeIncumbent, incumbent: incumbent}

	if cfg.Policy != nil {
		working := cfg.Policy.Clone()
		if cfg.Dir != "" {
			if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
				return nil, err
			}
			m, err := LoadManifest(ctl.manifestPath())
			switch {
			case err == nil:
				// Resume: the last durably promoted snapshot serves.
				restored := cfg.Policy.Clone()
				if lerr := nn.LoadParams(ctl.currentCkptPath(), restored.Params()); lerr == nil {
					rs.incumbent = policyDecider{p: restored}
					rs.incumbentVer = m.Current
					working = restored.Clone()
					ctl.version = m.Current
					ctl.lastGoodVer = m.LastGood
					ctl.promotions.Store(m.Promotions)
					ctl.rollbacks.Store(m.Rollbacks)
					ctl.rollbackStreak = int(m.RollbackStreak)
					ctl.pinned = m.Pinned
					cfg.Log("adapt: resumed policy v%d from %s (promotions=%d rollbacks=%d pinned=%v)",
						m.Current, cfg.Dir, m.Promotions, m.Rollbacks, m.Pinned)
				} else {
					cfg.Log("adapt: manifest present but checkpoint unusable (%v); serving frozen policy", lerr)
				}
			case os.IsNotExist(err):
				// Fresh directory: nothing to resume.
			default:
				cfg.Log("adapt: manifest unreadable (%v); serving frozen policy", err)
			}
		}
		opts := cfg.TrainOpts
		if opts.Steps == 0 && opts.TopN == 0 {
			opts = supreme.DefaultOptions()
		}
		ctl.trainer = supreme.New(working, cfg.Space, opts)
	}

	ctl.lastGood = rs.incumbent
	if ctl.lastGoodVer == 0 {
		ctl.lastGoodVer = rs.incumbentVer
	}
	ctl.routing.Store(rs)
	return ctl, nil
}

func (ctl *Controller) manifestPath() string {
	return filepath.Join(ctl.cfg.Dir, "adapt.manifest")
}

func (ctl *Controller) currentCkptPath() string {
	return filepath.Join(ctl.cfg.Dir, "policy_current.ckpt")
}

func (ctl *Controller) versionCkptPath(v uint64) string {
	return filepath.Join(ctl.cfg.Dir, fmt.Sprintf("policy_v%06d.ckpt", v))
}

// AttachGateway wires the controller to a gateway's outcome tap. Its
// counters ride the gateway's Stats while it is the runtime's decider.
func (ctl *Controller) AttachGateway(gw *serve.Gateway) {
	ctl.gw = gw
	gw.SetOutcomeTap(ctl.feed)
}

// Decide implements runtime.Decider.
func (ctl *Controller) Decide(c env.Constraint) (*env.Decision, error) {
	d, _, err := ctl.DecideMeta(c)
	return d, err
}

// DecideMeta implements runtime.MetaDecider: during canary, a CanaryFrac
// slice of decisions routes through the candidate (uncached, so the canary
// fraction stays honest — a cached canary decision would be replayed for the
// whole bucket); everything else is the incumbent. A candidate failure falls
// back to the incumbent rather than failing the request.
func (ctl *Controller) DecideMeta(c env.Constraint) (*env.Decision, runtime.DecisionMeta, error) {
	rs := ctl.routing.Load()
	if rs.mode == ModeCanary && rs.candidate != nil {
		if ctl.canaryCtr.Add(1)%1000 < rs.canaryPermille {
			d, choices, err := decideWithChoices(rs.candidate, c)
			if err == nil {
				return d, runtime.DecisionMeta{
					PolicyVersion: rs.candidateVer,
					Canary:        true,
					NoCache:       true,
					Choices:       choices,
				}, nil
			}
			ctl.cfg.Log("adapt: candidate v%d decide failed (%v); serving incumbent", rs.candidateVer, err)
		}
	}
	d, choices, err := decideWithChoices(rs.incumbent, c)
	return d, runtime.DecisionMeta{PolicyVersion: rs.incumbentVer, Choices: choices}, err
}

// PolicyVersion implements runtime.PolicyVersioner: cache hits belong to the
// incumbent, because canary decisions never enter the cache and the cache is
// cleared on every promotion and rollback.
func (ctl *Controller) PolicyVersion() uint64 {
	return ctl.routing.Load().incumbentVer
}

// AdaptStats implements serve.AdaptSource. Called under the gateway mutex —
// atomics only, no locks.
func (ctl *Controller) AdaptStats() serve.AdaptStats {
	return serve.AdaptStats{
		PolicyVersion: ctl.routing.Load().incumbentVer,
		ShadowScored:  ctl.shadowScored.Load(),
		Promotions:    ctl.promotions.Load(),
		Rollbacks:     ctl.rollbacks.Load(),
	}
}

// Mode returns the current rollout mode.
func (ctl *Controller) Mode() Mode { return ctl.routing.Load().mode }

// Pinned reports whether the circuit breaker has pinned the policy.
func (ctl *Controller) Pinned() bool {
	ctl.mu.Lock()
	defer ctl.mu.Unlock()
	return ctl.pinned
}

// Start launches the background adaptation loop.
func (ctl *Controller) Start() {
	go func() {
		defer close(ctl.done)
		t := time.NewTicker(ctl.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-ctl.stop:
				return
			case <-t.C:
				ctl.Tick(ctl.feed.Drain())
			}
		}
	}()
}

// Close stops the background loop and waits for it to exit.
func (ctl *Controller) Close() {
	select {
	case <-ctl.stop:
	default:
		close(ctl.stop)
	}
	<-ctl.done
}

// window summarizes one tick's drained events for the guardrails.
type window struct {
	total  int // admitted SLO-carrying outcomes (served+dropped+failed)
	met    int // of those, SLO met
	canary int // canary-served outcomes observed
	shed   int // SLO-carrying requests refused at admission
}

func (w window) attainment() float64 {
	if w.total == 0 {
		return 1
	}
	return float64(w.met) / float64(w.total)
}

// windowBad is the guardrail predicate for canary and probation windows: the
// observed attainment fell below the floor, or the window was shed-starved —
// SLO-carrying traffic was refused wholesale and nothing served at all. The
// second clause matters because a bad candidate can poison the gateway's
// batch-cost estimate until admission sheds the entire class: with no served
// outcomes the attainment clause alone would read the window as clean, the
// bad-window streak would keep resetting, and the canary would wedge forever
// behind its own damage.
func (ctl *Controller) windowBad(w window) bool {
	return (w.total > 0 && w.attainment() < ctl.cfg.RollbackSLO) ||
		(w.total == 0 && w.shed > 0)
}

// Tick runs one adaptation step over a batch of drained events: ingest live
// transitions, retrain on the observed constraint cells, score the shadow
// candidate, and evaluate the guarded state machine. The background loop
// calls it on the configured cadence; tests call it directly with synthetic
// events for deterministic control.
func (ctl *Controller) Tick(events []serve.OutcomeEvent) {
	w := ctl.observe(events)
	ctl.train(events)
	ctl.scoreShadow(events)
	ctl.advance(w)
}

// observe folds the window guardrail counters. Sheds are excluded from
// attainment — a shed is load refusal, not policy quality — but counted
// separately so windowBad can spot shed-starvation; best-effort traffic is
// excluded entirely, it carries no SLO to attain.
func (ctl *Controller) observe(events []serve.OutcomeEvent) window {
	var w window
	for _, ev := range events {
		if ev.Canary && ev.Kind == serve.KindServed {
			w.canary++
		}
		if ev.Class == serve.ClassBestEffort {
			continue
		}
		if ev.Kind == serve.KindShed {
			w.shed++
			continue
		}
		w.total++
		if ev.SLOMet {
			w.met++
		}
	}
	return w
}

// train ingests live transitions into the replay buffer and runs targeted
// SUPREME rounds on the constraint cells the gateway actually saw.
func (ctl *Controller) train(events []serve.OutcomeEvent) {
	if ctl.trainer == nil {
		return
	}
	seen := map[string]bool{}
	var cells []env.Constraint
	note := func(c env.Constraint) {
		if len(cells) >= maxCellsPerTick {
			return
		}
		k := fmt.Sprint(ctl.trainer.Buffer.KeyOf(c))
		if !seen[k] {
			seen[k] = true
			cells = append(cells, c)
		}
	}
	for _, ev := range events {
		switch ev.Kind {
		case serve.KindServed:
			note(ev.Constraint)
			if len(ev.Choices) > 0 {
				if _, err := ctl.trainer.IngestLive(ev.Constraint, ev.Choices, ev.LatencyMs); err != nil {
					ctl.cfg.Log("adapt: live ingest failed: %v", err)
				}
			}
		case serve.KindShed, serve.KindDropped, serve.KindFailed:
			// No resolved constraint on these events; reconstruct the cell
			// from the SLO and current link state so collapsed admission
			// still steers training at the live regime.
			note(ctl.rt.ConstraintFor(ev.SLO))
		}
	}
	if len(cells) == 0 {
		return
	}
	if err := ctl.trainer.TrainOn(cells, ctl.cfg.TrainRounds); err != nil {
		ctl.cfg.Log("adapt: retrain failed: %v", err)
	}
}

// scoreShadow scores the staged candidate against the incumbent on the
// constraints of live served requests — without serving a single candidate
// decision. Both sides are evaluated under the cost model (apples to
// apples); measured outcomes enter the loop through the replay buffer, not
// here.
func (ctl *Controller) scoreShadow(events []serve.OutcomeEvent) {
	rs := ctl.routing.Load()
	if rs.mode != ModeShadow || rs.candidate == nil || ctl.trainer == nil {
		return
	}
	e := ctl.trainer.Policy.Env
	scored, wins := 0, 0
	for _, ev := range events {
		if ev.Kind != serve.KindServed || scored >= maxShadowPerTick {
			continue
		}
		cd, err := rs.candidate.Decide(ev.Constraint)
		if err != nil {
			continue
		}
		id, err := rs.incumbent.Decide(ev.Constraint)
		if err != nil {
			continue
		}
		cOut, err := e.Evaluate(ev.Constraint, cd)
		if err != nil {
			continue
		}
		iOut, err := e.Evaluate(ev.Constraint, id)
		if err != nil {
			continue
		}
		scored++
		if cOut.SLOMet && (!iOut.SLOMet || cOut.Reward >= iOut.Reward) {
			wins++
		}
	}
	if scored == 0 {
		return
	}
	ctl.shadowScored.Add(uint64(scored))
	ctl.mu.Lock()
	ctl.shadowTotal += scored
	ctl.shadowWins += wins
	ctl.mu.Unlock()
}

// advance evaluates the guarded state machine for one window. All
// transitions happen here, under mu, and each transition installs a fresh
// routing snapshot.
func (ctl *Controller) advance(w window) {
	ctl.mu.Lock()
	defer ctl.mu.Unlock()
	if ctl.pinned {
		return
	}
	rs := ctl.routing.Load()
	switch rs.mode {
	case ModeIncumbent:
		if ctl.watchLeft > 0 {
			// Post-promotion probation: the freshly promoted policy must hold
			// attainment for RollbackWindows windows before it becomes the
			// new last-good.
			if ctl.windowBad(w) {
				ctl.badWindows++
			} else {
				ctl.badWindows = 0
			}
			if ctl.badWindows >= ctl.cfg.RollbackWindows {
				ctl.rollbackLocked(rs, "post-promotion attainment collapse")
				return
			}
			ctl.watchLeft--
			if ctl.watchLeft == 0 {
				ctl.lastGood, ctl.lastGoodVer = rs.incumbent, rs.incumbentVer
				ctl.rollbackStreak = 0
				ctl.saveManifestLocked(rs)
				ctl.cfg.Log("adapt: policy v%d settled as last-good", rs.incumbentVer)
			}
			return
		}
		ctl.stageCandidateLocked(rs)
	case ModeShadow:
		if ctl.shadowTotal < ctl.cfg.MinShadow {
			return
		}
		winFrac := float64(ctl.shadowWins) / float64(ctl.shadowTotal)
		if winFrac < ctl.cfg.ShadowWinFrac {
			// Candidate lost its shadow evaluation: discard it and stage a
			// fresh snapshot of the (since retrained) working policy.
			ctl.cfg.Log("adapt: candidate v%d lost shadow (%d/%d wins); restaging",
				rs.candidateVer, ctl.shadowWins, ctl.shadowTotal)
			ctl.stageCandidateLocked(rs)
			return
		}
		next := &routing{
			mode:           ModeCanary,
			incumbent:      rs.incumbent,
			incumbentVer:   rs.incumbentVer,
			candidate:      rs.candidate,
			candidateVer:   rs.candidateVer,
			canaryPermille: uint64(ctl.cfg.CanaryFrac * 1000),
		}
		if next.canaryPermille < 1 {
			next.canaryPermille = 1
		}
		ctl.routing.Store(next)
		ctl.canarySeen, ctl.badWindows = 0, 0
		ctl.cfg.Log("adapt: candidate v%d shadow %d/%d wins → canary at %.1f%%",
			rs.candidateVer, ctl.shadowWins, ctl.shadowTotal, float64(next.canaryPermille)/10)
	case ModeCanary:
		if ctl.windowBad(w) {
			ctl.badWindows++
		} else {
			ctl.badWindows = 0
		}
		if ctl.badWindows >= ctl.cfg.RollbackWindows {
			ctl.rollbackLocked(rs, "canary attainment collapse")
			return
		}
		ctl.canarySeen += w.canary
		if ctl.canarySeen >= ctl.cfg.MinCanary && ctl.badWindows == 0 {
			ctl.promoteLocked(rs)
		}
	}
}

// stageCandidateLocked snapshots the working policy as the next shadow
// candidate. Caller holds mu.
func (ctl *Controller) stageCandidateLocked(rs *routing) {
	if ctl.trainer == nil {
		return
	}
	ctl.version++
	cand := policyDecider{p: ctl.trainer.Policy.Clone()}
	ctl.routing.Store(&routing{
		mode:         ModeShadow,
		incumbent:    rs.incumbent,
		incumbentVer: rs.incumbentVer,
		candidate:    cand,
		candidateVer: ctl.version,
	})
	ctl.shadowWins, ctl.shadowTotal = 0, 0
	ctl.badWindows = 0
}

// promoteLocked makes the candidate the incumbent: hot-swap behind the
// atomic pointer, strategy cache invalidated, wait estimates reset (the
// decision regime just changed), snapshot and manifest persisted. The old
// incumbent stays last-good until the probation settles. Caller holds mu.
func (ctl *Controller) promoteLocked(rs *routing) {
	next := &routing{
		mode:         ModeIncumbent,
		incumbent:    rs.candidate,
		incumbentVer: rs.candidateVer,
	}
	ctl.routing.Store(next)
	ctl.promotions.Add(1)
	ctl.watchLeft = ctl.cfg.RollbackWindows
	ctl.badWindows = 0
	ctl.invalidateServing()
	ctl.persistLocked(next)
	ctl.cfg.Log("adapt: promoted policy v%d (canary %d outcomes clean)", next.incumbentVer, ctl.canarySeen)
}

// rollbackLocked abandons the candidate (canary rollback) or reverts to the
// last-good incumbent (post-promotion rollback). Two consecutive rollbacks
// trip the circuit breaker: the frozen last-good policy is pinned and no
// further candidates are staged. Caller holds mu.
func (ctl *Controller) rollbackLocked(rs *routing, reason string) {
	next := &routing{
		mode:         ModeIncumbent,
		incumbent:    ctl.lastGood,
		incumbentVer: ctl.lastGoodVer,
	}
	ctl.routing.Store(next)
	ctl.rollbacks.Add(1)
	ctl.rollbackStreak++
	ctl.badWindows = 0
	ctl.watchLeft = 0
	ctl.canarySeen = 0
	if ctl.rollbackStreak >= ctl.cfg.MaxRollbacks {
		ctl.pinned = true
	}
	// Unlearn the bad direction: reset the working policy to the last-good
	// parameters, so the next candidate does not restage the same regression.
	if ctl.trainer != nil {
		if pd, ok := ctl.lastGood.(policyDecider); ok {
			src, dst := pd.p.Params(), ctl.trainer.Policy.Params()
			for i := range src {
				copy(dst[i].W.Data, src[i].W.Data)
			}
		}
	}
	ctl.invalidateServing()
	ctl.persistLocked(next)
	ctl.cfg.Log("adapt: rolled back to policy v%d (%s; streak %d, pinned %v)",
		next.incumbentVer, reason, ctl.rollbackStreak, ctl.pinned)
}

// invalidateServing clears state learned under the previous decision regime:
// cached strategies (attributed to the wrong policy version) and the
// gateway's queue-wait estimates (batch cost just changed).
func (ctl *Controller) invalidateServing() {
	ctl.rt.InvalidateStrategies()
	if ctl.gw != nil {
		ctl.gw.ResetWaitEstimates()
	}
}

// persistLocked writes the incumbent's checkpoint (versioned + current) and
// the manifest. Checkpoint first, manifest last: a manifest never references
// a snapshot that is not already durable. Caller holds mu.
func (ctl *Controller) persistLocked(rs *routing) {
	if ctl.cfg.Dir == "" {
		return
	}
	if pd, ok := rs.incumbent.(policyDecider); ok {
		params := pd.p.Params()
		if err := nn.SaveParams(ctl.versionCkptPath(rs.incumbentVer), params); err != nil {
			ctl.cfg.Log("adapt: snapshot v%d save failed: %v", rs.incumbentVer, err)
			return
		}
		if err := nn.SaveParams(ctl.currentCkptPath(), params); err != nil {
			ctl.cfg.Log("adapt: current snapshot save failed: %v", err)
			return
		}
	}
	ctl.saveManifestLocked(rs)
}

func (ctl *Controller) saveManifestLocked(rs *routing) {
	if ctl.cfg.Dir == "" {
		return
	}
	m := Manifest{
		Current:        rs.incumbentVer,
		LastGood:       ctl.lastGoodVer,
		Promotions:     ctl.promotions.Load(),
		Rollbacks:      ctl.rollbacks.Load(),
		RollbackStreak: uint8(min(ctl.rollbackStreak, 255)),
		Pinned:         ctl.pinned,
	}
	if err := SaveManifest(ctl.manifestPath(), m); err != nil {
		ctl.cfg.Log("adapt: manifest save failed: %v", err)
	}
}

// ForceCandidate stages an explicit decider as the shadow candidate — a test
// hook for injecting known-good or known-bad candidates.
func (ctl *Controller) ForceCandidate(d runtime.Decider) uint64 {
	ctl.mu.Lock()
	defer ctl.mu.Unlock()
	rs := ctl.routing.Load()
	ctl.version++
	ctl.routing.Store(&routing{
		mode:         ModeShadow,
		incumbent:    rs.incumbent,
		incumbentVer: rs.incumbentVer,
		candidate:    d,
		candidateVer: ctl.version,
	})
	ctl.shadowWins, ctl.shadowTotal = 0, 0
	ctl.badWindows = 0
	return ctl.version
}

// ForceCanary advances the staged candidate to canary immediately, skipping
// the shadow gate. No-op without a candidate.
func (ctl *Controller) ForceCanary() {
	ctl.mu.Lock()
	defer ctl.mu.Unlock()
	rs := ctl.routing.Load()
	if rs.candidate == nil {
		return
	}
	permille := uint64(ctl.cfg.CanaryFrac * 1000)
	if permille < 1 {
		permille = 1
	}
	ctl.routing.Store(&routing{
		mode:           ModeCanary,
		incumbent:      rs.incumbent,
		incumbentVer:   rs.incumbentVer,
		candidate:      rs.candidate,
		candidateVer:   rs.candidateVer,
		canaryPermille: permille,
	})
	ctl.canarySeen, ctl.badWindows = 0, 0
}

// ForcePromote promotes the staged candidate immediately. No-op without a
// candidate or when pinned.
func (ctl *Controller) ForcePromote() {
	ctl.mu.Lock()
	defer ctl.mu.Unlock()
	rs := ctl.routing.Load()
	if rs.candidate == nil || ctl.pinned {
		return
	}
	ctl.promoteLocked(rs)
}

// ForceRollback triggers an immediate rollback, abandoning any candidate and
// reverting to last-good.
func (ctl *Controller) ForceRollback(reason string) {
	ctl.mu.Lock()
	defer ctl.mu.Unlock()
	ctl.rollbackLocked(ctl.routing.Load(), reason)
}
