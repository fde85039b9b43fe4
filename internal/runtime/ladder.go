package runtime

import (
	"sync"
	"time"

	"murmuration/internal/rl/env"
	"murmuration/internal/supernet"
	"murmuration/internal/tensor"
)

// Degradation-ladder tuning. The ladder is the serving layer's "degrade,
// don't drop" mechanism: when the remaining deadline budget is below what the
// current strategy is observed to cost, execution steps down a rung — a
// cheaper variant of the same decision — instead of dropping the request.
const (
	// DefaultMaxRung is the deepest rung the ladder may descend to:
	// rung 0 executes the resolved decision unchanged, rung 1 lowers input
	// resolution one step, rung 2 also coarsens quantization one step, and
	// rung 3 additionally collapses to a single local tile (no remote hops).
	DefaultMaxRung = 3
	// DefaultLadderHysteresis is how many consecutive comfortable
	// completions at a rung are required before climbing one rung back up.
	DefaultLadderHysteresis = 8
	// ladderComfortFrac: a completion is "comfortable" when it used at most
	// this fraction of its budget. Climbing only on comfortable completions
	// keeps the ladder from flapping right at the deadline boundary.
	ladderComfortFrac = 0.25
	// ladderDiscount extrapolates an unknown rung's cost from the nearest
	// measured rung above it (each rung down is assumed to cost this
	// fraction of the rung above).
	ladderDiscount = 0.6
	// ladderAlpha is the EMA weight of a fresh per-rung cost observation.
	ladderAlpha = 0.3
	// ladderMissInflation scales the elapsed time of a budget miss before
	// folding it into the rung's estimate, so one miss decisively pushes the
	// estimate past the budget that produced it.
	ladderMissInflation = 1.5
)

// LadderCounters is a snapshot of ladder activity.
type LadderCounters struct {
	// Rung is the current operating rung (0 = full quality).
	Rung int
	// Degradations counts descent events; Promotions counts hysteresis
	// climbs back toward rung 0.
	Degradations uint64
	Promotions   uint64
}

// Ladder tracks the current degradation rung and per-rung cost estimates,
// descending immediately under deadline pressure and climbing back only
// after K consecutive comfortable completions (hysteresis). It is safe for
// concurrent use by workers and admission.
type Ladder struct {
	mu sync.Mutex
	// rung is the current operating point, 0..maxRung.
	rung    int
	maxRung int
	// hysteresis is K, the comfortable-completion streak needed to promote.
	hysteresis int
	streak     int
	// estSec[r] is the EMA of observed batch-execution cost at rung r
	// (seconds); 0 means no observation yet.
	estSec       []float64
	degradations uint64
	promotions   uint64
}

// NewLadder creates a ladder. maxRung 0 selects DefaultMaxRung and is
// clamped to [0, DefaultMaxRung]; negative maxRung disables degradation
// entirely (the ladder stays pinned at rung 0). hysteresis <= 0 selects
// DefaultLadderHysteresis.
func NewLadder(maxRung, hysteresis int) *Ladder {
	switch {
	case maxRung < 0:
		maxRung = 0
	case maxRung == 0:
		maxRung = DefaultMaxRung
	case maxRung > DefaultMaxRung:
		maxRung = DefaultMaxRung
	}
	if hysteresis <= 0 {
		hysteresis = DefaultLadderHysteresis
	}
	return &Ladder{
		maxRung:    maxRung,
		hysteresis: hysteresis,
		estSec:     make([]float64, DefaultMaxRung+1),
	}
}

// Rung returns the current operating rung.
func (l *Ladder) Rung() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rung
}

// MaxRung returns the deepest rung this ladder may descend to.
func (l *Ladder) MaxRung() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.maxRung
}

// Counters returns a snapshot of ladder activity.
func (l *Ladder) Counters() LadderCounters {
	l.mu.Lock()
	defer l.mu.Unlock()
	return LadderCounters{Rung: l.rung, Degradations: l.degradations, Promotions: l.promotions}
}

// estAtLocked estimates the cost of executing at rung r: the measured EMA
// when one exists, otherwise the nearest measured rung above extrapolated
// down by ladderDiscount per rung, otherwise 0 (optimistic — an unmeasured
// ladder never blocks execution; the first batch probes it).
func (l *Ladder) estAtLocked(r int) float64 {
	if l.estSec[r] > 0 {
		return l.estSec[r]
	}
	for above := r - 1; above >= 0; above-- {
		if l.estSec[above] > 0 {
			est := l.estSec[above]
			for k := above; k < r; k++ {
				est *= ladderDiscount
			}
			return est
		}
	}
	return 0
}

// Plan picks the rung the next batch should execute at given its remaining
// deadline budget: starting from the current rung, it descends while the
// rung's estimated cost exceeds the budget. Descent takes effect immediately
// (the ladder's rung moves down with the plan); climbing back happens only
// through Observe's hysteresis. remaining <= 0 (no deadline) plans the
// current rung unchanged.
func (l *Ladder) Plan(remaining time.Duration) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if remaining <= 0 {
		return l.rung
	}
	budget := remaining.Seconds()
	r := l.rung
	for r < l.maxRung {
		// The current rung is judged by its *measured* estimate only: a
		// promotion clears the target's estimate precisely so the next batch
		// probes it fresh, and extrapolating from a stale, spike-era
		// higher-rung estimate here would cancel every probe and pin the
		// ladder down after conditions recover.
		var est float64
		if r == l.rung {
			est = l.estSec[r]
		} else {
			est = l.estAtLocked(r)
		}
		if est == 0 || est <= budget {
			break
		}
		r++
	}
	if r > l.rung {
		l.rung = r
		l.streak = 0
		l.degradations++
	}
	return r
}

// Observe folds a successful batch completion at rung into the cost
// estimate and advances the hysteresis streak: after K consecutive
// comfortable completions (elapsed <= ladderComfortFrac of budget) at the
// current rung, the ladder promotes one rung toward full quality. The
// promotion target's estimate is cleared so the next batch probes the rung
// fresh instead of trusting a stale spike-era estimate.
func (l *Ladder) Observe(rung int, elapsed, budget time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.foldLocked(rung, elapsed.Seconds())
	if rung != l.rung || l.rung == 0 {
		return
	}
	if budget > 0 && elapsed.Seconds() > ladderComfortFrac*budget.Seconds() {
		l.streak = 0
		return
	}
	l.streak++
	if l.streak >= l.hysteresis {
		l.rung--
		l.streak = 0
		l.promotions++
		l.estSec[l.rung] = 0
	}
}

// ObserveMiss records a budget exhaustion at rung: the elapsed time is
// inflated and folded into the rung's estimate so the next Plan sees the
// rung as decisively over budget, and the comfort streak resets.
func (l *Ladder) ObserveMiss(rung int, elapsed time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	v := elapsed.Seconds() * ladderMissInflation
	l.foldLocked(rung, v)
	// A miss can under-report cost (we gave up early); never let the fold
	// leave the estimate below the inflated observation.
	if l.estSec[rung] < v {
		l.estSec[rung] = v
	}
	l.streak = 0
}

// foldLocked merges one cost observation (seconds) into the rung's EMA.
func (l *Ladder) foldLocked(rung int, sec float64) {
	if rung < 0 || rung >= len(l.estSec) || sec <= 0 {
		return
	}
	if l.estSec[rung] == 0 {
		l.estSec[rung] = sec
		return
	}
	l.estSec[rung] = (1-ladderAlpha)*l.estSec[rung] + ladderAlpha*sec
}

// MinEstimate returns the estimated cost of the cheapest rung this ladder
// may descend to (0 when unmeasured — optimistic). Admission uses it as the
// execution-time component of its wait estimate: a request is only
// unattainable if not even the most degraded rung could meet its deadline.
func (l *Ladder) MinEstimate() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	return time.Duration(l.estAtLocked(l.maxRung) * float64(time.Second))
}

// DegradeDecision returns a copy of decision d degraded to the given rung:
//
//	rung 0: unchanged
//	rung 1: input resolution one step down in the arch's resolution set
//	rung 2: rung 1 + every layer's quantization one step coarser
//	rung 3: rung 2 + single-tile all-local placement (no remote hops)
//
// Steps that cannot apply (already at the space's minimum) are no-ops, so a
// deeper rung is always at least as cheap as a shallower one. The input
// decision is never mutated — cached decisions are shared. If degradation
// somehow produces an invalid config the original decision is returned.
func (r *Runtime) DegradeDecision(d *env.Decision, rung int) *env.Decision {
	if rung <= 0 || d == nil || d.Config == nil {
		return d
	}
	arch := r.Scheduler.Local.Arch
	cfg := d.Config.Clone()

	if rung >= 1 {
		cfg.Resolution = stepDownInt(arch.Resolutions, cfg.Resolution)
	}
	if rung >= 2 {
		for i := range cfg.Layers {
			cfg.Layers[i].Quant = stepDownBits(arch.QuantBits, cfg.Layers[i].Quant)
		}
	}
	placement := d.Placement
	if rung >= 3 {
		for i := range cfg.Layers {
			cfg.Layers[i].Partition = supernet.Partition{Gy: 1, Gx: 1}
		}
		rows := make([][]int, len(cfg.Layers))
		for i := range rows {
			rows[i] = []int{0}
		}
		placement = &supernet.Placement{Devices: rows}
	}
	if err := arch.Validate(cfg); err != nil {
		return d
	}
	return &env.Decision{Config: cfg, Placement: placement}
}

// stepDownInt returns the largest value in space strictly below v, or v when
// none exists (v is already the minimum or not in the space).
func stepDownInt(space []int, v int) int {
	best, found := v, false
	for _, s := range space {
		if s < v && (!found || s > best) {
			best, found = s, true
		}
	}
	if found {
		return best
	}
	return v
}

// stepDownBits returns the coarsest bitwidth in space strictly below b, or b
// when none exists.
func stepDownBits(space []tensor.Bitwidth, b tensor.Bitwidth) tensor.Bitwidth {
	best, found := b, false
	for _, s := range space {
		if s < b && (!found || s > best) {
			best, found = s, true
		}
	}
	if found {
		return best
	}
	return b
}
