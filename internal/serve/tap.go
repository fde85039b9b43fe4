package serve

import (
	"murmuration/internal/rl/env"
	"murmuration/internal/runtime"
)

// OutcomeKind classifies a tapped request outcome.
type OutcomeKind int

// Outcome kinds, mirroring the ledger buckets: every admitted request ends as
// exactly one of Served/Dropped/Failed; Shed requests were never admitted but
// still signal demand the adaptation loop must see — during an admission
// collapse the Decide path starves, and sheds are the only evidence left.
const (
	KindServed OutcomeKind = iota
	KindDropped
	KindFailed
	KindShed
)

// String names the kind for logs.
func (k OutcomeKind) String() string {
	switch k {
	case KindServed:
		return "served"
	case KindDropped:
		return "dropped"
	case KindFailed:
		return "failed"
	case KindShed:
		return "shed"
	}
	return "unknown"
}

// OutcomeEvent is one tapped request outcome: what the gateway decided, which
// policy version decided it, and how it went on the wire. Served events carry
// the resolved constraint, measured latency, and (on fresh decodes) the
// policy's raw choice sequence; shed/dropped/failed events carry the SLO and
// class only.
type OutcomeEvent struct {
	Kind  OutcomeKind
	Class Class
	SLO   runtime.SLO
	// Constraint is the (goal, task) pair the strategy was resolved under.
	// Valid for served events; zero otherwise.
	Constraint env.Constraint
	// Rung is the degradation-ladder rung the request executed at.
	Rung int
	// PolicyVersion / Canary attribute the serving decision (see
	// runtime.DecisionMeta).
	PolicyVersion uint64
	Canary        bool
	// LatencyMs is the end-to-end latency (admission to delivery) of a served
	// request.
	LatencyMs float64
	// SLOMet is the attainment verdict recorded in the class ledger.
	SLOMet bool
	// Choices is the policy action sequence behind the decision, when the
	// resolution was a fresh decode from a choice-exposing decider (nil on
	// cache hits). It lets the adaptation loop insert the measured transition
	// into the replay buffer directly.
	Choices []int
}

// OutcomeTap receives tapped events. Offer MUST be non-blocking and must not
// call back into the gateway: it runs on the serving hot path, sometimes under
// the gateway mutex. Implementations that cannot keep up must drop events
// (the adaptation feed drops oldest-first).
type OutcomeTap interface {
	Offer(OutcomeEvent)
}

// AdaptStats is the adaptation controller's counter snapshot folded into the
// gateway's Stats (wire v7).
type AdaptStats struct {
	// PolicyVersion is the serving (incumbent) policy version — a gauge.
	PolicyVersion uint64
	// ShadowScored counts candidate decisions scored in shadow against live
	// outcomes.
	ShadowScored uint64
	// Promotions / Rollbacks count rollout state-machine transitions to full
	// and back to last-good.
	Promotions uint64
	Rollbacks  uint64
}

// AdaptSource exposes an adaptation controller's counters to the gateway:
// when the runtime's decider is one, its counters ride Stats.
type AdaptSource interface {
	AdaptStats() AdaptStats
}

// SetOutcomeTap installs (or, with nil, removes) the outcome tap. Safe to
// call while serving; events emitted concurrently with the swap may go to
// either tap.
func (g *Gateway) SetOutcomeTap(t OutcomeTap) {
	g.mu.Lock()
	g.tap = t
	g.mu.Unlock()
}

// offerLocked emits an event to the installed tap. Caller holds g.mu; the
// tap's non-blocking contract keeps the critical section bounded.
func (g *Gateway) offerLocked(ev OutcomeEvent) {
	if g.tap != nil {
		g.tap.Offer(ev)
	}
}
