package scenario

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"murmuration/internal/fault"
	"murmuration/internal/runtime"
	"murmuration/internal/serve"
)

// Scorer accumulates per-request outcomes into a per-class SLO attainment
// report. It is safe for concurrent use — the runner records from one
// goroutine per in-flight request.
type Scorer struct {
	mu      sync.Mutex
	classes [serve.NumClasses]classAgg
	rungs   map[int]uint64
}

type classAgg struct {
	requests        uint64
	served          uint64
	onTime          uint64
	late            uint64
	shed            uint64
	deadlineDropped uint64
	budgetExhausted uint64
	overloaded      uint64
	failed          uint64
	latencies       []time.Duration // served requests only
}

// NewScorer returns an empty scorer.
func NewScorer() *Scorer {
	return &Scorer{rungs: make(map[int]uint64)}
}

// Record folds in one finished request: its SLO (bucketed exactly the way
// gateway admission buckets it), the degradation rung it served at (negative
// = unknown, e.g. over the wire), the wall latency the client observed, and
// the outcome error (nil = served).
func (s *Scorer) Record(slo runtime.SLO, rung int, latency time.Duration, err error) {
	class := serve.ClassFor(slo)
	s.mu.Lock()
	defer s.mu.Unlock()
	agg := &s.classes[class]
	agg.requests++
	if err == nil {
		agg.served++
		agg.latencies = append(agg.latencies, latency)
		if rung >= 0 {
			s.rungs[rung]++
		}
		// A latency-SLO request only attains its SLO when the answer came
		// back within the budget the client asked for.
		if class == serve.ClassLatency &&
			latency > time.Duration(slo.Value*float64(time.Millisecond)) {
			agg.late++
		} else {
			agg.onTime++
		}
		return
	}
	// The column is the ledger bucket of the error's fault class, which
	// crossed the wire as a code: a refusal is a miss, never a failure.
	switch fault.Of(err).Policy().Bucket {
	case fault.BucketOverloaded:
		agg.overloaded++
	case fault.BucketBudgetExhausted:
		agg.budgetExhausted++
	case fault.BucketDeadlineMissed:
		agg.deadlineDropped++
	case fault.BucketShed:
		agg.shed++
	default:
		agg.failed++
	}
}

// ClassReport is one service class's slice of a Report.
type ClassReport struct {
	Class           string  `json:"class"`
	Requests        uint64  `json:"requests"`
	Served          uint64  `json:"served"`
	OnTime          uint64  `json:"on_time"`
	Late            uint64  `json:"late"`
	Shed            uint64  `json:"shed"`
	DeadlineDropped uint64  `json:"deadline_dropped"`
	BudgetExhausted uint64  `json:"budget_exhausted"`
	Overloaded      uint64  `json:"overloaded"`
	Failed          uint64  `json:"failed"`
	Attainment      float64 `json:"attainment"`
	P50Ms           float64 `json:"p50_ms"`
	P95Ms           float64 `json:"p95_ms"`
	P99Ms           float64 `json:"p99_ms"`
}

// RungCount is one bar of the degradation-rung histogram.
type RungCount struct {
	Rung     int    `json:"rung"`
	Requests uint64 `json:"requests"`
}

// ClassAttainment is the gateway-side attainment for one class, computed
// from the v6 per-class counters on the stats wire.
type ClassAttainment struct {
	Class      string  `json:"class"`
	Met        uint64  `json:"met"`
	Missed     uint64  `json:"missed"`
	Attainment float64 `json:"attainment"`
}

// GatewayReport is the gateway-side counter delta over a scenario run.
type GatewayReport struct {
	Admitted         uint64 `json:"admitted"`
	Served           uint64 `json:"served"`
	Shed             uint64 `json:"shed"`
	Dropped          uint64 `json:"dropped"`
	Failed           uint64 `json:"failed"`
	DeadlineMissed   uint64 `json:"deadline_missed"`
	Degraded         uint64 `json:"degraded"`
	BudgetExhausted  uint64 `json:"budget_exhausted"`
	Overloads        uint64 `json:"overloads"`
	FailoverAttempts uint64 `json:"failover_attempts"`
	Failovers        uint64 `json:"failovers"`
	Batches          uint64 `json:"batches"`
	BatchedRequests  uint64 `json:"batched_requests"`
	// PolicyVersion is the serving policy version at the end of the run (a
	// gauge, not a delta); the four counters below attribute the adaptation
	// controller's rollout activity during the run (wire v7).
	PolicyVersion   uint64            `json:"policy_version"`
	ShadowScored    uint64            `json:"shadow_scored"`
	CanaryServed    uint64            `json:"canary_served"`
	Promotions      uint64            `json:"promotions"`
	Rollbacks       uint64            `json:"rollbacks"`
	ClassAttainment []ClassAttainment `json:"class_attainment"`
}

// GatewayDelta subtracts two stats snapshots (taken before and after a run)
// into the gateway-side section of a Report, including per-class attainment
// read straight off the v6 counters — no client-side bookkeeping.
func GatewayDelta(before, after serve.Stats) *GatewayReport {
	g := &GatewayReport{
		Admitted:         after.Admitted - before.Admitted,
		Served:           after.Served - before.Served,
		Shed:             after.Shed - before.Shed,
		Dropped:          after.Dropped - before.Dropped,
		Failed:           after.Failed - before.Failed,
		DeadlineMissed:   after.DeadlineMissed - before.DeadlineMissed,
		Degraded:         after.Degraded - before.Degraded,
		BudgetExhausted:  after.BudgetExhausted - before.BudgetExhausted,
		Overloads:        after.Overloads - before.Overloads,
		FailoverAttempts: after.FailoverAttempts - before.FailoverAttempts,
		Failovers:        after.Failovers - before.Failovers,
		Batches:          after.Batches - before.Batches,
		BatchedRequests:  after.BatchedRequests - before.BatchedRequests,
		PolicyVersion:    after.PolicyVersion,
		ShadowScored:     after.ShadowScored - before.ShadowScored,
		CanaryServed:     after.CanaryServed - before.CanaryServed,
		Promotions:       after.Promotions - before.Promotions,
		Rollbacks:        after.Rollbacks - before.Rollbacks,
	}
	for c := 0; c < serve.NumClasses; c++ {
		met := after.ClassMet[c] - before.ClassMet[c]
		missed := after.ClassMissed[c] - before.ClassMissed[c]
		att := 1.0
		if met+missed > 0 {
			att = float64(met) / float64(met+missed)
		}
		g.ClassAttainment = append(g.ClassAttainment, ClassAttainment{
			Class: serve.Class(c).String(), Met: met, Missed: missed, Attainment: att,
		})
	}
	return g
}

// Report is the machine-readable verdict of one scenario run.
type Report struct {
	Scenario string `json:"scenario"`
	// StatsWireVersion / PolicyVersion are the report header: which stats
	// frame version the gateway spoke and which policy version was serving
	// when the run ended. Set by clients that read them off the wire (the
	// load generator); zero when unknown.
	StatsWireVersion int            `json:"stats_wire_version,omitempty"`
	PolicyVersion    uint64         `json:"policy_version,omitempty"`
	Requests         uint64         `json:"requests"`
	Classes          []ClassReport  `json:"classes"`
	Rungs            []RungCount    `json:"rungs"`
	Gateway          *GatewayReport `json:"gateway,omitempty"`
}

// Report snapshots the scorer into a report. gw may be nil when no gateway
// stats delta is available (e.g. a client that could not reach the stats
// endpoint).
func (s *Scorer) Report(scenario string, gw *GatewayReport) *Report {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := &Report{Scenario: scenario, Gateway: gw}
	for c := 0; c < serve.NumClasses; c++ {
		agg := &s.classes[c]
		r.Requests += agg.requests
		cr := ClassReport{
			Class:           serve.Class(c).String(),
			Requests:        agg.requests,
			Served:          agg.served,
			OnTime:          agg.onTime,
			Late:            agg.late,
			Shed:            agg.shed,
			DeadlineDropped: agg.deadlineDropped,
			BudgetExhausted: agg.budgetExhausted,
			Overloaded:      agg.overloaded,
			Failed:          agg.failed,
			Attainment:      attainment(serve.Class(c), agg),
		}
		if len(agg.latencies) > 0 {
			sorted := append([]time.Duration(nil), agg.latencies...)
			sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
			cr.P50Ms = percentileMs(sorted, 0.50)
			cr.P95Ms = percentileMs(sorted, 0.95)
			cr.P99Ms = percentileMs(sorted, 0.99)
		}
		r.Classes = append(r.Classes, cr)
	}
	for rung, n := range s.rungs {
		r.Rungs = append(r.Rungs, RungCount{Rung: rung, Requests: n})
	}
	sort.Slice(r.Rungs, func(i, j int) bool { return r.Rungs[i].Rung < r.Rungs[j].Rung })
	return r
}

// attainment defines per-class SLO attainment: the latency class must answer
// within each request's own deadline; the accuracy and best-effort classes
// attain by being served at all (their quality constraint is enforced by
// strategy resolution, not by the clock). A class with no traffic attains
// vacuously.
func attainment(c serve.Class, agg *classAgg) float64 {
	if agg.requests == 0 {
		return 1
	}
	if c == serve.ClassLatency {
		return float64(agg.onTime) / float64(agg.requests)
	}
	return float64(agg.served) / float64(agg.requests)
}

func percentileMs(sorted []time.Duration, q float64) float64 {
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return float64(sorted[idx]) / float64(time.Millisecond)
}

// Attainment returns the client-observed attainment for a class name
// ("latency", "accuracy", "best-effort"), 1.0 for an unknown or empty class.
func (r *Report) Attainment(class string) float64 {
	for _, c := range r.Classes {
		if c.Class == class {
			if c.Requests == 0 {
				return 1
			}
			return c.Attainment
		}
	}
	return 1
}

// Thresholds maps class name → minimum required attainment.
type Thresholds map[string]float64

// Check verifies every threshold against the client-observed attainment and
// returns one error naming all violations (nil when every class passes).
func (r *Report) Check(t Thresholds) error {
	var violations []string
	names := make([]string, 0, len(t))
	for name := range t {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if got := r.Attainment(name); got < t[name] {
			violations = append(violations,
				fmt.Sprintf("%s attainment %.3f < %.3f", name, got, t[name]))
		}
	}
	if len(violations) > 0 {
		return fmt.Errorf("scenario %q: %s", r.Scenario, strings.Join(violations, "; "))
	}
	return nil
}

// JSON renders the report for files and CI artifacts.
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}
