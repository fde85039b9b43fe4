package serve

import (
	"errors"
	"fmt"
	goruntime "runtime"
	"slices"
	"time"

	"murmuration/internal/fault"
	"murmuration/internal/rpcx"
	"murmuration/internal/runtime"
	"murmuration/internal/tensor"
)

// worker is one executor loop: form a batch, run it, repeat until the
// gateway is closed and drained.
func (g *Gateway) worker() {
	for {
		batch := g.nextBatch()
		if batch == nil {
			return
		}
		g.executeProtected(batch)
	}
}

// panicStackCap bounds the stack capture attached to a recovered worker
// panic's error.
const panicStackCap = 4096

// executeProtected runs one batch with panic isolation: a panic anywhere in
// resolution, degradation, or execution fails that batch — every request
// gets a typed error — and the worker loop survives to take the next batch.
// Delivery is idempotent, so a panic after some outcomes were already sent
// fails only the requests still waiting.
func (g *Gateway) executeProtected(batch []*request) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		stack := make([]byte, panicStackCap)
		stack = stack[:goruntime.Stack(stack, false)]
		g.mu.Lock()
		g.stats.Panics++
		g.mu.Unlock()
		g.finishError(batch, fault.New(fault.Request,
			fmt.Sprintf("serve: batch execution panicked: %v\n%s", r, stack)))
	}()
	g.execute(batch)
}

// nextBatch blocks until work is available and returns a batch of
// compatible requests (same class and strategy key), or nil when the
// gateway is closed and fully drained. After taking a head request it
// lingers up to MaxLinger for the batch to fill, but never past the point
// where a latency-SLO head could still make its deadline — and only when
// no other worker is lingering on a head it batches with. That worker
// already collects every compatible arrival, so a second linger on the key
// catches nothing and only delays its own head: the batch runs at once.
func (g *Gateway) nextBatch() []*request {
	g.mu.Lock()
	var head *request
	for {
		head = g.popHead(time.Now())
		if head != nil {
			break
		}
		if g.closing {
			g.mu.Unlock()
			return nil
		}
		g.cond.Wait()
	}
	batch := append([]*request{head},
		g.collectCompatible(head, g.opts.MaxBatch-1, time.Now())...)
	if len(batch) < g.opts.MaxBatch && !slices.ContainsFunc(g.lingering, head.batchesWith) {
		g.lingering = append(g.lingering, head)
		lingerEnd := time.Now().Add(g.opts.MaxLinger)
		if head.class == ClassLatency {
			// Leave one estimated batch execution of slack before the
			// head's deadline.
			slackEnd := head.deadline.Add(-time.Duration(g.emaBatchSec[head.class] * float64(time.Second)))
			if slackEnd.Before(lingerEnd) {
				lingerEnd = slackEnd
			}
		}
		for len(batch) < g.opts.MaxBatch && !g.closing {
			now := time.Now()
			if !now.Before(lingerEnd) {
				break
			}
			timer := time.AfterFunc(lingerEnd.Sub(now), g.wake)
			g.cond.Wait()
			timer.Stop()
			batch = append(batch,
				g.collectCompatible(head, g.opts.MaxBatch-len(batch), time.Now())...)
		}
		// Every exit from the loop (batch full, linger over, closing) lands
		// here with mu held.
		i := slices.Index(g.lingering, head)
		g.lingering = slices.Delete(g.lingering, i, i+1)
	}
	g.mu.Unlock()
	return batch
}

// batchDeadline returns the tightest deadline across the batch (zero when
// no request carries one — non-latency classes).
func batchDeadline(batch []*request) time.Time {
	var d time.Time
	for _, r := range batch {
		if r.deadline.IsZero() {
			continue
		}
		if d.IsZero() || r.deadline.Before(d) {
			d = r.deadline
		}
	}
	return d
}

// execute resolves the batch's strategy once, consults the degradation
// ladder against the batch's remaining deadline budget, runs the batched
// inference under that budget, and delivers per-request outcomes.
//
// What an execution error means is read from the fault policy table
// (internal/fault, DESIGN.md §13.4): runBatch applies the row's demotion and
// retry-once, and the row's ledger bucket decides below whether the batch is
// dropped as a typed refusal or counted Failed. The one class with a recovery
// of its own is budget exhaustion: it feeds the ladder so the next batch
// plans a cheaper rung, and buys this batch one deeper attempt.
func (g *Gateway) execute(batch []*request) {
	start := time.Now()
	deadline := batchDeadline(batch)

	// Queue wait and batch formation already happened on the clock: the
	// budget we plan against is what is left now, not the original SLO.
	var remaining time.Duration
	if !deadline.IsZero() {
		remaining = time.Until(deadline)
		if remaining <= 0 {
			g.dropBatch(batch, ErrDeadlineMissed)
			return
		}
	}

	res, err := g.rt.ResolveFor(batch[0].slo)
	if err != nil {
		g.finishError(batch, err)
		return
	}
	rung := g.ladder.Plan(remaining)

	xs := make([]*tensor.Tensor, len(batch))
	for i, r := range batch {
		xs[i] = r.x
	}
	attemptStart := time.Now()
	var outs []*tensor.Tensor
	outs, res, err = g.runBatch(xs, res, batch[0].slo, rung, deadline)
	if fault.Of(err) == fault.BudgetExhausted {
		// The budget ran out mid-attempt: teach the ladder this rung is over
		// budget, then spend whatever budget is left on one deeper attempt —
		// runBatch capped the failed attempt below the full budget precisely
		// to keep this fallback affordable. A promotion probe that hits a
		// still-degraded network therefore costs latency, not the request.
		g.ladder.ObserveMiss(rung, time.Since(attemptStart))
		if left := time.Until(deadline); !deadline.IsZero() && left > 5*time.Millisecond {
			if deeper := g.ladder.Plan(left); deeper > rung {
				rung = deeper
				attemptStart = time.Now()
				outs, res, err = g.runBatch(xs, res, batch[0].slo, rung, deadline)
				if fault.Of(err) == fault.BudgetExhausted {
					g.ladder.ObserveMiss(rung, time.Since(attemptStart))
				}
			}
		}
	}
	execTime := time.Since(start)
	if err != nil {
		switch fault.Of(err).Policy().Bucket {
		case fault.BucketBudgetExhausted:
			// Even the fallback ran out of time: drop the batch as missed,
			// not failed — the system refused to be late rather than
			// malfunctioning.
			g.mu.Lock()
			g.stats.BudgetExhausted += uint64(len(batch))
			g.mu.Unlock()
			g.dropBatch(batch, err)
		case fault.BucketOverloaded:
			// A refusal under load — the per-device limiter or a daemon's
			// in-flight cap declined the dispatch, or the shared retry budget
			// declined the attempt that could have saved the batch. Not a
			// malfunction: the batch is dropped shed-shaped (retryable by the
			// caller), never Failed.
			g.mu.Lock()
			g.stats.Overloads += uint64(len(batch))
			g.mu.Unlock()
			g.dropBatch(batch, fmt.Errorf("%w: %v", ErrOverloaded, err))
		default:
			g.finishError(batch, err)
		}
		return
	}
	// The estimate is the cost of the rung that served, so a fallback serve
	// folds only its own attempt, not the failed probe before it.
	g.ladder.Observe(rung, time.Since(attemptStart), remaining)

	now := time.Now()
	g.mu.Lock()
	class := batch[0].class
	sec := execTime.Seconds()
	if g.emaBatchSec[class] == 0 {
		g.emaBatchSec[class] = sec
	} else {
		g.emaBatchSec[class] = 0.8*g.emaBatchSec[class] + 0.2*sec
	}
	g.stats.Batches++
	g.stats.BatchedRequests += uint64(len(batch))
	if rung > 0 {
		g.stats.Degraded += uint64(len(batch))
		g.stats.DegradedRungs += uint64(rung) * uint64(len(batch))
	}
	if res.Canary {
		g.stats.CanaryServed += uint64(len(batch))
	}
	met := make([]bool, len(batch))
	for i, r := range batch {
		g.stats.Served++
		if r.class == ClassLatency && now.After(r.deadline) {
			g.stats.DeadlineMissed++
			g.stats.ClassMissed[r.class]++
		} else {
			g.stats.ClassMet[r.class]++
			met[i] = true
		}
	}
	tap := g.tap
	g.mu.Unlock()

	// A degraded batch did not execute the policy's decision, so its measured
	// latency must not be credited to the policy's choice sequence.
	choices := res.Choices
	if rung != 0 {
		choices = nil
	}
	for i, r := range batch {
		if tap != nil {
			tap.Offer(OutcomeEvent{
				Kind:          KindServed,
				Class:         r.class,
				SLO:           r.slo,
				Constraint:    res.Constraint,
				Rung:          rung,
				PolicyVersion: res.PolicyVersion,
				Canary:        res.Canary,
				LatencyMs:     now.Sub(r.enqueued).Seconds() * 1000,
				SLOMet:        met[i],
				Choices:       choices,
			})
		}
		g.deliver(r, Outcome{
			Logits:        outs[i],
			QueueWait:     start.Sub(r.enqueued),
			ExecTime:      execTime,
			DecideTime:    res.DecideTime,
			BatchSize:     len(batch),
			CacheHit:      res.CacheHit,
			Rung:          rung,
			PolicyVersion: res.PolicyVersion,
			Canary:        res.Canary,
		})
	}
}

// runBatch executes one attempt of the batch at the given rung, retrying
// once when the error's policy row says so (failover: re-resolve, re-degrade
// at the same rung) after demoting the device if the row says that too. It
// returns the resolution actually used so the caller reports accurate
// decide/cache metadata after a failover.
//
// When the ladder still has deeper rungs below the planned one, a
// deadline-bounded attempt is deliberately capped at ~3/5 of the remaining
// budget: if this attempt misses, execute's budget-exhaustion fallback can
// still afford one deeper attempt inside the same deadline. Rung 0 always
// gets the full budget — healthy traffic must not be degraded preemptively.
func (g *Gateway) runBatch(xs []*tensor.Tensor, res *runtime.Resolution, slo runtime.SLO, rung int, deadline time.Time) ([]*tensor.Tensor, *runtime.Resolution, error) {
	budget := budgetLeft(deadline)
	if budget > 0 && rung > 0 && rung < g.ladder.MaxRung() {
		if capped := budget * 3 / 5; capped > 0 {
			budget = capped
		}
	}
	decision := g.rt.DegradeDecision(res.Decision, rung)
	outs, _, err := g.rt.ExecBatchBudget(xs, decision, budget)
	if err == nil {
		return outs, res, nil
	}
	policy := fault.Of(err).Policy()
	// The scheduler names the device it faulted in a DeviceError; the class
	// alone cannot. An unclassified error that names none (a local failure)
	// demotes nothing.
	var de *runtime.DeviceError
	if policy.Demote && errors.As(err, &de) {
		g.noteDeviceError(de)
	}
	if policy.Retry {
		// The failover re-execution is a speculative attempt like any rpcx
		// retry or hedge: it draws from the same shared budget, so a
		// correlated loss cannot multiply every failing batch into double
		// load on the survivors. A refusal keeps the first attempt's error
		// wrapped in the typed retry-budget shed — execute drops the batch
		// shed-shaped, never Failed, and no device is demoted for it.
		if b := g.rt.Scheduler.RetryBudget; b != nil && !b.TryWithdraw() {
			return outs, res, fmt.Errorf("serve: failover retry suppressed: %w (cause: %v)",
				rpcx.ErrRetryBudget, err)
		}
		g.mu.Lock()
		g.stats.FailoverAttempts++
		g.mu.Unlock()
		if res2, rerr := g.rt.ResolveFor(slo); rerr == nil {
			res = res2
			decision = g.rt.DegradeDecision(res.Decision, rung)
			outs, _, err = g.rt.ExecBatchBudget(xs, decision, budgetLeft(deadline))
			if err == nil {
				g.mu.Lock()
				g.stats.Failovers++
				g.mu.Unlock()
			}
		}
	}
	return outs, res, err
}

// budgetLeft converts a deadline into the budget remaining right now (0 =
// no deadline).
func budgetLeft(deadline time.Time) time.Duration {
	if deadline.IsZero() {
		return 0
	}
	if left := time.Until(deadline); left > 0 {
		return left
	}
	// Expired between planning and dispatch: pass the smallest positive
	// budget so execution fails fast with the typed budget error instead of
	// running unbounded.
	return time.Nanosecond
}

// dropBatch abandons every request of an admitted batch that will not (or
// did not) execute in time, with drop/deadline accounting.
func (g *Gateway) dropBatch(batch []*request, err error) {
	g.mu.Lock()
	for _, r := range batch {
		g.failLocked(r, err)
	}
	g.mu.Unlock()
}

// finishError fails every request of a batch whose execution errored.
// Delivery is idempotent: requests that already received their outcome
// (e.g. before a mid-delivery panic) are neither re-sent nor re-counted.
func (g *Gateway) finishError(batch []*request, err error) {
	for _, r := range batch {
		if g.deliver(r, Outcome{Err: err}) {
			g.mu.Lock()
			g.stats.Failed++
			g.stats.ClassMissed[r.class]++
			g.offerLocked(OutcomeEvent{Kind: KindFailed, Class: r.class, SLO: r.slo})
			g.mu.Unlock()
		}
	}
}
