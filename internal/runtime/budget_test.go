package runtime

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"murmuration/internal/limit"
	"murmuration/internal/netem"
	"murmuration/internal/rpcx"
	"murmuration/internal/supernet"
)

// fakeClock is a hand-advanced clock for the budget's trickle: frozen, the
// MinRate refill never accrues, so the test fully controls the balance.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

// TestSharedBudgetSuppressesHedges drives the same slow-primary/fast-alternate
// topology as TestHedgedTileRPCWinsOverSlowPrimary, but with the shared retry
// budget drained: the hedge must be suppressed (and its counter unwound), the
// request must still succeed on the slow primary — a suppressed speculation is
// a shed, never a failure — and refilling the bucket must restore hedging
// without any other state change.
func TestSharedBudgetSuppressesHedges(t *testing.T) {
	a := supernet.TinyArch(4)
	net := supernet.New(a, 13)

	srv1 := rpcx.NewServer()
	NewExecutor(net).Register(srv1)
	addr1, err := srv1.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv1.Close()
	srv2 := rpcx.NewServer()
	NewExecutor(net).Register(srv2)
	addr2, err := srv2.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()

	slow, err := rpcx.Dial(addr1, netem.NewShaper(0, 400*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	fast, err := rpcx.Dial(addr2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fast.Close()

	sched := NewScheduler(net, []*rpcx.Client{slow, fast})
	sched.Hedge = &HedgePolicy{After: 20 * time.Millisecond, BudgetFrac: 1}
	sched.PickAlternate = func(primary int) int {
		if primary == 1 {
			return 2
		}
		return 1
	}

	clock := &fakeClock{now: time.Unix(1700000000, 0)}
	// Ratio tiny so this test's own primaries cannot re-fund the bucket; Burst
	// large enough that the later refill can afford a hedge for every tile.
	budget := limit.NewBudget(limit.BudgetOptions{Ratio: 1e-6, Burst: 64, Now: clock.Now})
	for budget.TryWithdraw() {
	} // drain the initial burst; the frozen clock keeps it drained
	sched.SetRetryBudget(budget)

	cfg := a.MinConfig()
	costs, err := a.Costs(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := supernet.LocalPlacement(costs)
	for k := range p.Devices {
		for ti := range p.Devices[k] {
			p.Devices[k][ti] = 1 // every tile targets the slow primary
		}
	}
	rng := rand.New(rand.NewSource(5))
	x := randInput(rng, 1, 3, 32, 32)
	dec := &supernet.Decision{Config: cfg, Placement: p}

	// Phase 1: drained budget. The hedge timer fires, the per-scheduler hedge
	// token is granted (BudgetFrac 1), but the shared budget refuses — so the
	// request rides out the slow primary and still succeeds.
	start := time.Now()
	if _, err := sched.Infer(x, dec); err != nil {
		t.Fatalf("inference must survive hedge suppression: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 300*time.Millisecond {
		t.Fatalf("inference finished in %v; a hedge must have fired despite the drained budget", elapsed)
	}
	st := sched.Stats()
	if st.Hedges != 0 {
		t.Fatalf("stats count %d hedges, want 0 — a suppressed hedge must unwind its counter", st.Hedges)
	}
	snap := budget.Snapshot()
	if snap.Exhausted == 0 {
		t.Fatal("drained budget was never asked to fund the hedge")
	}
	if st.RetryBudgetExhausted != snap.Exhausted {
		t.Fatalf("scheduler stats report %d budget refusals, bucket counted %d",
			st.RetryBudgetExhausted, snap.Exhausted)
	}
	if snap.Deposits == 0 {
		t.Fatal("primary dispatches must deposit into the shared budget")
	}

	// Phase 2: the MinRate trickle refills the bucket (advance the synthetic
	// clock; no new primary traffic needed) and hedging resumes.
	clock.Advance(100 * time.Second)
	if got := budget.Balance(); got < 64 {
		t.Fatalf("balance %v after the trickle, want the full burst of 64", got)
	}
	start = time.Now()
	if _, err := sched.Infer(x, dec); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 300*time.Millisecond {
		t.Fatalf("refilled budget: inference took %v, want a hedge win well under the 400ms primary delay", elapsed)
	}
	st = sched.Stats()
	if st.Hedges == 0 || st.HedgeWins == 0 {
		t.Fatalf("stats %+v after refill, want hedges and hedge wins", st)
	}
	after := budget.Snapshot()
	if after.Withdrawals <= snap.Withdrawals {
		t.Fatalf("withdrawals %d -> %d: the restored hedge must draw from the shared bucket",
			snap.Withdrawals, after.Withdrawals)
	}
}

// TestSetRetryBudgetGatesClientRetries: SetRetryBudget must install the gate
// on the scheduler's rpcx clients, so in-place transport retries draw from
// the same bucket as hedges and failovers — proven behaviorally: draining the
// bucket through the scheduler side suppresses the client's own retry.
func TestSetRetryBudgetGatesClientRetries(t *testing.T) {
	srv := rpcx.NewServer()
	var calls int64
	var callsMu sync.Mutex
	srv.Handle("flaky", func(p []byte) ([]byte, error) {
		callsMu.Lock()
		n := calls + 1
		calls = n
		callsMu.Unlock()
		// Both phases' first attempts stall past the deadline; only a retry
		// (the third attempt overall) answers in time.
		if n <= 2 {
			time.Sleep(300 * time.Millisecond)
		}
		return []byte("served"), nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := rpcx.Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetRetryPolicy(rpcx.RetryPolicy{MaxAttempts: 3, BaseBackoff: 5 * time.Millisecond})
	c.MarkIdempotent("flaky")

	clock := &fakeClock{now: time.Unix(1700000000, 0)}
	budget := limit.NewBudget(limit.BudgetOptions{Ratio: 1e-6, Burst: 2, Now: clock.Now})
	sched := NewScheduler(nil, []*rpcx.Client{nil, c}) // device 1 has no client
	sched.SetRetryBudget(budget)

	// Drain the bucket from the scheduler side of the shared ledger.
	if !budget.TryWithdraw() || !budget.TryWithdraw() {
		t.Fatal("burst of 2 should cover two withdrawals")
	}

	// The client would retry the timed-out first attempt, but the shared
	// bucket is empty: the retry is suppressed with the typed sentinel.
	_, err = c.CallTimeout("flaky", nil, 100*time.Millisecond)
	if !errors.Is(err, rpcx.ErrRetryBudget) {
		t.Fatalf("want retry-budget suppression through the scheduler-installed gate, got %v", err)
	}
	if sched.Stats().RetryBudgetExhausted == 0 {
		t.Fatal("scheduler stats must mirror the client's refusal — one bucket, one ledger")
	}

	// Refill via trickle: the same call now retries in place and recovers.
	clock.Advance(10 * time.Second)
	resp, err := c.CallTimeout("flaky", nil, 100*time.Millisecond)
	if err != nil {
		t.Fatalf("funded retry did not recover: %v", err)
	}
	if string(resp) != "served" {
		t.Fatalf("retried call returned %q", resp)
	}
	snap := budget.Snapshot()
	if snap.Withdrawals <= 2 {
		t.Fatalf("withdrawals = %d, want the client retry to draw from the shared bucket", snap.Withdrawals)
	}
}
