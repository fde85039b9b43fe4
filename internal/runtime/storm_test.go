package runtime

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"murmuration/internal/rl/env"
	"murmuration/internal/supernet"
)

// TestResolveForSingleflight: concurrent cache misses for one strategy key
// run the decider exactly once; every other caller is served the leader's
// result and counted as coalesced.
func TestResolveForSingleflight(t *testing.T) {
	a := supernet.TinyArch(4)
	net := supernet.New(a, 17)
	sched, cleanup := testCluster(t, net, 2, 0, 0)
	defer cleanup()

	var calls, inside, maxInside atomic.Int32
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	decider := DeciderFunc(func(c env.Constraint) (*env.Decision, error) {
		n := inside.Add(1)
		for {
			m := maxInside.Load()
			if n <= m || maxInside.CompareAndSwap(m, n) {
				break
			}
		}
		calls.Add(1)
		select {
		case entered <- struct{}{}:
		default:
		}
		<-release
		inside.Add(-1)
		cfg := a.MinConfig()
		costs, _ := a.Costs(cfg)
		return &env.Decision{Config: cfg, Placement: supernet.LocalPlacement(costs)}, nil
	})
	rt := New(sched, decider, NewStrategyCache(16, 25, 5, 10), nil)
	rt.SetSLO(SLO{Type: env.LatencySLO, Value: 200})
	rt.SetLinkState(0, 100, 10)

	const G = 8
	var wg sync.WaitGroup
	errs := make([]error, G)
	for i := 0; i < G; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = rt.ResolveFor(rt.SLO())
		}(i)
	}
	<-entered // the leader is inside the decider
	// Give the followers time to pile onto the flight, then let it finish.
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("decider ran %d times for one key, want 1", got)
	}
	if got := maxInside.Load(); got != 1 {
		t.Fatalf("max concurrent decider entries %d, want 1", got)
	}
	// Every non-leader either coalesced onto the flight or hit the cache the
	// leader populated; none ran the decider.
	coalesced := rt.ResolveCoalesced()
	hits := rt.Cache.Stats().Hits
	if coalesced+hits != G-1 {
		t.Fatalf("coalesced=%d + hits=%d, want %d non-leader callers accounted", coalesced, hits, G-1)
	}
	if coalesced == 0 {
		t.Fatal("no caller coalesced despite a held-open flight")
	}
}

// TestResolveForSingleflightSharesErrors: a failing flight fails every
// waiter once — the decider is not stampeded by error retries.
func TestResolveForSingleflightSharesErrors(t *testing.T) {
	a := supernet.TinyArch(4)
	net := supernet.New(a, 18)
	sched, cleanup := testCluster(t, net, 1, 0, 0)
	defer cleanup()

	var calls atomic.Int32
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	decider := DeciderFunc(func(c env.Constraint) (*env.Decision, error) {
		calls.Add(1)
		select {
		case entered <- struct{}{}:
		default:
		}
		<-release
		return nil, fmt.Errorf("decider down")
	})
	rt := New(sched, decider, NewStrategyCache(16, 25, 5, 10), nil)
	rt.SetSLO(SLO{Type: env.LatencySLO, Value: 200})

	const G = 4
	var wg sync.WaitGroup
	var failures atomic.Int32
	for i := 0; i < G; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := rt.ResolveFor(rt.SLO()); err != nil {
				failures.Add(1)
			}
		}()
	}
	<-entered
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	if failures.Load() != G {
		t.Fatalf("%d callers failed, want all %d to share the error", failures.Load(), G)
	}
	// At most one extra run for stragglers that arrived after the flight
	// closed (the error is not cached — by design, so recovery can retry).
	if calls.Load() > 2 {
		t.Fatalf("decider ran %d times, stampede not suppressed", calls.Load())
	}
}

// BenchmarkCacheInvalidateDevice demonstrates the epoch scheme's O(1)
// invalidation: per-op cost is flat as the cache grows from 16 to 4096
// entries (the pre-epoch implementation walked every entry under the lock).
func BenchmarkCacheInvalidateDevice(b *testing.B) {
	for _, size := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("entries=%d", size), func(b *testing.B) {
			c := NewStrategyCache(size, 25, 5, 10)
			for i := 0; i < size; i++ {
				c.Put(latConstraint(float64(i)*25), placedDecision([][]int{{0, 1}}))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.InvalidateDevice(1)
			}
		})
	}
}
