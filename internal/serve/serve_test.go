package serve

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"murmuration/internal/fault"
	"murmuration/internal/rl/env"
	"murmuration/internal/runtime"
	"murmuration/internal/supernet"
	"murmuration/internal/tensor"
)

// newTestRuntime builds a local-only runtime over the tiny supernet with a
// fixed min-config decider. beforeDecide, when non-nil, runs inside every
// decider call (cache misses only), letting tests stall the pipeline.
func newTestRuntime(seed int64, beforeDecide func()) *runtime.Runtime {
	a := supernet.TinyArch(4)
	net := supernet.New(a, seed)
	sched := runtime.NewScheduler(net, nil)
	decider := runtime.DeciderFunc(func(c env.Constraint) (*env.Decision, error) {
		if beforeDecide != nil {
			beforeDecide()
		}
		cfg := a.MinConfig()
		costs, _ := a.Costs(cfg)
		return &env.Decision{Config: cfg, Placement: supernet.LocalPlacement(costs)}, nil
	})
	return runtime.New(sched, decider, runtime.NewStrategyCache(32, 25, 5, 10), nil)
}

func testInput(seed int64) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	x := tensor.New(1, 3, 32, 32)
	x.RandNormal(rng, 0.5)
	return x
}

func latSLO(ms float64) runtime.SLO {
	return runtime.SLO{Type: env.LatencySLO, Value: ms}
}

func TestClassOf(t *testing.T) {
	cases := []struct {
		slo  runtime.SLO
		want Class
	}{
		{latSLO(100), ClassLatency},
		{runtime.SLO{Type: env.AccuracySLO, Value: 75}, ClassAccuracy},
		{latSLO(0), ClassBestEffort},
		{runtime.SLO{Type: env.AccuracySLO, Value: 0}, ClassBestEffort},
	}
	for _, c := range cases {
		if got := classOf(c.slo); got != c.want {
			t.Fatalf("classOf(%+v) = %v, want %v", c.slo, got, c.want)
		}
	}
}

func TestSubmitServes(t *testing.T) {
	g := New(newTestRuntime(1, nil), Options{Workers: 1})
	defer g.Close(time.Second)

	out, err := g.Submit(testInput(1), latSLO(5000))
	if err != nil {
		t.Fatal(err)
	}
	if out.Logits == nil || out.Logits.Shape[0] != 1 || out.Logits.Shape[1] != 4 {
		t.Fatalf("bad logits shape: %v", out.Logits)
	}
	if out.BatchSize != 1 {
		t.Fatalf("solo request batch size %d, want 1", out.BatchSize)
	}
	st := g.Stats()
	if st.Admitted != 1 || st.Served != 1 || st.Shed != 0 || st.DeadlineMissed != 0 {
		t.Fatalf("stats after one served request: %+v", st)
	}
	if st.Cache.Misses == 0 {
		t.Fatal("first request should have missed the strategy cache")
	}
}

func TestQueueFullSheds(t *testing.T) {
	gate := make(chan struct{})
	var decides int32
	g := New(newTestRuntime(2, func() {
		if atomic.AddInt32(&decides, 1) == 1 {
			<-gate
		}
	}), Options{Workers: 1, QueueDepth: 2, MaxLinger: time.Millisecond})

	// Occupy the single worker with a best-effort request stalled in its
	// decider, then overfill the latency queue.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		g.Submit(testInput(2), latSLO(0))
	}()
	waitFor(t, func() bool { return atomic.LoadInt32(&decides) == 1 })

	results := make(chan error, 3)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int64) {
			defer wg.Done()
			_, err := g.Submit(testInput(10+i), latSLO(10000))
			results <- err
		}(int64(i))
	}
	waitFor(t, func() bool { return g.Stats().QueueDepth[ClassLatency] == 2 })
	if _, err := g.Submit(testInput(20), latSLO(10000)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overfull queue: got %v, want ErrQueueFull", err)
	}
	close(gate)
	wg.Wait()
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Fatalf("queued request failed: %v", err)
		}
	}
	st := g.Stats()
	if st.Shed != 1 || st.Admitted != 3 || st.Served != 3 {
		t.Fatalf("stats: %+v, want shed=1 admitted=3 served=3", st)
	}
	g.Close(time.Second)
}

func TestDeadlineExpiredInQueueIsDropped(t *testing.T) {
	gate := make(chan struct{})
	var decides int32
	g := New(newTestRuntime(3, func() {
		if atomic.AddInt32(&decides, 1) == 1 {
			<-gate
		}
	}), Options{Workers: 1, MaxLinger: time.Millisecond})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		g.Submit(testInput(3), latSLO(0))
	}()
	waitFor(t, func() bool { return atomic.LoadInt32(&decides) == 1 })

	// Admitted with a 30ms budget, but the worker is stalled past it.
	errCh := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := g.Submit(testInput(30), latSLO(30))
		errCh <- err
	}()
	waitFor(t, func() bool { return g.Stats().QueueDepth[ClassLatency] == 1 })
	time.Sleep(50 * time.Millisecond)
	close(gate)
	wg.Wait()
	if err := <-errCh; fault.Of(err) != fault.DeadlineMissed {
		t.Fatalf("expired request: got %v, want deadline-missed", err)
	}
	st := g.Stats()
	if st.Dropped != 1 || st.DeadlineMissed != 1 {
		t.Fatalf("stats: %+v, want dropped=1 deadlineMissed=1", st)
	}
	if st.Admitted != 2 || st.Served != 1 {
		t.Fatalf("stats: %+v, want admitted=2 served=1", st)
	}
	g.Close(time.Second)
}

func TestAdmissionShedsUnattainableDeadline(t *testing.T) {
	g := New(newTestRuntime(4, nil), Options{Workers: 1})
	defer g.Close(time.Second)
	// Teach the admission estimator that a batch takes ~50ms.
	g.mu.Lock()
	g.emaBatchSec[ClassLatency] = 0.05
	g.mu.Unlock()

	if _, err := g.Submit(testInput(4), latSLO(10)); !errors.Is(err, ErrDeadlineUnattainable) {
		t.Fatalf("10ms budget under 50ms service estimate: got %v, want ErrDeadlineUnattainable", err)
	}
	st := g.Stats()
	if st.Shed != 1 || st.Admitted != 0 {
		t.Fatalf("stats: %+v, want shed=1 admitted=0", st)
	}
	// A generous budget is still admitted.
	if _, err := g.Submit(testInput(5), latSLO(10000)); err != nil {
		t.Fatalf("generous budget rejected: %v", err)
	}
}

func TestDynamicBatchingCoalesces(t *testing.T) {
	gate := make(chan struct{})
	var decides int32
	g := New(newTestRuntime(5, func() {
		if atomic.AddInt32(&decides, 1) == 1 {
			<-gate
		}
	}), Options{Workers: 1, MaxBatch: 8, MaxLinger: 100 * time.Millisecond})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		g.Submit(testInput(6), latSLO(0)) // stall the worker
	}()
	waitFor(t, func() bool { return atomic.LoadInt32(&decides) == 1 })

	const n = 4
	sizes := make(chan int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int64) {
			defer wg.Done()
			out, err := g.Submit(testInput(40+i), latSLO(10000))
			if err != nil {
				t.Error(err)
				sizes <- 0
				return
			}
			sizes <- out.BatchSize
		}(int64(i))
	}
	// All four share an SLO, hence a strategy key, hence a batch.
	waitFor(t, func() bool { return g.Stats().QueueDepth[ClassLatency] == n })
	close(gate)
	wg.Wait()
	for i := 0; i < n; i++ {
		if bs := <-sizes; bs != n {
			t.Fatalf("request served in batch of %d, want %d", bs, n)
		}
	}
	st := g.Stats()
	if st.Batches != 2 || st.BatchedRequests != n+1 {
		t.Fatalf("stats: batches=%d batchedReqs=%d, want 2/%d", st.Batches, st.BatchedRequests, n+1)
	}
	g.Close(time.Second)
}

func TestLatencyClassHasPriority(t *testing.T) {
	// A custom runtime whose decider records the SLO of each resolution, so
	// the test observes server-side *service* order, not client wakeup order
	// (outcome channels are buffered; completion wakeups may reorder).
	gate := make(chan struct{})
	var decides int32
	var orderMu sync.Mutex
	var order []env.SLOType
	a := supernet.TinyArch(4)
	net := supernet.New(a, 6)
	decider := runtime.DeciderFunc(func(c env.Constraint) (*env.Decision, error) {
		if atomic.AddInt32(&decides, 1) == 1 {
			<-gate
		} else {
			orderMu.Lock()
			order = append(order, c.Type)
			orderMu.Unlock()
		}
		cfg := a.MinConfig()
		costs, _ := a.Costs(cfg)
		return &env.Decision{Config: cfg, Placement: supernet.LocalPlacement(costs)}, nil
	})
	rt := runtime.New(runtime.NewScheduler(net, nil), decider,
		runtime.NewStrategyCache(32, 25, 5, 10), nil)
	g := New(rt, Options{Workers: 1, MaxBatch: 1, MaxLinger: time.Millisecond})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		g.Submit(testInput(7), latSLO(0)) // stall the worker
	}()
	waitFor(t, func() bool { return atomic.LoadInt32(&decides) == 1 })

	// Enqueue accuracy-SLO first, then latency-SLO; despite arriving later,
	// the latency request must be resolved first once the worker unblocks.
	// Distinct SLO types give every request a distinct strategy key, so each
	// resolution is a cache miss and reaches the recording decider.
	wg.Add(2)
	go func() {
		defer wg.Done()
		g.Submit(testInput(50), runtime.SLO{Type: env.AccuracySLO, Value: 75})
	}()
	waitFor(t, func() bool { return g.Stats().QueueDepth[ClassAccuracy] == 1 })
	go func() {
		defer wg.Done()
		g.Submit(testInput(51), latSLO(10000))
	}()
	waitFor(t, func() bool { return g.Stats().QueueDepth[ClassLatency] == 1 })
	close(gate)
	wg.Wait()
	orderMu.Lock()
	defer orderMu.Unlock()
	if len(order) != 2 || order[0] != env.LatencySLO {
		t.Fatalf("service order %v, want latency (%v) first", order, env.LatencySLO)
	}
	g.Close(time.Second)
}

func TestGracefulDrainServesQueued(t *testing.T) {
	gate := make(chan struct{})
	var decides int32
	g := New(newTestRuntime(8, func() {
		if atomic.AddInt32(&decides, 1) == 1 {
			<-gate
		}
	}), Options{Workers: 1, MaxLinger: time.Millisecond})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		g.Submit(testInput(8), latSLO(0))
	}()
	waitFor(t, func() bool { return atomic.LoadInt32(&decides) == 1 })

	const queued = 3
	errs := make(chan error, queued)
	for i := 0; i < queued; i++ {
		wg.Add(1)
		go func(i int64) {
			defer wg.Done()
			_, err := g.Submit(testInput(60+i), latSLO(10000))
			errs <- err
		}(int64(i))
	}
	waitFor(t, func() bool { return g.Stats().QueueDepth[ClassLatency] == queued })

	closed := make(chan struct{})
	go func() {
		g.Close(10 * time.Second)
		close(closed)
	}()
	// New work is rejected once closing (a Submit racing ahead of the
	// closing flag would be admitted and block, so wait for the flag).
	waitFor(t, func() bool {
		g.mu.Lock()
		defer g.mu.Unlock()
		return g.closing
	})
	if _, err := g.Submit(testInput(70), latSLO(10000)); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("submit during drain: got %v, want ErrShuttingDown", err)
	}
	close(gate)
	<-closed
	wg.Wait()
	for i := 0; i < queued; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("queued request not drained: %v", err)
		}
	}
	st := g.Stats()
	if st.Served != queued+1 || st.Dropped != 0 {
		t.Fatalf("drain stats: %+v, want served=%d dropped=0", st, queued+1)
	}
}

func TestCloseGraceExpiryFailsQueued(t *testing.T) {
	gate := make(chan struct{})
	var decides int32
	g := New(newTestRuntime(9, func() {
		if atomic.AddInt32(&decides, 1) == 1 {
			<-gate
		}
	}), Options{Workers: 1, MaxLinger: time.Millisecond})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		g.Submit(testInput(9), latSLO(0))
	}()
	waitFor(t, func() bool { return atomic.LoadInt32(&decides) == 1 })

	errCh := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := g.Submit(testInput(90), latSLO(10000))
		errCh <- err
	}()
	waitFor(t, func() bool { return g.Stats().QueueDepth[ClassLatency] == 1 })

	// Grace is far shorter than the stall: the queued request must be
	// abandoned, not silently lost. Release the stall afterwards so Close
	// can join the worker.
	time.AfterFunc(300*time.Millisecond, func() { close(gate) })
	g.Close(50 * time.Millisecond)
	wg.Wait()
	if err := <-errCh; !errors.Is(err, ErrShuttingDown) && fault.Of(err) != fault.AdmissionShed {
		t.Fatalf("abandoned request: got %v, want shutting-down", err)
	}
	st := g.Stats()
	if st.Dropped != 1 {
		t.Fatalf("stats: %+v, want dropped=1", st)
	}
	if st.Admitted != st.Served+st.Dropped+st.Failed {
		t.Fatalf("accounting broken: %+v", st)
	}
}

// TestDecodeSLOPreservesType checks that the SLO type survives the wire
// verbatim: a best-effort accuracy SLO (Value<=0) must not come back
// latency-typed, since downstream constraint assembly keys off slo.Type.
func TestDecodeSLOPreservesType(t *testing.T) {
	cases := []runtime.SLO{
		{Type: env.LatencySLO, Value: 100},
		{Type: env.LatencySLO, Value: 0},
		{Type: env.AccuracySLO, Value: 75},
		{Type: env.AccuracySLO, Value: 0},
		{Type: env.AccuracySLO, Value: -1},
	}
	for _, in := range cases {
		out, err := decodeSLO(byte(in.Type), in.Value)
		if err != nil {
			t.Fatalf("decodeSLO(%+v): %v", in, err)
		}
		if out != in {
			t.Fatalf("SLO round trip: sent %+v, got %+v", in, out)
		}
	}
	if _, err := decodeSLO(9, 1); err == nil {
		t.Fatal("unknown SLO type must be rejected")
	}
}

// TestCloseBoundedWithWedgedWorker wedges the single worker inside its
// decider forever and checks Close still returns within its grace bounds
// instead of waiting on the worker indefinitely.
func TestCloseBoundedWithWedgedWorker(t *testing.T) {
	gate := make(chan struct{})
	var decides int32
	g := New(newTestRuntime(10, func() {
		if atomic.AddInt32(&decides, 1) == 1 {
			<-gate
		}
	}), Options{Workers: 1, MaxLinger: time.Millisecond})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		g.Submit(testInput(100), latSLO(0))
	}()
	waitFor(t, func() bool { return atomic.LoadInt32(&decides) == 1 })

	start := time.Now()
	g.Close(50 * time.Millisecond)
	if e := time.Since(start); e > 2*time.Second {
		t.Fatalf("Close with wedged worker took %v, want bounded by grace", e)
	}
	// Unwedge so the abandoned worker and its submitter can finish.
	close(gate)
	wg.Wait()
}

func TestStatsWireRoundTrip(t *testing.T) {
	in := Stats{
		Admitted: 10, Served: 7, Shed: 2, Dropped: 1, DeadlineMissed: 3,
		Failed: 1, Batches: 4, BatchedRequests: 8,
		QueueDepth: [numClasses]int{1, 2, 3},
		Cache: runtime.CacheStats{
			Len: 5, Cap: 64, Hits: 100, Misses: 20, Evictions: 2,
		},
	}
	out, err := decodeStats(encodeStats(in))
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("stats round trip mismatch:\n in=%+v\nout=%+v", in, out)
	}
}

// waitFor polls cond for up to 5s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached within 5s")
}
