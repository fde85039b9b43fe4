package serve

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"murmuration/internal/fault"
	"murmuration/internal/rl/env"
	"murmuration/internal/rpcx"
	"murmuration/internal/runtime"
	"murmuration/internal/tensor"
	"murmuration/internal/testutil"
)

// TestServeUnderLoad fires N concurrent clients at a gateway over real rpcx
// sockets and checks the serving invariants: every request gets exactly one
// outcome, every admitted latency-SLO request either makes its budget or is
// explicitly counted in DeadlineMissed/Dropped, shedding is counted, and
// nothing grows without bound. Run under -race this is the subsystem's
// concurrency test.
func TestServeUnderLoad(t *testing.T) {
	testutil.CheckGoroutines(t)
	const (
		numClients    = 40 // 32 latency-SLO + 8 accuracy/best-effort
		reqsPerClient = 3
		latencyMs     = 4000 // generous: the race detector slows inference ~10x
	)

	g := New(newTestRuntime(100, nil), Options{
		Workers:    2,
		MaxBatch:   8,
		MaxLinger:  time.Millisecond,
		QueueDepth: 16,
	})
	srv := rpcx.NewServer()
	g.Register(srv)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var (
		success, shed, missed, late, otherErr atomic.Uint64
		latencySuccess                        atomic.Uint64
	)
	var wg sync.WaitGroup
	for c := 0; c < numClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := DialClient(addr)
			if err != nil {
				t.Errorf("client %d dial: %v", c, err)
				return
			}
			defer cl.Close()
			rng := rand.New(rand.NewSource(int64(c)))
			slo := latSLO(latencyMs)
			isLatency := c < 32
			if !isLatency {
				if c%2 == 0 {
					slo = runtime.SLO{Type: env.AccuracySLO, Value: 75}
				} else {
					slo = latSLO(0) // best-effort
				}
			}
			for i := 0; i < reqsPerClient; i++ {
				x := tensor.New(1, 3, 32, 32)
				x.RandNormal(rng, 0.5)
				res, err := cl.Infer(x, slo, 60*time.Second)
				switch {
				case err == nil:
					success.Add(1)
					if isLatency {
						latencySuccess.Add(1)
						if res.QueueWait+res.ExecTime > latencyMs*time.Millisecond {
							late.Add(1)
						}
					}
					if res.Logits == nil || res.Logits.Shape[1] != 4 {
						t.Errorf("client %d: bad logits %v", c, res.Logits)
					}
					if res.BatchSize < 1 || res.BatchSize > 8 {
						t.Errorf("client %d: batch size %d out of [1,8]", c, res.BatchSize)
					}
				case fault.Of(err) == fault.AdmissionShed || fault.Of(err) == fault.Load:
					shed.Add(1)
				case fault.Of(err) == fault.DeadlineMissed:
					missed.Add(1)
				default:
					otherErr.Add(1)
					t.Errorf("client %d req %d: unexpected error %v", c, i, err)
				}
			}
		}(c)
	}
	wg.Wait()
	g.Close(30 * time.Second)

	st := g.Stats()
	const total = uint64(numClients * reqsPerClient)
	t.Logf("load: %d requests → success=%d (latency %d) shed=%d missed=%d late=%d; stats=%+v",
		total, success.Load(), latencySuccess.Load(), shed.Load(), missed.Load(), late.Load(), st)

	// Every request got exactly one definitive outcome.
	if got := success.Load() + shed.Load() + missed.Load() + otherErr.Load(); got != total {
		t.Fatalf("outcomes %d != requests %d", got, total)
	}
	if otherErr.Load() != 0 {
		t.Fatalf("%d requests failed with unexpected errors", otherErr.Load())
	}
	// Admission accounting: nothing disappears silently.
	if st.Admitted+st.Shed != total {
		t.Fatalf("admitted %d + shed %d != %d attempts", st.Admitted, st.Shed, total)
	}
	if st.Admitted != st.Served+st.Dropped+st.Failed {
		t.Fatalf("admitted %d != served %d + dropped %d + failed %d",
			st.Admitted, st.Served, st.Dropped, st.Failed)
	}
	if st.Failed != 0 {
		t.Fatalf("%d executions failed", st.Failed)
	}
	if st.Shed != shed.Load() {
		t.Fatalf("server shed %d != client-observed shed %d", st.Shed, shed.Load())
	}
	if st.Dropped != missed.Load() {
		t.Fatalf("server dropped %d != client-observed deadline drops %d", st.Dropped, missed.Load())
	}
	// Every admitted latency-SLO request met its budget or is explicitly
	// counted: the server's DeadlineMissed covers every queue drop and every
	// late completion the clients saw (client µs truncation can only
	// undercount lateness, so >= is the tight safe bound).
	if st.DeadlineMissed < missed.Load()+late.Load() {
		t.Fatalf("DeadlineMissed %d does not cover drops %d + late completions %d",
			st.DeadlineMissed, missed.Load(), late.Load())
	}
	// Queues fully drained, bounded all along.
	for c := Class(0); c < numClasses; c++ {
		if st.QueueDepth[c] != 0 {
			t.Fatalf("queue %v not drained: %d", c, st.QueueDepth[c])
		}
	}
	if success.Load() == 0 {
		t.Fatal("no request succeeded — load test vacuous")
	}
	// Batching must have engaged under 40 concurrent clients.
	if st.Batches == 0 || st.BatchedRequests < st.Batches {
		t.Fatalf("batching counters implausible: %+v", st)
	}
	// The strategy cache should have been hit heavily (few distinct SLOs).
	if st.Cache.Hits == 0 {
		t.Fatal("strategy cache never hit under repeated SLOs")
	}
}

// TestOneClientCarriesConcurrentInfers: the load generator funnels every
// in-flight request through one serve.Client (scenario.WireSubmitter,
// murmuration-loadgen -max-in-flight N). Eight concurrent Infer calls on one
// client must reach the gateway together — at least two serve.infer
// invocations active at once — not one at a time.
func TestOneClientCarriesConcurrentInfers(t *testing.T) {
	testutil.CheckGoroutines(t)
	g := New(newTestRuntime(103, nil), Options{Workers: 2, MaxBatch: 8, MaxLinger: time.Millisecond})
	defer g.Close(5 * time.Second)
	active := testutil.NewOverlap()
	srv := rpcx.NewServer()
	g.Register(srv)
	srv.Handle(InferMethod, active.Wrap(g.handleInfer))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := DialClient(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := cl.Infer(testInput(int64(300+i)), latSLO(30000), 60*time.Second)
			if err != nil || res.Logits == nil {
				t.Errorf("infer %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if peak := active.Peak(); peak < 2 {
		t.Fatalf("at most %d serve.infer invocation active at a time through one client, want >= 2", peak)
	}
}

// TestGatewayOverRPCSingle exercises the wire protocol end to end: encoded
// image + SLO in, logits + timing out, stats over the wire.
func TestGatewayOverRPCSingle(t *testing.T) {
	g := New(newTestRuntime(101, nil), Options{Workers: 1})
	defer g.Close(time.Second)
	srv := rpcx.NewServer()
	g.Register(srv)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cl, err := DialClient(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	res, err := cl.Infer(testInput(200), latSLO(5000), 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Logits == nil || res.Logits.Shape[0] != 1 || res.Logits.Shape[1] != 4 {
		t.Fatalf("bad logits: %v", res.Logits)
	}
	if res.BatchSize != 1 || res.ExecTime <= 0 {
		t.Fatalf("bad timing/batch fields: %+v", res)
	}

	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Admitted != 1 || st.Served != 1 {
		t.Fatalf("wire stats: %+v, want admitted=1 served=1", st)
	}
	if st.Cache.Len == 0 {
		t.Fatal("wire stats cache snapshot empty after a resolve")
	}
}

// TestGatewayRejectsMalformedTensor sends malformed images over the wire —
// not NCHW, a smuggled batch, the wrong channel count — and checks the
// gateway refuses each before admission, rather than panicking in the
// batching path or the stem conv, and keeps serving well-formed requests.
func TestGatewayRejectsMalformedTensor(t *testing.T) {
	g := New(newTestRuntime(102, nil), Options{Workers: 1})
	defer g.Close(time.Second)
	srv := rpcx.NewServer()
	g.Register(srv)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cl, err := DialClient(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	for _, bad := range []*tensor.Tensor{
		tensor.New(5),             // rank 1
		tensor.New(3, 32, 32),     // rank 3 (missing batch dim)
		tensor.New(4096, 3, 1, 1), // a batch in one request
		tensor.New(1, 4, 32, 32),  // too many channels
		tensor.New(1, 1, 32, 32),  // too few channels
	} {
		if _, err := cl.Infer(bad, latSLO(5000), 30*time.Second); err == nil {
			t.Fatalf("image of shape %v must be rejected", bad.Shape)
		}
	}
	// The gateway survived and still serves valid traffic on the same conn.
	res, err := cl.Infer(testInput(201), latSLO(5000), 30*time.Second)
	if err != nil {
		t.Fatalf("valid request after malformed ones failed: %v", err)
	}
	if res.Logits == nil || res.Logits.Shape[1] != 4 {
		t.Fatalf("bad logits after recovery: %v", res.Logits)
	}
	if st := g.Stats(); st.Admitted != 1 || st.Served != 1 {
		t.Fatalf("malformed requests must be rejected pre-admission: %+v", st)
	}
}
