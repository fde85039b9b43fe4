package serve_test

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"murmuration/internal/fault"
	"murmuration/internal/limit"
	"murmuration/internal/rl/env"
	"murmuration/internal/rpcx"
	"murmuration/internal/runtime"
	"murmuration/internal/scenario"
	"murmuration/internal/serve"
	"murmuration/internal/supernet"
	"murmuration/internal/testutil"
)

// TestFaultGoldenTable pins, for every typed error and sentinel policy
// depends on, the class it is born with and what each layer does about it —
// transcribed by hand from the pre-taxonomy ladders, not read back from
// fault's own table. Each error is checked bare, %w-wrapped, inside a
// DeviceError and inside a RetryBudgetError: the outermost class wins.
func TestFaultGoldenTable(t *testing.T) {
	type row struct {
		demote  bool // scheduler wraps a remote tile's error in DeviceError → noteDeviceError
		limiter limit.Outcome
		health  fault.Evidence
		retry   bool // serve retries the batch once
		bucket  fault.Bucket
	}
	golden := map[fault.Class]row{
		fault.StormShed:       {false, limit.Neutral, fault.EvidenceNone, false, fault.BucketOverloaded},
		fault.BudgetExhausted: {false, limit.Congested, fault.EvidenceNone, false, fault.BucketBudgetExhausted},
		fault.CorruptFrame:    {false, limit.Neutral, fault.EvidenceNone, false, fault.BucketFailed},
		fault.Load:            {false, limit.Congested, fault.EvidenceOverload, false, fault.BucketOverloaded},
		fault.Fenced:          {false, limit.Neutral, fault.EvidenceNone, true, fault.BucketFailed},
		fault.LinkStall:       {false, limit.Congested, fault.EvidenceStall, true, fault.BucketFailed},
		fault.Request:         {false, limit.Congested, fault.EvidenceFailure, false, fault.BucketFailed},
		fault.Device:          {true, limit.Congested, fault.EvidenceFailure, true, fault.BucketFailed},
		fault.Unknown:         {true, limit.Neutral, fault.EvidenceFailure, false, fault.BucketFailed},
		fault.DeadlineMissed:  {false, limit.Neutral, fault.EvidenceNone, false, fault.BucketDeadlineMissed},
		fault.AdmissionShed:   {false, limit.Neutral, fault.EvidenceNone, false, fault.BucketShed},
	}
	if len(golden) != fault.NumClasses {
		t.Fatalf("golden table has %d rows, fault has %d classes", len(golden), fault.NumClasses)
	}

	timeout := &rpcx.TimeoutError{Method: "exec.block", After: time.Second}
	born := []struct {
		err  error
		want fault.Class
	}{
		{rpcx.ErrTimeout, fault.Device},
		{timeout, fault.Device},
		{rpcx.ErrStalled, fault.LinkStall},
		{&rpcx.StallError{Method: "exec.block"}, fault.LinkStall},
		{rpcx.ErrPanic, fault.Request},
		{&rpcx.PanicError{Method: "exec.block", Msg: "boom"}, fault.Request},
		{rpcx.ErrOverloaded, fault.Load},
		{&rpcx.OverloadError{Method: "exec.block"}, fault.Load},
		{rpcx.ErrBudgetExhausted, fault.BudgetExhausted},
		{&rpcx.BudgetError{Method: "exec.block"}, fault.BudgetExhausted},
		{rpcx.ErrRetryBudget, fault.StormShed},
		{&rpcx.RetryBudgetError{Method: "exec.block", Cause: timeout}, fault.StormShed},
		{rpcx.ErrCorruptFrame, fault.CorruptFrame},
		{&rpcx.FrameError{Op: "read-response", Reason: "checksum"}, fault.CorruptFrame},
		{&rpcx.RemoteError{Msg: "bad tensor"}, fault.Unknown},
		{&rpcx.RemoteError{Msg: "shed", Class: fault.AdmissionShed}, fault.AdmissionShed},
		{rpcx.ErrClientBroken, fault.Unknown},
		{errors.New("connection reset by peer"), fault.Unknown},
		{limit.ErrLimited, fault.Load},
		{runtime.ErrFenced, fault.Fenced},
		{&runtime.FencedError{Device: 1, Got: 1, Want: 2}, fault.Fenced},
		{&runtime.DeviceError{Device: 1, Err: errors.New("torn")}, fault.Device},
		{&runtime.DeviceError{Device: 1, Err: &rpcx.PanicError{Msg: "third in a row"}}, fault.Device},
		{serve.ErrQueueFull, fault.AdmissionShed},
		{serve.ErrDeadlineUnattainable, fault.AdmissionShed},
		{serve.ErrShuttingDown, fault.AdmissionShed},
		{serve.ErrDeadlineMissed, fault.DeadlineMissed},
		{serve.ErrOverloaded, fault.Load},
	}
	check := func(what string, err error, want fault.Class) {
		t.Helper()
		got := fault.Of(err)
		if got != want {
			t.Errorf("%s: class %v, want %v (%v)", what, got, want, err)
			return
		}
		p, g := got.Policy(), golden[want]
		if p.Demote != g.demote || p.Limiter != g.limiter || p.Health != g.health ||
			p.Retry != g.retry || p.Bucket != g.bucket {
			t.Errorf("%s: class %v policy %+v, want %+v", what, got, p, g)
		}
	}
	for _, b := range born {
		name := fmt.Sprintf("%T(%v)", b.err, b.err)
		check(name+" bare", b.err, b.want)
		check(name+" wrapped", fmt.Errorf("runtime: tile 0 on device 1: %w", b.err), b.want)
		check(name+" in DeviceError", &runtime.DeviceError{Device: 1, Err: b.err}, fault.Device)
		check(name+" in RetryBudgetError", &rpcx.RetryBudgetError{Method: "exec.block", Cause: b.err}, fault.StormShed)
	}
	// The two rewrites that create a class rather than read one.
	check("serve's storm-shed drop", fmt.Errorf("%w: %v", serve.ErrOverloaded, rpcx.ErrRetryBudget), fault.Load)
	check("failover suppressed", fmt.Errorf("serve: failover retry suppressed: %w (cause: %v)",
		rpcx.ErrRetryBudget, timeout), fault.StormShed)
}

// failingGateway serves a gateway whose every strategy resolution fails with
// the error *fail points at, behind a real rpcx socket.
func failingGateway(t *testing.T, fail *atomic.Pointer[error]) *serve.Client {
	t.Helper()
	a := supernet.TinyArch(4)
	sched := runtime.NewScheduler(supernet.New(a, 1), nil)
	decider := runtime.DeciderFunc(func(env.Constraint) (*env.Decision, error) {
		return nil, *fail.Load()
	})
	g := serve.New(runtime.New(sched, decider, runtime.NewStrategyCache(8, 25, 5, 10), nil), serve.Options{Workers: 1})
	srv := rpcx.NewServer()
	g.Register(srv)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := serve.DialClient(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cl.Close()
		srv.Close()
		g.Close(time.Second)
	})
	return cl
}

// Every class survives the real serve.infer path — gateway worker, handler,
// rpcx statusFault, client — and fault.Of gives the same answer on the far
// side as at birth.
func TestFaultClassCrossesInferWire(t *testing.T) {
	testutil.CheckGoroutines(t)
	var fail atomic.Pointer[error]
	cl := failingGateway(t, &fail)
	for class := fault.Class(1); class < fault.NumClasses; class++ {
		err := fault.New(class, "born "+class.String())
		fail.Store(&err)
		_, got := cl.Infer(chaosInput(1), chaosLatSLO(5000), 5*time.Second)
		if got == nil || fault.Of(got) != class {
			t.Errorf("%v crossed serve.infer as %v (%v)", class, fault.Of(got), got)
		}
	}
}

// A handler error that merely *says* "overloaded" is not an overload: text is
// not a class. (The substring matchers this replaced booked this request as
// overloaded — a refusal — instead of failed.)
func TestFaultTextIsNotAClass(t *testing.T) {
	testutil.CheckGoroutines(t)
	var fail atomic.Pointer[error]
	cl := failingGateway(t, &fail)
	err := errors.New(`disk "overloaded-01" stalled: fenced off, serve: shed pending, budget exhausted, ` +
		"retry budget depleted, corrupt frame, panicked, serve: deadline missed")
	fail.Store(&err)
	_, got := cl.Infer(chaosInput(1), chaosLatSLO(5000), 5*time.Second)
	if got == nil || fault.Of(got) != fault.Unknown {
		t.Fatalf("plain error crossed serve.infer as %v (%v), want unknown", fault.Of(got), got)
	}
	sc := scenario.NewScorer()
	sc.Record(chaosLatSLO(5000), -1, time.Millisecond, got)
	if c := sc.Report("adversarial", nil).Classes[serve.ClassLatency]; c.Failed != 1 {
		t.Fatalf("scorer booked the request as %+v, want failed", c)
	}
}
