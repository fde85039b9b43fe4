package serve

import (
	"bytes"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"murmuration/internal/fault"
	"murmuration/internal/netem"
	"murmuration/internal/rpcx"
	"murmuration/internal/runtime"
	"murmuration/internal/supernet"
)

func TestStatsWireVersionRoundTrip(t *testing.T) {
	in := Stats{
		Admitted: 1, Served: 2, Shed: 3, Dropped: 4, DeadlineMissed: 5,
		Failed: 6, Batches: 7, BatchedRequests: 8,
		FailoverAttempts: 9, Failovers: 10,
		Degraded: 11, DegradedRungs: 12, BudgetExhausted: 13,
		Hedges: 14, HedgeWins: 15,
		ClusterUp: 16, ClusterSuspect: 17, ClusterDown: 18,
	}
	in.QueueDepth = [numClasses]int{19, 20, 21}
	in.Cache = runtime.CacheStats{Len: 22, Cap: 23, Hits: 24, Misses: 25, Evictions: 26, Invalidations: 27}

	frame := encodeStats(in)
	if len(frame) != 1+statsFieldCount*8 {
		t.Fatalf("stats frame is %d bytes, want 1 + %d fields × 8", len(frame), statsFieldCount)
	}
	if _, err := decodeStats(frame[:len(frame)-1]); err == nil {
		t.Fatal("a stats frame one byte short decoded")
	}
	out, err := decodeStats(frame)
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("stats round trip mismatch:\n got %+v\nwant %+v", out, in)
	}
}

func TestStatsWireVersionMismatchIsTyped(t *testing.T) {
	frame := encodeStats(Stats{})
	frame[0] = statsWireVersion + 1
	_, err := decodeStats(frame)
	var ve *WireVersionError
	if !errors.As(err, &ve) {
		t.Fatalf("got %v, want *WireVersionError", err)
	}
	if ve.Got != statsWireVersion+1 || ve.Want != statsWireVersion {
		t.Fatalf("version error %+v, want got=%d want=%d", ve, statsWireVersion+1, statsWireVersion)
	}
	if _, err := decodeStats(nil); err == nil {
		t.Fatal("empty stats payload decoded")
	}
}

// TestStatsWireGolden pins the stats frame byte for byte against fixtures.
// Encode and decode share statsFields, so a reordered or dropped field still
// round-trips; only a frame written down once catches it. stats_v13.hex is
// the current encoding of a Stats whose wire fields read 1…n in order;
// stats_v12.hex and stats_v11.hex are the same frame as earlier builds wrote it.
func TestStatsWireGolden(t *testing.T) {
	seq := Stats{
		Admitted: 1, Served: 2, Shed: 3, Dropped: 4, DeadlineMissed: 5,
		Failed: 6, Batches: 7, BatchedRequests: 8,
		FailoverAttempts: 9, Failovers: 10,
		Degraded: 11, DegradedRungs: 12, BudgetExhausted: 13,
		Hedges: 14, HedgeWins: 15,
		CorruptFrames: 16, Redials: 17,
		ClusterUp: 18, ClusterSuspect: 19, ClusterDown: 20,
		Panics: 21, RemotePanics: 22, Overloads: 23,
		LimiterCuts: 24, LimiterLimit: 25,
		GraySuspects: 26, Quarantines: 27, Probations: 28,
		Reintegrations: 29,
		Restarts:       30, FencedResponses: 31, StalledCalls: 32,
		AsymmetricQuarantines: 33,
		RetryBudgetExhausted:  34, ResolveCoalesced: 35, InvalidationEpochs: 36,
		ClassMet:    [numClasses]uint64{37, 38, 39},
		ClassMissed: [numClasses]uint64{40, 41, 42},
		QueueDepth:  [numClasses]int{43, 44, 45},
		Cache: runtime.CacheStats{
			Len: 46, Cap: 47, Hits: 48, Misses: 49, Evictions: 50, Invalidations: 51,
		},
	}
	for _, tc := range []struct {
		file string
		want Stats             // the decoded frame, when it is current
		err  *WireVersionError // the typed refusal, when it is not
	}{
		{file: "stats_v13.hex", want: seq},
		{file: "stats_v12.hex", err: &WireVersionError{Got: 12, Want: 13}},
		{file: "stats_v11.hex", err: &WireVersionError{Got: 11, Want: 13}},
	} {
		t.Run(tc.file, func(t *testing.T) {
			frame := readHexFixture(t, tc.file)
			got, err := decodeStats(frame)
			if tc.err != nil {
				var ve *WireVersionError
				if !errors.As(err, &ve) || *ve != *tc.err {
					t.Fatalf("decode: got %v, want %v", err, tc.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Fatalf("decoded fixture:\n got %+v\nwant %+v", got, tc.want)
			}
			if enc := encodeStats(tc.want); !bytes.Equal(enc, frame) {
				t.Fatalf("encodeStats differs from the fixture:\n got %x\nwant %x", enc, frame)
			}
		})
	}
}

// readHexFixture reads a testdata frame written as hex, one wire field a
// line; whitespace and "#" comments are ignored.
func readHexFixture(t *testing.T, name string) []byte {
	t.Helper()
	text, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	var digits strings.Builder
	for _, line := range strings.Split(string(text), "\n") {
		line, _, _ = strings.Cut(line, "#")
		digits.WriteString(strings.TrimSpace(line))
	}
	b, err := hex.DecodeString(digits.String())
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return b
}

// TestAdmissionUsesLadderEstimate: a latency request whose deadline is under
// the full-quality batch estimate must still be admitted when the ladder
// knows a cheaper rung that fits — workers degrade rather than drop, and
// admission must not shed what a degraded rung can serve.
func TestAdmissionUsesLadderEstimate(t *testing.T) {
	g := New(newTestRuntime(40, nil), Options{Workers: 1})
	defer g.Close(time.Second)
	g.mu.Lock()
	g.emaBatchSec[ClassLatency] = 0.05 // full-quality batches take ~50ms
	g.mu.Unlock()

	if _, err := g.Submit(testInput(40), latSLO(10)); !errors.Is(err, ErrDeadlineUnattainable) {
		t.Fatalf("without ladder knowledge: got %v, want ErrDeadlineUnattainable", err)
	}

	// Teach the ladder that the deepest rung completes in ~1ms; the same
	// request now fits (exec estimate = min(class EMA, ladder estimate)).
	g.Ladder().Observe(g.Ladder().MaxRung(), time.Millisecond, 0)
	if _, err := g.Submit(testInput(41), latSLO(10)); err != nil {
		t.Fatalf("with a feasible degraded rung: got %v, want admission", err)
	}
}

// TestDeviceErrorResetsWaitEstimates: a device-attributed failure changes
// the batch-cost regime, so the stale per-class wait estimates must be
// cleared rather than left to decay.
func TestDeviceErrorResetsWaitEstimates(t *testing.T) {
	// One remote the test never dispatches to: the device error must name a
	// device the table has a record of.
	sched := runtime.NewScheduler(supernet.New(supernet.TinyArch(4), 42), make([]*rpcx.Client, 1))
	g := New(runtime.New(sched, remoteDecider(supernet.TinyArch(4)), nil, nil), Options{Workers: 1})
	defer g.Close(time.Second)
	g.mu.Lock()
	for c := range g.emaBatchSec {
		g.emaBatchSec[c] = 1.0
	}
	g.mu.Unlock()

	g.noteDeviceError(&runtime.DeviceError{Device: 1, Tile: 0, Err: errors.New("boom")})

	// The reset is the device-table subscriber's reaction to the transition
	// (reconfigure), one goroutine hop after noteDeviceError returns.
	stale := func() (c int, v float64) {
		g.mu.Lock()
		defer g.mu.Unlock()
		for c, v := range g.emaBatchSec {
			if v != 0 {
				return c, v
			}
		}
		return -1, 0
	}
	deadline := time.Now().Add(5 * time.Second)
	for c, v := stale(); c >= 0; c, v = stale() {
		if time.Now().After(deadline) {
			t.Fatalf("class %d wait estimate %v after device error, want reset", c, v)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServeDegradesInsteadOfDropping is the fast, deterministic sibling of
// the netem chaos test: a gateway whose decider places every tile on a
// 300ms-delayed remote link receives latency-SLO requests that rung 0
// cannot meet (the whole tiny net is one fused run, so one round trip has to
// outlast the SLO on its own). The first few requests burn their budgets learning that
// (typed budget drops, not failures); the ladder then descends until the
// all-local rung serves within the SLO, and keeps serving there.
func TestServeDegradesInsteadOfDropping(t *testing.T) {
	a := supernet.TinyArch(4)
	net := supernet.New(a, 43)

	srv := rpcx.NewServer()
	runtime.NewExecutor(net).Register(srv)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cl, err := rpcx.Dial(addr, netem.NewShaper(0, 300*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.SetRetryPolicy(rpcx.RetryPolicy{MaxAttempts: 2, BaseBackoff: 5 * time.Millisecond})
	cl.MarkIdempotent(runtime.ExecBlockMethod)

	sched := runtime.NewScheduler(net, []*rpcx.Client{cl})
	sched.RemoteTimeout = 5 * time.Second
	rt := runtime.New(sched, remoteDecider(a), runtime.NewStrategyCache(32, 25, 5, 10), nil)
	rt.SetLinkState(0, 100, 300)

	g := New(rt, Options{Workers: 1, MaxRung: 3})
	defer g.Close(2 * time.Second)

	const n = 10
	var lastErr error
	servedDegraded := 0
	for i := 0; i < n; i++ {
		out, err := g.Submit(testInput(int64(100+i)), latSLO(250))
		lastErr = err
		if err == nil && out.Rung > 0 {
			servedDegraded++
		}
		if err != nil && fault.Of(err).Policy().Bucket == fault.BucketFailed {
			t.Fatalf("request %d: unexpected error class: %v", i, err)
		}
	}
	if lastErr != nil {
		t.Fatalf("ladder never converged: last request failed with %v", lastErr)
	}
	if servedDegraded == 0 {
		t.Fatal("no request was served degraded")
	}

	st := g.Stats()
	if st.Failed != 0 {
		t.Fatalf("budget pressure produced Failed=%d, want 0 (typed drops only): %+v", st.Failed, st)
	}
	if st.Degraded == 0 || st.DegradedRungs < st.Degraded {
		t.Fatalf("degradation counters %d/%d: %+v", st.Degraded, st.DegradedRungs, st)
	}
	if st.BudgetExhausted == 0 {
		t.Fatalf("expected at least one typed budget drop while learning: %+v", st)
	}
	if c := g.Ladder().Counters(); c.Degradations == 0 {
		t.Fatalf("ladder counters %+v, want at least one descent", c)
	}
	// Deadline pressure must never demote the (healthy, just slow) device.
	if h := rt.Devices.Snapshot(); !h[0].Up {
		t.Fatal("budget exhaustion demoted a healthy device")
	}
	if st.FailoverAttempts != 0 {
		t.Fatalf("budget exhaustion triggered failover: %+v", st)
	}
	// Ledger: every admitted request is accounted for.
	if st.Admitted != st.Served+st.Dropped+st.Failed {
		t.Fatalf("ledger broken: %+v", st)
	}
}
