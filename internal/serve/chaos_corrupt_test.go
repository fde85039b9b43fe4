package serve

import (
	"errors"
	"net"
	"testing"
	"time"

	"murmuration/internal/cluster"
	"murmuration/internal/fault"
	"murmuration/internal/monitor"
	"murmuration/internal/netem"
	"murmuration/internal/rl/env"
	"murmuration/internal/rpcx"
	"murmuration/internal/runtime"
	"murmuration/internal/supernet"
	"murmuration/internal/testutil"
)

// TestChaosCorruption drives the gateway through sustained load while the
// uplink to both devices flips bits (netem SetCorrupt at the paper-realistic
// 1e-3 per write), then clears the fault. The integrity contract, end to end:
//
//   - zero corrupted payloads reach callers: every served response is
//     bit-identical to the clean-network golden logits; every failure is a
//     typed error class, never silent garbage;
//   - corruption is detected (CorruptFrames observable via serve stats) and
//     recovered (poison → re-dial → retry), so Redials > 0 while Failed == 0;
//   - corruption is a link fault, not a device fault: the failure detector
//     keeps both devices Up and no failover fires;
//   - when the corruption clears, throughput fully recovers.
func TestChaosCorruption(t *testing.T) {
	testutil.CheckGoroutines(t)
	const (
		corruptRate  = 1e-3
		baselineReqs = 5
		maxCorrupted = 4000 // hard cap on the corruption-phase request count
		recoveryReqs = 20
		sloMs        = 10000
	)
	a := supernet.TinyArch(4)
	net1 := supernet.New(a, 404)

	startDaemon := func() (*rpcx.Server, string) {
		srv := rpcx.NewServer()
		runtime.NewExecutor(net1).Register(srv)
		monitor.RegisterHandlers(srv)
		cluster.NewNode().Register(srv)
		got, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		return srv, got
	}
	srv1, addr1 := startDaemon()
	defer srv1.Close()
	srv2, addr2 := startDaemon()
	defer srv2.Close()

	// Data clients ride netem fault-injecting conns so SetCorrupt can flip
	// bits on the uplink. rpcx.Dial wouldn't route writes through the
	// injector, so the conn is wrapped by hand and SetDialer keeps re-dials
	// inside the same corrupting link — recovery must work *through* the
	// fault, not around it.
	sh1 := netem.NewShaper(0, 0)
	sh2 := netem.NewShaper(0, 0)
	dialData := func(addr string, sh *netem.Shaper) *rpcx.Client {
		conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			t.Fatalf("dial %s: %v", addr, err)
		}
		c := rpcx.NewClient(netem.NewConn(conn, sh), nil)
		c.SetDialer(func() (net.Conn, error) {
			nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
			if err != nil {
				return nil, err
			}
			return netem.NewConn(nc, sh), nil
		})
		c.SetChecksum(true)
		c.SetRetryPolicy(rpcx.RetryPolicy{MaxAttempts: 4, BaseBackoff: 2 * time.Millisecond})
		c.MarkIdempotent(runtime.ExecBlockMethod, monitor.PingMethod)
		return c
	}
	data1, data2 := dialData(addr1, sh1), dialData(addr2, sh2)
	defer data1.Close()
	defer data2.Close()

	sched := runtime.NewScheduler(net1, []*rpcx.Client{data1, data2})
	// Bounds the rare hang where a bit flip lands in a frame's length prefix
	// and the server waits for bytes that never come.
	sched.RemoteTimeout = 2 * time.Second

	decider := runtime.DeciderFunc(func(c env.Constraint) (*env.Decision, error) {
		cfg := a.MinConfig()
		costs, _ := a.Costs(cfg)
		p := supernet.LocalPlacement(costs)
		var live []int
		for i, bw := range c.BandwidthMbps {
			if bw > 1 {
				live = append(live, i+1)
			}
		}
		if len(live) > 0 {
			n := 0
			for k := range p.Devices {
				for ti := range p.Devices[k] {
					p.Devices[k][ti] = live[n%len(live)]
					n++
				}
			}
		}
		return &env.Decision{Config: cfg, Placement: p}, nil
	})
	rt := runtime.New(sched, decider, runtime.NewStrategyCache(32, 25, 5, 10), nil)
	rt.SetLinkState(0, 100, 1)
	rt.SetLinkState(1, 100, 1)
	rt.SetSLO(latSLO(sloMs))

	// Heartbeats ride dedicated clean connections: bit flips on the data
	// path must read as link corruption, never as device death.
	hbDial := func(addr string) *rpcx.Client {
		c, err := rpcx.Dial(addr, nil)
		if err != nil {
			t.Fatalf("dial hb %s: %v", addr, err)
		}
		c.SetRetryPolicy(rpcx.RetryPolicy{MaxAttempts: 2, BaseBackoff: 5 * time.Millisecond})
		c.MarkIdempotent(monitor.PingMethod)
		return c
	}
	hb1, hb2 := hbDial(addr1), hbDial(addr2)
	defer hb1.Close()
	defer hb2.Close()
	m := cluster.NewManager(
		[]cluster.ProbeFunc{cluster.PingProbe(hb1), cluster.PingProbe(hb2)},
		cluster.Options{
			HeartbeatInterval: 10 * time.Millisecond,
			SuspectAfter:      50 * time.Millisecond,
			DownAfter:         120 * time.Millisecond,
		})
	defer m.Close()

	// MaxRung -1 pins full quality: with degradation off and a fixed input,
	// every served response must be bit-identical to the golden logits.
	g := New(rt, Options{
		Workers: 1, MaxBatch: 4, MaxLinger: time.Millisecond, QueueDepth: 32,
		MaxRung: -1, Cluster: m,
	})
	defer g.Close(5 * time.Second)
	m.Start()

	input := testInput(7)
	sameLogits := func(a, b []float32) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}

	// Phase 1 — clean network: capture the golden logits for the fixed input.
	var golden []float32
	for i := 0; i < baselineReqs; i++ {
		out, err := g.Submit(input, latSLO(sloMs))
		if err != nil {
			t.Fatalf("baseline request %d: %v", i, err)
		}
		if golden == nil {
			golden = append([]float32(nil), out.Logits.Data...)
		} else if !sameLogits(golden, out.Logits.Data) {
			t.Fatalf("baseline logits not deterministic at request %d", i)
		}
	}

	// Phase 2 — both uplinks flip bits at 1e-3 per write. Drive load until
	// at least two corruptions were detected end to end (bounded by
	// maxCorrupted); every success must match golden, every failure must be
	// a typed error class.
	sh1.SetCorrupt(corruptRate, 42)
	sh2.SetCorrupt(corruptRate, 43)
	sent := 0
	for ; sent < maxCorrupted; sent++ {
		out, err := g.Submit(input, latSLO(sloMs))
		if err != nil {
			if fault.Of(err) != fault.CorruptFrame && fault.Of(err).Policy().Bucket == fault.BucketFailed &&
				!errors.Is(err, rpcx.ErrTimeout) {
				t.Fatalf("corruption-phase request %d: unexpected error class: %v", sent, err)
			}
			continue
		}
		if !sameLogits(golden, out.Logits.Data) {
			t.Fatalf("corrupted payload reached a caller at request %d", sent)
		}
		if sched.Stats().CorruptFrames >= 2 {
			sent++
			break
		}
	}
	if sh1.Corruptions()+sh2.Corruptions() == 0 {
		t.Fatalf("injector never fired across %d requests — test exercised nothing", sent)
	}

	// Phase 3 — fault clears: every request serves clean again.
	sh1.SetCorrupt(0, 0)
	sh2.SetCorrupt(0, 0)
	for i := 0; i < recoveryReqs; i++ {
		out, err := g.Submit(input, latSLO(sloMs))
		if err != nil {
			t.Fatalf("recovery request %d: %v", i, err)
		}
		if !sameLogits(golden, out.Logits.Data) {
			t.Fatalf("recovery request %d served wrong logits", i)
		}
	}

	st := g.Stats()
	ss := sched.Stats()
	if ss.CorruptFrames < 2 {
		t.Fatalf("detected %d corrupt frames across %d requests (injector fired %d/%d times); "+
			"raise maxCorrupted or check detection: %+v",
			ss.CorruptFrames, sent, sh1.Corruptions(), sh2.Corruptions(), ss)
	}
	if st.CorruptFrames != ss.CorruptFrames || st.Redials != ss.Redials {
		t.Fatalf("gateway stats do not mirror scheduler integrity counters: %+v vs %+v", st, ss)
	}
	if ss.Redials == 0 {
		t.Fatalf("corruption detected but no connection was re-dialed: %+v", ss)
	}
	// Corruption was recovered, not surfaced: with idempotent retries every
	// admitted request must have completed or failed typed — never Failed.
	if st.Failed != 0 {
		t.Fatalf("corruption produced Failed=%d, want 0: %+v", st.Failed, st)
	}
	// A link that corrupts frames is not a dead device.
	if st.FailoverAttempts != 0 {
		t.Fatalf("corruption triggered failover: %+v", st)
	}
	for dev := 0; dev < 2; dev++ {
		if m.StateOf(dev) != cluster.Up {
			t.Fatalf("device %d is %v under corruption alone, want Up", dev, m.StateOf(dev))
		}
	}
	if h := rt.Devices.Snapshot(); !h[0].Up || !h[1].Up {
		t.Fatalf("healthy map %v under corruption alone", h)
	}
	if st.Admitted != st.Served+st.Dropped+st.Failed {
		t.Fatalf("ledger broken: %+v", st)
	}
}
