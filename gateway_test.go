package murmuration

import (
	"errors"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"murmuration/internal/cluster"
	"murmuration/internal/monitor"
	"murmuration/internal/nas"
	"murmuration/internal/rl/env"
	"murmuration/internal/rl/policy"
	"murmuration/internal/rpcx"
	"murmuration/internal/runtime"
	"murmuration/internal/serve"
	"murmuration/internal/supernet"
	"murmuration/internal/testutil"
)

// waitUntil polls cond for up to 20 s.
func waitUntil(t *testing.T, desc string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(20 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if cond() {
			return
		}
	}
	t.Fatalf("timed out waiting for %s", desc)
}

// remoteHalfDecider splits every layer 1x2 and places the second tile on
// device 1.
func remoteHalfDecider(a *Arch) func(Constraint) (*Decision, error) {
	return func(Constraint) (*Decision, error) {
		cfg := a.MinConfig()
		for i := range cfg.Layers {
			cfg.Layers[i].Partition = supernet.Partition{Gy: 1, Gx: 2}
		}
		costs, err := a.Costs(cfg)
		if err != nil {
			return nil, err
		}
		p := supernet.LocalPlacement(costs)
		for k := range p.Devices {
			p.Devices[k][1] = 1
		}
		return &Decision{Config: cfg, Placement: p}, nil
	}
}

// TestDeploymentTimesOutOnSilentDaemon: a deployment's device calls carry the
// gateway's remote timeout, so a daemon that takes exec.block and never
// answers costs one bounded error, not a hung Infer.
func TestDeploymentTimesOutOnSilentDaemon(t *testing.T) {
	arch := TinyArch(4)
	d, err := NewDaemon(DaemonConfig{Net: NewSupernet(arch, 3), Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Server.Close()
	release := make(chan struct{})
	defer close(release) // before Close, which waits for the handler
	d.Server.Handle(runtime.ExecBlockMethod, func([]byte) ([]byte, error) {
		<-release
		return nil, errors.New("released")
	})

	cfg := DefaultGatewayConfig()
	cfg.Net = NewSupernet(arch, 3)
	cfg.Links = []Link{{Addr: d.Addr, BandwidthMbps: 100, DelayMs: 1}}
	cfg.Decider = remoteHalfDecider(arch)
	cfg.RemoteTimeout = 200 * time.Millisecond
	st, err := newStack(cfg, []DeviceKind{RaspberryPi4, RaspberryPi4})
	if err != nil {
		t.Fatal(err)
	}
	dep := &Deployment{*st}
	defer dep.Close()
	dep.SetSLO(SLO{Type: LatencySLO, Value: 0})

	start := time.Now()
	_, err = dep.Infer(NewInput(1, 3, 32, 32))
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Infer returned after %v, want < 2s", elapsed)
	}
	if !errors.Is(err, rpcx.ErrTimeout) {
		t.Fatalf("Infer error %v, want one matching rpcx.ErrTimeout", err)
	}
}

// TestServeDeviceIsADaemon: ServeDevice serves what murmurationd serves, so a
// hello answers a minted incarnation and heartbeats are counted.
func TestServeDeviceIsADaemon(t *testing.T) {
	addr, stop, err := ServeDevice(NewSupernet(TinyArch(4), 5), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	c, err := rpcx.Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if inc, err := c.Handshake(time.Second); err != nil || inc == 0 {
		t.Fatalf("handshake: incarnation %#x, err %v; want a minted one", inc, err)
	}
	before, err := cluster.FetchInfo(c, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CallTimeout(monitor.PingMethod, []byte("hb"), time.Second); err != nil {
		t.Fatal(err)
	}
	after, err := cluster.FetchInfo(c, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if after.Heartbeats != before.Heartbeats+1 {
		t.Fatalf("heartbeats %d after one ping, %d before", after.Heartbeats, before.Heartbeats)
	}
}

// TestGatewayAtCommandDefaults builds what murmurationd and
// murmuration-gateway build at their flag defaults and drives the wiring only
// the constructors hold: the rpcx API, the detector, the health layer, the
// restart re-probe and the drain.
func TestGatewayAtCommandDefaults(t *testing.T) {
	testutil.CheckGoroutines(t)
	arch := TinyArch(4)
	var daemons [2]*Daemon
	for i := range daemons {
		d, err := NewDaemon(DaemonConfig{Net: NewSupernet(arch, 42), Listen: "127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		daemons[i] = d
		defer func(i int) { daemons[i].Server.Close() }(i)
	}

	cfg := DefaultGatewayConfig()
	cfg.Net = NewSupernet(arch, 42)
	cfg.Listen = "127.0.0.1:0"
	cfg.Links = Links(daemons[0].Addr+","+daemons[1].Addr, 100, 10)
	gw, err := NewGateway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close(time.Second)

	c, err := serve.DialClient(gw.Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	x := NewInput(1, 3, 32, 32)
	x.RandNormal(rand.New(rand.NewSource(1)), 0.5)
	res, err := c.Infer(x, SLO{Type: LatencySLO, Value: 30_000}, 30*time.Second)
	if err != nil {
		t.Fatalf("serve.infer: %v", err)
	}
	if res.Logits == nil || res.Logits.Shape[1] != 4 {
		t.Fatalf("logits %v", res.Logits)
	}

	// A restart is told from a recovery by the incarnation the detector
	// learned before it.
	waitUntil(t, "both devices Up with their incarnations learned", func() bool {
		for i, d := range daemons {
			if gw.Cluster.StateOf(i) != cluster.Up || gw.Cluster.IncarnationOf(i) != d.Server.Incarnation() {
				return false
			}
		}
		return true
	})
	if gw.Serve.Health() == nil {
		t.Fatal("no health tracker attached at the default -health-window")
	}

	// Restart daemon 0 on its address: the detector sees a new incarnation,
	// and the gateway re-probes that link once.
	samples := gw.Runtime.Monitors[0].Samples()
	addr := daemons[0].Addr
	daemons[0].Server.Close()
	if daemons[0], err = NewDaemon(DaemonConfig{Net: NewSupernet(arch, 42), Listen: addr}); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "one restart", func() bool { return gw.Serve.Stats().Restarts == 1 })
	waitUntil(t, "the re-probe", func() bool { return gw.Runtime.Monitors[0].Samples() == samples+1 })
	if n := gw.Runtime.Monitors[1].Samples(); n != 1 {
		t.Fatalf("link 1 monitor holds %d samples, want the first probe's 1", n)
	}

	gw.Close(5 * time.Second)
	st := gw.Serve.Stats()
	if st.Admitted == 0 || st.Admitted != st.Served+st.Dropped+st.Failed {
		t.Fatalf("drained ledger: admitted %d, served %d + dropped %d + failed %d",
			st.Admitted, st.Served, st.Dropped, st.Failed)
	}
}

// TestGatewaySeesARestartBeforeTheFirstHeartbeat: the detector starts from
// the incarnation the data client's handshake learned, so a daemon that
// restarts before the first heartbeat is seen as restarted — fenced,
// re-probed and back in placement as the new process.
func TestGatewaySeesARestartBeforeTheFirstHeartbeat(t *testing.T) {
	testutil.CheckGoroutines(t)
	arch := TinyArch(4)
	d, err := NewDaemon(DaemonConfig{Net: NewSupernet(arch, 42), Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { d.Server.Close() }()

	cfg := DefaultGatewayConfig()
	cfg.Net = NewSupernet(arch, 42)
	cfg.Listen = "127.0.0.1:0"
	cfg.Links = Links(d.Addr, 100, 10)
	cfg.Detector.HeartbeatInterval = 300 * time.Millisecond
	gw, err := NewGateway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close(time.Second)

	addr := d.Addr
	d.Server.Close()
	if d, err = NewDaemon(DaemonConfig{Net: NewSupernet(arch, 42), Listen: addr}); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "one restart", func() bool { return gw.Serve.Stats().Restarts == 1 })
	waitUntil(t, "the device back in placement", func() bool {
		st := gw.Runtime.Devices.Snapshot()[0]
		return st.Up && st.Incarnation == d.Server.Incarnation()
	})
}

// TestGatewayReadsPolicyWidthFromCheckpoint: a policy checkpoint of any LSTM
// width loads through NewGateway, which reads the width from the file, and
// the gateway then decides as the saved policy does.
func TestGatewayReadsPolicyWidthFromCheckpoint(t *testing.T) {
	arch := TinyArch(4)
	p := policy.New(env.New(arch, nas.NewCalibratedPredictor(arch), []DeviceKind{RaspberryPi4}), 16, 3)
	path := filepath.Join(t.TempDir(), "policy.ckpt")
	if err := SavePolicy(path, p); err != nil {
		t.Fatal(err)
	}

	cfg := DefaultGatewayConfig()
	cfg.Net = NewSupernet(arch, 42)
	cfg.Listen = "127.0.0.1:0"
	cfg.PolicyPath = path
	gw, err := NewGateway(cfg)
	if err != nil {
		t.Fatalf("NewGateway with a width-16 checkpoint: %v", err)
	}
	defer gw.Close(time.Second)

	res, err := gw.Runtime.ResolveFor(SLO{Type: LatencySLO, Value: 100})
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.GreedyDecision(res.Constraint)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Decision, want) {
		t.Fatalf("gateway decided %+v, the saved policy %+v", res.Decision, want)
	}
}
