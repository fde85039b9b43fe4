package runtime

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	goruntime "runtime"
	"strings"
	"testing"

	"murmuration/internal/rl/env"
	"murmuration/internal/rpcx"
	"murmuration/internal/supernet"
	"murmuration/internal/tensor"
)

// Failure injection: the scheduler must surface remote failures with
// context instead of hanging or corrupting output.

func TestRemoteDeviceDownFailsCleanly(t *testing.T) {
	a := supernet.TinyArch(4)
	net := supernet.New(a, 20)
	// Start a server and immediately close it — client dials succeed or
	// fail fast, and inference must return an error either way.
	srv := rpcx.NewServer()
	NewExecutor(net).Register(srv)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl, dialErr := rpcx.Dial(addr, nil)
	srv.Close()
	if dialErr != nil {
		t.Skip("dial failed fast; nothing to test")
	}
	defer cl.Close()

	sched := NewScheduler(net, []*rpcx.Client{cl})
	cfg := a.MaxConfig()
	costs, _ := a.Costs(cfg)
	p := supernet.LocalPlacement(costs)
	for k := range p.Devices {
		for ti := range p.Devices[k] {
			p.Devices[k][ti] = 1
		}
	}
	rng := rand.New(rand.NewSource(1))
	x := tensor.New(1, 3, 32, 32)
	x.RandNormal(rng, 0.5)
	_, err = sched.Infer(x, &supernet.Decision{Config: cfg, Placement: p})
	if err == nil {
		t.Fatal("inference against a dead device must fail")
	}
	if !strings.Contains(err.Error(), "device 1") {
		t.Fatalf("error should name the failing device: %v", err)
	}
}

func TestExecutorRejectsMalformedRequests(t *testing.T) {
	a := supernet.TinyArch(4)
	ex := NewExecutor(supernet.New(a, 21))
	srv := rpcx.NewServer()
	ex.Register(srv)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := rpcx.Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Too short.
	if _, err := cl.Call(ExecBlockMethod, []byte{1, 2}); err == nil {
		t.Fatal("short payload accepted")
	}
	// Bad response bits.
	bad := []byte{0, 0, 3, 2, 32, 7 /* invalid bits */}
	if _, err := cl.Call(ExecBlockMethod, bad); err == nil {
		t.Fatal("invalid response bitwidth accepted")
	}
	// Header fine but garbage tensor body.
	garbage := append([]byte{0, 0, 3, 2, 32, 32}, 0xde, 0xad, 0xbe, 0xef)
	if _, err := cl.Call(ExecBlockMethod, garbage); err == nil {
		t.Fatal("garbage tensor accepted")
	}
	// Out-of-range stage.
	var good []byte
	{
		tile := tensor.New(1, 3, 8, 8)
		p, err := encodeRunRequest(nil, []blockRef{{stage: 9, index: 0, ls: supernet.LayerSetting{
			Kernel: 3, Expand: 2, Quant: tensor.Bits32,
			Partition: supernet.Partition{Gy: 1, Gx: 1},
		}}}, tile)
		if err != nil {
			t.Fatal(err)
		}
		good = p
	}
	if _, err := cl.Call(ExecBlockMethod, good); err == nil {
		t.Fatal("out-of-range stage accepted")
	}

	// Run headers. A valid two-block run first, so each case below is known
	// to fail for the one thing it breaks.
	cfg := a.MaxConfig()
	tile := ex.Net.ExecStem(tensor.New(1, 3, 16, 16))
	run := []blockRef{{stage: 0, index: 0, ls: cfg.Layers[0]}, {stage: 0, index: 1, ls: cfg.Layers[1]}}
	valid, err := encodeRunRequest(nil, run, tile)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Call(ExecBlockMethod, valid); err != nil {
		t.Fatalf("valid two-block run refused: %v", err)
	}
	mutate := func(f func(p []byte) []byte) []byte { return f(append([]byte(nil), valid...)) }
	for name, p := range map[string][]byte{
		"zero-length run": mutate(func(p []byte) []byte { p[1] = 0; return p }),
		// One more block than the supernet has, before any descriptor is read.
		"over-long run":         mutate(func(p []byte) []byte { p[1] = byte(a.MaxDepthTotal() + 1); return p }),
		"truncated descriptors": valid[:runHeaderLen+blockDescLen+2],
		"tag alone":             {runTag},
		"bad bitwidth mid-run": mutate(func(p []byte) []byte {
			p[runHeaderLen+blockDescLen+4] = 7
			return p
		}),
		"missing tile": valid[:runHeaderLen+2*blockDescLen],
	} {
		if _, err := cl.Call(ExecBlockMethod, p); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
}

// TestExecBlockChecksClaimsBeforeAllocating: a tile header is a claim. A
// 30-byte frame that declares a 1×3×8192×5461 tile, one cut short, or one
// whose codes are another width than its header says, is refused for less
// than a MiB — not after sizing 512 MiB by the header.
func TestExecBlockChecksClaimsBeforeAllocating(t *testing.T) {
	a := supernet.TinyArch(4)
	handler := NewExecutor(supernet.New(a, 22)).ExecBlockHandler()
	run := []byte{runTag, 1, 0, 0, 3, 2, byte(tensor.Bits8)}
	claim := func(bits tensor.Bitwidth, codes int, shape ...int) []byte {
		p := append(append([]byte(nil), run...), 'Q', byte(len(shape)), byte(bits))
		for _, d := range shape {
			p = binary.LittleEndian.AppendUint32(p, uint32(d))
		}
		p = binary.LittleEndian.AppendUint32(p, math.Float32bits(1))
		return append(p, make([]byte, codes)...)
	}
	valid, err := encodeRunRequest(nil, []blockRef{{stage: 0, index: 0, ls: a.MaxConfig().Layers[0]}}, supernet.New(a, 22).ExecStem(tensor.New(1, 3, 16, 16)))
	if err != nil {
		t.Fatal(err)
	}
	for name, p := range map[string][]byte{
		"30 bytes claiming 512 MiB":  claim(tensor.Bits32, 0, 1, 3, 8192, 5461),
		"4 KB claiming 128 MiB":      claim(tensor.Bits8, 4096, 1, 3, 8192, 5461),
		"cut short":                  valid[:len(valid)-1],
		"16-bit header, 8-bit codes": claim(tensor.Bits16, 8*8*8, 1, 8, 8, 8),
		"8-bit header, 32-bit codes": claim(tensor.Bits8, 4*8*8*8, 1, 8, 8, 8),
	} {
		var m0, m1 goruntime.MemStats
		goruntime.ReadMemStats(&m0)
		_, err := handler(p)
		goruntime.ReadMemStats(&m1)
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
		if n := m1.TotalAlloc - m0.TotalAlloc; n >= 1<<20 {
			t.Errorf("%s: refusing a %d-byte frame allocated %d bytes", name, len(p), n)
		}
	}
}

func TestDeciderErrorPropagates(t *testing.T) {
	a := supernet.TinyArch(4)
	net := supernet.New(a, 22)
	sched := NewScheduler(net, nil)
	wantErr := errors.New("no strategy")
	rt := New(sched, DeciderFunc(func(c env.Constraint) (*env.Decision, error) {
		return nil, wantErr
	}), nil, nil)
	rt.SetSLO(SLO{Type: env.LatencySLO, Value: 100})
	x := tensor.New(1, 3, 32, 32)
	if _, err := rt.Infer(x); !errors.Is(err, wantErr) {
		t.Fatalf("decider error lost: %v", err)
	}
}

func TestSchedulerRejectsInvalidDecisions(t *testing.T) {
	a := supernet.TinyArch(4)
	net := supernet.New(a, 23)
	sched := NewScheduler(net, nil)
	rng := rand.New(rand.NewSource(2))
	x := tensor.New(1, 3, 32, 32)
	x.RandNormal(rng, 0.5)

	// Invalid config.
	cfg := a.MaxConfig()
	cfg.Resolution = 999
	costs, _ := a.Costs(a.MaxConfig())
	if _, err := sched.Infer(x, &supernet.Decision{Config: cfg, Placement: supernet.LocalPlacement(costs)}); err == nil {
		t.Fatal("invalid config accepted")
	}

	// Placement referencing a device that does not exist.
	cfg2 := a.MaxConfig()
	costs2, _ := a.Costs(cfg2)
	p := supernet.LocalPlacement(costs2)
	p.Devices[0][0] = 3 // only device 0 exists
	if _, err := sched.Infer(x, &supernet.Decision{Config: cfg2, Placement: p}); err == nil {
		t.Fatal("placement beyond cluster size accepted")
	}
}

func TestSetLinkStateBounds(t *testing.T) {
	a := supernet.TinyArch(4)
	sched := NewScheduler(supernet.New(a, 24), nil)
	rt := New(sched, DeciderFunc(func(c env.Constraint) (*env.Decision, error) { return nil, nil }), nil, nil)
	if err := rt.SetLinkState(0, 100, 10); err == nil {
		t.Fatal("no remotes: index 0 must be rejected")
	}
	if err := rt.SetLinkState(-1, 100, 10); err == nil {
		t.Fatal("negative index accepted")
	}
}
