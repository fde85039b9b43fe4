package runtime

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"os"
	"sync/atomic"
	"testing"

	"murmuration/internal/device"
	"murmuration/internal/fault"
	"murmuration/internal/rpcx"
	"murmuration/internal/supernet"
	"murmuration/internal/tensor"
	"murmuration/internal/testutil"
)

// Fused tile runs: a device executes every consecutive block it owns on a
// tile in one exec.block round trip. These tests pin that to the per-layer
// execution it replaces, bit for bit, and pin where runs break.

// layerwise is the reference the fused scheduler must equal at tolerance 0:
// the forward pass rebuilt one block and one tile at a time from public
// functions, every tile gathered and cut again after every block.
func layerwise(t *testing.T, net *supernet.Supernet, x *tensor.Tensor, cfg *supernet.Config) *tensor.Tensor {
	t.Helper()
	y := net.ExecStem(tensor.BilinearResize(x, cfg.Resolution, cfg.Resolution))
	for layer, ls := range cfg.Layers {
		stage, index, stride, err := net.Arch.BlockAt(cfg, layer)
		if err != nil {
			t.Fatal(err)
		}
		y0s, x0s, ths, tws, err := supernet.TileSplit(y.Shape[2], y.Shape[3], ls.Partition, stride)
		if err != nil {
			t.Fatal(err)
		}
		out := tensor.New(y.Shape[0], net.Arch.Stages[stage].Width, y.Shape[2]/stride, y.Shape[3]/stride)
		for i := range y0s {
			tile := tensor.CropSpatial(y, y0s[i], x0s[i], ths[i], tws[i])
			if ls.Quant != tensor.Bits32 {
				tile = tensor.Quantize(tile, ls.Quant).Dequantize()
			}
			if tile, err = net.ExecBlock(stage, index, tile, ls); err != nil {
				t.Fatal(err)
			}
			tensor.PasteSpatial(out, tile, y0s[i]/stride, x0s[i]/stride)
		}
		y = out
	}
	return net.ExecHead(y)
}

// randomPlacement assigns every tile of every block a device in [0, n).
// Sticky placements keep a tile where it is most of the time, so runs span
// several blocks and still change device inside a segment; the others draw
// every block afresh.
func randomPlacement(rng *rand.Rand, costs []supernet.LayerCost, n int) *supernet.Placement {
	p := supernet.LocalPlacement(costs)
	sticky := rng.Intn(2) == 0
	for k := range p.Devices {
		for ti := range p.Devices[k] {
			if sticky && k > 0 && len(p.Devices[k-1]) == len(p.Devices[k]) && rng.Intn(4) != 0 {
				p.Devices[k][ti] = p.Devices[k-1][ti]
			} else {
				p.Devices[k][ti] = rng.Intn(n)
			}
		}
	}
	return p
}

func requireSameBits(t *testing.T, what string, got, want *tensor.Tensor) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %v, want %v", what, got.Shape, want.Shape)
	}
	for i := range want.Data {
		// Two NaNs are no agreement: with poisoned workspaces a NaN logit is a
		// stale or unwritten activation, on either side.
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) || got.Data[i] != got.Data[i] {
			t.Fatalf("%s: logit %d is %v, layer-by-layer execution gives %v", what, i, got.Data[i], want.Data[i])
		}
	}
}

// TestFusedMatchesLayerwise is the property the whole change rests on: for
// random submodels, grids, bitwidths, batch sizes and placements — mixed
// local and remote tiles, device changes inside a segment, geometry where a
// stride splits an odd extent, a health gate redirecting some runs — the
// scheduler's logits are bit-identical to layer-by-layer execution.
func TestFusedMatchesLayerwise(t *testing.T) {
	type space struct {
		arch  *supernet.Arch
		cases int
		// res pins the resolution (0 = whatever the random config drew).
		res int
	}
	spaces := []space{
		{arch: supernet.TinyArch(4), cases: 24},
		// 24 px leaves stage 1 a 6x6 input: under 2x2 its stride-2 block
		// reads 4+2 rows where stage 0 wrote 3+3.
		{arch: supernet.TinyArch(4), cases: 12, res: 24},
	}
	if !testing.Short() {
		// 160 px leaves the last stage a 10x10 input: 6+4 against 5+5.
		spaces = append(spaces, space{arch: supernet.DefaultArch(), cases: 2, res: 160})
	}
	for si, sp := range spaces {
		net := supernet.New(sp.arch, int64(40+si))
		sched, cleanup := testCluster(t, net, 3, 0, 0)
		var gated atomic.Uint64
		sched.Gate = func(int) bool { return gated.Add(1)%4 != 0 }

		rng := rand.New(rand.NewSource(int64(100 + si)))
		for c := 0; c < sp.cases; c++ {
			cfg := sp.arch.RandomConfig(rng)
			if sp.res != 0 {
				cfg.Resolution = sp.res
				// Misalignment needs one grid on both sides of a stride.
				for i := range cfg.Layers {
					cfg.Layers[i].Partition = supernet.Partition{Gy: 2, Gx: 2}
				}
			}
			costs, err := sp.arch.Costs(cfg)
			if err != nil {
				t.Fatal(err)
			}
			d := &supernet.Decision{Config: cfg, Placement: randomPlacement(rng, costs, sched.NumDevices())}
			// Half the inputs arrive at the decision's resolution (no
			// resize), half need one.
			side := cfg.Resolution
			if rng.Intn(2) == 0 {
				side += 8
			}
			x := randInput(rng, 1+rng.Intn(3), 3, side, side)

			rep, err := sched.Infer(x, d)
			if err != nil {
				t.Fatalf("space %d case %d (%v): %v", si, c, cfg, err)
			}
			requireSameBits(t, cfg.String(), rep.Logits, layerwise(t, net, x, cfg))

			tiles := 0
			for _, ls := range cfg.Layers {
				tiles += ls.Partition.NumTiles()
			}
			if rep.LocalTiles+rep.RemoteTiles != tiles {
				t.Fatalf("report counts %d local + %d remote block executions, the decision has %d",
					rep.LocalTiles, rep.RemoteTiles, tiles)
			}
		}
		cleanup()
		if sp.res != 0 && gated.Load() == 0 {
			t.Fatal("the health gate was never consulted")
		}
	}
}

// allOn places every tile of every block of cfg by dev(tile).
func allOn(t *testing.T, a *supernet.Arch, cfg *supernet.Config, dev func(tile int) int) *supernet.Decision {
	t.Helper()
	costs, err := a.Costs(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := supernet.LocalPlacement(costs)
	for k := range p.Devices {
		for ti := range p.Devices[k] {
			p.Devices[k][ti] = dev(ti)
		}
	}
	return &supernet.Decision{Config: cfg, Placement: p}
}

// TestTilesOfOneDeviceOverlap: the runs one device owns in a segment are in
// flight together — its daemon has two handler invocations active at once —
// and the logits still equal layer-by-layer execution bit for bit.
func TestTilesOfOneDeviceOverlap(t *testing.T) {
	a := supernet.TinyArch(4)
	net := supernet.New(a, 21)
	active := testutil.NewOverlap()
	srv := rpcx.NewServer()
	srv.Handle(ExecBlockMethod, active.Wrap(NewExecutor(net).ExecBlockHandler()))
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
	sched := NewScheduler(net, []*rpcx.Client{cl})

	cfg := a.MinConfig()
	for i := range cfg.Layers {
		cfg.Layers[i].Partition = supernet.Partition{Gy: 1, Gx: 2}
		cfg.Layers[i].Quant = tensor.Bits8
	}
	x := randInput(rand.New(rand.NewSource(22)), 1, 3, 32, 32)
	rep, err := sched.Infer(x, allOn(t, a, cfg, func(int) int { return 1 }))
	if err != nil {
		t.Fatal(err)
	}
	requireSameBits(t, "both tiles on one device", rep.Logits, layerwise(t, net, x, cfg))
	if peak := active.Peak(); peak < 2 {
		t.Fatalf("at most %d exec.block invocation active on the daemon at a time, want 2: tiles of one device did not overlap", peak)
	}
}

// TestRunSegmentation pins where runs break on the two decisions the
// benchmark serves: the paper-scale minimum under 2x2 on two devices is two
// segments of four tiles, and the tiny 1x1 net is a single run.
func TestRunSegmentation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))

	a := supernet.DefaultArch()
	net := supernet.New(a, 50)
	sched, cleanup := testCluster(t, net, 3, 0, 0)
	defer cleanup()
	cfg := a.MinConfig()
	for i := range cfg.Layers {
		cfg.Layers[i].Partition = supernet.Partition{Gy: 2, Gx: 2}
	}
	rep, err := sched.Infer(randInput(rng, 1, 3, 160, 160), allOn(t, a, cfg, func(ti int) int { return 1 + ti%2 }))
	if err != nil {
		t.Fatal(err)
	}
	// Blocks 0-7 line up; the stride-2 block entering the last stage does
	// not (10 rows arrive as 5+5, it reads 6+4); blocks 8-9 line up.
	if calls := sched.Stats().RemoteCalls; calls != 8 {
		t.Fatalf("%d exec.block calls, want 8 (2 segments x 4 tiles)", calls)
	}
	if rep.RemoteTiles != 40 || rep.LocalTiles != 0 {
		t.Fatalf("report %d remote / %d local block executions, want 40 / 0", rep.RemoteTiles, rep.LocalTiles)
	}

	ta := supernet.TinyArch(4)
	tnet := supernet.New(ta, 51)
	tsched, tcleanup := testCluster(t, tnet, 2, 0, 0)
	defer tcleanup()
	var consulted atomic.Uint64
	tsched.Gate = func(int) bool { consulted.Add(1); return true }
	tcfg := ta.MinConfig()
	x := randInput(rng, 1, 3, 24, 24)
	rep, err = tsched.Infer(x, allOn(t, ta, tcfg, func(int) int { return 1 }))
	if err != nil {
		t.Fatal(err)
	}
	if calls := tsched.Stats().RemoteCalls; calls != 1 || consulted.Load() != 1 {
		t.Fatalf("%d calls, gate consulted %d times: the tiny 1x1 net must be one run", calls, consulted.Load())
	}
	if rep.RemoteTiles != tcfg.NumLayers() {
		t.Fatalf("report %d remote block executions, want %d", rep.RemoteTiles, tcfg.NumLayers())
	}
	rep, err = tsched.Infer(x, allOn(t, ta, tcfg, func(int) int { return 0 }))
	if err != nil {
		t.Fatal(err)
	}
	if rep.LocalTiles != tcfg.NumLayers() || tsched.Stats().RemoteCalls != 1 {
		t.Fatalf("local run: %d local block executions, %d calls in total", rep.LocalTiles, tsched.Stats().RemoteCalls)
	}
}

// TestModelAndSchedulerAgreeOnTransferPhases: the cost model and the
// scheduler read one alignment predicate, so on any config they count the
// same transfers. With tile 0 of every block on device 1 and the rest local,
// the scheduler makes one call per segment; the model, on a link that is all
// delay and no serialization, charges that delay once per scatter and once
// per gather.
func TestModelAndSchedulerAgreeOnTransferPhases(t *testing.T) {
	const delayMs = 1.0
	rng := rand.New(rand.NewSource(12))
	check := func(a *supernet.Arch, sched *Scheduler, cfg *supernet.Config) {
		t.Helper()
		d := allOn(t, a, cfg, func(ti int) int {
			if ti == 0 {
				return 1
			}
			return 0
		})
		costs, err := a.Costs(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cl := device.NewCluster([]device.Kind{device.RaspberryPi4, device.RaspberryPi4}, 1e12, delayMs)
		br, err := supernet.EstimateLatency(costs, cl, d.Placement)
		if err != nil {
			t.Fatal(err)
		}
		before := sched.Stats().RemoteCalls
		if _, err := sched.Infer(randInput(rng, 1, 3, cfg.Resolution, cfg.Resolution), d); err != nil {
			t.Fatal(err)
		}
		calls := sched.Stats().RemoteCalls - before
		if phases := math.Round(br.TransferSec * 1000 / delayMs); phases != float64(2*calls) {
			t.Fatalf("%v: the model charges %v transfer phases, the scheduler made %d calls (want 2 phases a call)",
				cfg, phases, calls)
		}
	}

	a := supernet.TinyArch(4)
	net := supernet.New(a, 60)
	sched, cleanup := testCluster(t, net, 2, 0, 0)
	defer cleanup()
	for c := 0; c < 40; c++ {
		check(a, sched, a.RandomConfig(rng))
	}
	if testing.Short() {
		return
	}
	da := supernet.DefaultArch()
	dnet := supernet.New(da, 61)
	dsched, dcleanup := testCluster(t, dnet, 2, 0, 0)
	defer dcleanup()
	cfg := da.MinConfig()
	for i := range cfg.Layers {
		cfg.Layers[i].Partition = supernet.Partition{Gy: 2, Gx: 2}
	}
	check(da, dsched, cfg)
}

// TestLegacyFrameStillExecutes feeds the handler a request captured from the
// gateway as it was before runs existed (6-byte header, one block): it must
// execute as a run of one, so a daemon can be upgraded before its gateway.
func TestLegacyFrameStillExecutes(t *testing.T) {
	frame, err := os.ReadFile("testdata/legacy_exec_block.bin")
	if err != nil {
		t.Fatal(err)
	}
	// The frame was cut for TinyArch(4), seed 7: the stem's output for a
	// 16x16 image, into the first block of the minimum config at 8 bits.
	a := supernet.TinyArch(4)
	net := supernet.New(a, 7)
	resp, err := NewExecutor(net).ExecBlockHandler()(frame)
	if err != nil {
		t.Fatalf("legacy frame refused: %v", err)
	}
	got, err := tensor.DecodeQuantized(bytes.NewReader(resp))
	if err != nil {
		t.Fatal(err)
	}
	in, err := tensor.DecodeQuantized(bytes.NewReader(frame[legacyHeaderLen:]))
	if err != nil {
		t.Fatal(err)
	}
	cfg := a.MinConfig()
	want, err := net.ExecBlock(0, 0, in.Dequantize(), cfg.Layers[0])
	if err != nil {
		t.Fatal(err)
	}
	if got.Bits != tensor.Bits32 {
		t.Fatalf("answered at %d bits, the frame asked for 32", got.Bits)
	}
	requireSameBits(t, "legacy frame", got.Dequantize(), want)
}

// TestBadRunResponseIsTyped: a daemon that answers a run with a tensor of
// the wrong size, or with bytes that are no tensor, costs the request a
// typed corrupt-frame error naming the device — never a clipped paste into
// the output, and never an index past the tile.
func TestBadRunResponseIsTyped(t *testing.T) {
	a := supernet.TinyArch(4)
	net := supernet.New(a, 70)
	replies := map[string][]byte{"no tensor": {0xde, 0xad}}
	for name, shape := range map[string][]int{
		"one channel":  {1, 1, 8, 8},
		"too large":    {1, 12, 16, 16},
		"wrong batch":  {2, 12, 8, 8},
		"missing rank": {12, 8, 8},
	} {
		replies[name] = encodeQuantized(nil, tensor.Quantize(tensor.New(shape...), tensor.Bits32))
	}
	for name, reply := range replies {
		srv := rpcx.NewServer()
		srv.Handle(ExecBlockMethod, func([]byte) ([]byte, error) { return reply, nil })
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		cl, err := rpcx.Dial(addr, nil)
		if err != nil {
			t.Fatal(err)
		}
		sched := NewScheduler(net, []*rpcx.Client{cl})
		cfg := a.MinConfig()
		for i := range cfg.Layers {
			cfg.Layers[i].Partition = supernet.Partition{Gy: 1, Gx: 2}
		}
		_, err = sched.Infer(tensor.New(1, 3, 32, 32), allOn(t, a, cfg, func(int) int { return 1 }))
		cl.Close()
		srv.Close()
		if !errors.Is(err, ErrBadRunResponse) || fault.Of(err) != fault.CorruptFrame {
			t.Fatalf("%s: got %v (class %v), want ErrBadRunResponse", name, err, fault.Of(err))
		}
		var de *DeviceError
		if errors.As(err, &de) {
			t.Fatalf("%s: a bad reply demoted the device: %v", name, err)
		}
	}
}

// FuzzExecBlockPayload: whatever bytes reach the handler, it answers with an
// error or with a well-formed rank-4 tensor; it never panics and never sizes
// anything by an unchecked header field.
func FuzzExecBlockPayload(f *testing.F) {
	a := supernet.TinyArch(4)
	net := supernet.New(a, 7)
	handler := NewExecutor(net).ExecBlockHandler()

	legacy, err := os.ReadFile("testdata/legacy_exec_block.bin")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(legacy)
	tile := net.ExecStem(tensor.New(1, 3, 16, 16))
	cfg := a.MaxConfig()
	var run []blockRef
	for layer, ls := range cfg.Layers {
		stage, index, _, err := a.BlockAt(cfg, layer)
		if err != nil {
			f.Fatal(err)
		}
		run = append(run, blockRef{stage: stage, index: index, ls: ls})
	}
	for _, n := range []int{1, len(run)} {
		p, err := encodeRunRequest(run[:n], tile)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(p)
		f.Add(p[:len(p)/2])
		f.Add(p[:runHeaderLen+blockDescLen-1])
	}
	// DefaultArch's longest run the benchmark sends, as a header only.
	eight := []byte{runTag, 8}
	for i := 0; i < 8; i++ {
		eight = append(eight, byte(i/2), byte(i%2), 3, 3, 8)
	}
	f.Add(eight)

	f.Fuzz(func(t *testing.T, payload []byte) {
		resp, err := handler(payload)
		if err != nil {
			return
		}
		q, err := tensor.DecodeQuantized(bytes.NewReader(resp))
		if err != nil {
			t.Fatalf("handler answered bytes that do not decode: %v", err)
		}
		if len(q.Shape) != 4 || q.Len() == 0 {
			t.Fatalf("handler answered shape %v", q.Shape)
		}
	})
}
