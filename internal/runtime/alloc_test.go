//go:build !race

package runtime

import (
	"math/rand"
	goruntime "runtime"
	"sync/atomic"
	"testing"

	"murmuration/internal/rpcx"
	"murmuration/internal/supernet"
	"murmuration/internal/tensor"
)

// The allocation guards pin what a steady-state call asks of the allocator
// once its workspaces have grown: what outlives the run — the frames on the
// wire and the logits — and little else. They read the process's byte counter
// around calls, daemons included, so they run without the race detector,
// whose instrumentation allocates on its own account.

// Beyond its frames and logits a call allocates small things: a closure per
// kernel call handed to the worker team (a few dozen bytes each, several
// hundred calls a request), the cost table and tile geometry of the plan, a
// tiled segment's goroutines and the run headers. Each guard allows about
// twice what it measured of them on 2 vCPU; one workspace role that went
// back to the allocator costs more than the allowance on its own.
const (
	handlerSlack = 16 << 10 // measured 10 KB
	remoteSlack  = 96 << 10 // measured 69 KB, 38 KB of it closures
	localSlack   = 32 << 10 // measured 15 KB
)

// bytesPerCall is the heap bytes one call of f allocates, averaged over runs
// calls after enough warm-up calls that every workspace has grown to what
// its uses need (which workspace a tile takes varies from call to call),
// production-style: the workspaces unpoisoned.
func bytesPerCall(t *testing.T, runs int, f func()) float64 {
	t.Helper()
	supernet.PoisonWorkspaces(false)
	defer supernet.PoisonWorkspaces(true)
	for i := 0; i < 10; i++ {
		f()
	}
	var m0, m1 goruntime.MemStats
	goruntime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		f()
	}
	goruntime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / float64(runs)
}

// dist2Decision is the benchmark's paper path on the paper-scale net: the
// smallest submodel, every layer cut 2×2 with 8-bit inputs, tiles 0 and 2 of
// every layer on device 1 and tiles 1 and 3 on device 2.
func dist2Decision(t *testing.T, a *supernet.Arch) *supernet.Decision {
	t.Helper()
	cfg := tiled(a.MinConfig())
	costs, err := a.Costs(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := supernet.LocalPlacement(costs)
	for k := range p.Devices {
		copy(p.Devices[k], []int{1, 2, 1, 2})
	}
	return &supernet.Decision{Config: cfg, Placement: p}
}

// TestExecBlockAllocatesItsReply: a daemon serving a tile of the paper path
// — the first segment's blocks on the top-left 2×2 tile — allocates its
// reply frame and nothing it could have kept: the tile is decoded into its
// workspace, every activation and weight crop lives there.
func TestExecBlockAllocatesItsReply(t *testing.T) {
	a := supernet.DefaultArch()
	net := supernet.New(a, 12)
	handler := NewExecutor(net).ExecBlockHandler()
	d := dist2Decision(t, a)
	costs, _ := a.Costs(d.Config)
	var run []blockRef
	for layer := 0; layer == 0 || layer < len(d.Config.Layers) && !costs[1+layer].Regather; layer++ {
		stage, index, _, err := a.BlockAt(d.Config, layer)
		if err != nil {
			t.Fatal(err)
		}
		run = append(run, blockRef{stage: stage, index: index, ls: d.Config.Layers[layer]})
	}
	stem := net.ExecStem(randInput(rand.New(rand.NewSource(12)), 1, 3, 224, 224))
	tile := tensor.CropSpatial(stem, 0, 0, stem.Shape[2]/2, stem.Shape[3]/2)
	payload, err := encodeRunRequest(run, tile)
	if err != nil {
		t.Fatal(err)
	}
	var reply int
	got := bytesPerCall(t, 20, func() {
		resp, err := handler(payload)
		if err != nil {
			t.Fatal(err)
		}
		reply = len(resp)
	})
	t.Logf("%d-block run on a %v tile: %.0f bytes per call, reply frame %d", len(run), tile.Shape, got, reply)
	if limit := float64(reply + handlerSlack); got > limit {
		t.Fatalf("exec.block allocates %.0f bytes a call, limit %.0f (its %d-byte reply and %d)", got, limit, reply, handlerSlack)
	}
}

// TestRemoteInferAllocatesFramesAndLogits: a request on the paper path over
// two loopback daemons allocates, gateway and daemons together, its frames —
// each request frame once, each reply frame twice (written by the daemon,
// read by the client) — its logits, and little else.
func TestRemoteInferAllocatesFramesAndLogits(t *testing.T) {
	a := supernet.DefaultArch()
	net := supernet.New(a, 11)
	var up, down atomic.Int64
	var clients []*rpcx.Client
	for i := 0; i < 2; i++ {
		srv := rpcx.NewServer()
		inner := NewExecutor(supernet.New(a, 11)).ExecBlockHandler()
		srv.Handle(ExecBlockMethod, func(p []byte) ([]byte, error) {
			resp, err := inner(p)
			up.Add(int64(len(p)))
			down.Add(int64(len(resp)))
			return resp, err
		})
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
		clients = append(clients, cl)
	}
	sched := NewScheduler(net, clients)
	d := dist2Decision(t, a)
	x := randInput(rand.New(rand.NewSource(11)), 1, 3, 224, 224)
	var logits int
	const runs = 20
	got := bytesPerCall(t, runs, func() {
		up.Store(0)
		down.Store(0)
		rep, err := sched.InferBudget(x, d, 0)
		if err != nil {
			t.Fatal(err)
		}
		if rep.RemoteTiles == 0 || rep.LocalTiles != 0 {
			t.Fatalf("%d remote and %d local tiles, want all remote", rep.RemoteTiles, rep.LocalTiles)
		}
		logits = 4 * rep.Logits.Len()
	})
	frames := int(up.Load() + 2*down.Load())
	t.Logf("%.0f bytes per InferBudget: frames %d, logits %d", got, frames, logits)
	if limit := float64(frames + logits + remoteSlack); got > limit {
		t.Fatalf("InferBudget allocates %.0f bytes a request, limit %.0f (frames %d, logits %d, %d)", got, limit, frames, logits, remoteSlack)
	}
}

// TestInferAllocatesLittle: a 1×1 local request on the paper-scale net's
// smallest submodel allocates its logits and little else. Before the
// workspace it was 8.4 MB, every activation fresh and zeroed; before the
// workspace held every role of a net that holds, 121 KB.
func TestInferAllocatesLittle(t *testing.T) {
	a := supernet.DefaultArch()
	net := supernet.New(a, 1)
	sched := NewScheduler(net, nil)
	cfg := a.MinConfig()
	costs, _ := a.Costs(cfg)
	d := &supernet.Decision{Config: cfg, Placement: supernet.LocalPlacement(costs)}
	x := randInput(rand.New(rand.NewSource(1)), 1, 3, 224, 224)
	var logits int
	got := bytesPerCall(t, 10, func() {
		rep, err := sched.Infer(x, d)
		if err != nil {
			t.Fatal(err)
		}
		logits = 4 * rep.Logits.Len()
	})
	t.Logf("%.0f bytes per Scheduler.Infer, logits %d", got, logits)
	if limit := float64(logits + localSlack); got > limit {
		t.Fatalf("Scheduler.Infer allocates %.0f bytes a request, limit %.0f (logits %d and %d)", got, limit, logits, localSlack)
	}
}
