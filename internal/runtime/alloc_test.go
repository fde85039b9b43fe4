//go:build !race

package runtime

import (
	"bytes"
	"math/rand"
	goruntime "runtime"
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

// Beyond its logits a call allocates small things: a closure per kernel call
// handed to the worker team (a few dozen bytes each, several hundred calls a
// request), a tiled segment's goroutines, the run headers and the decoded
// shapes. Frames and plans are not among them: a request's frames live in
// buffers the scheduler and the daemons' connections reuse, and a decision's
// plan is compiled once. Each guard allows about one and a half to two times
// what it measured on 2 vCPU; one request frame or reply that went back to
// the allocator costs a third of the remote allowance, every frame of a
// request several times all of it.
const (
	handlerSlack = 16 << 10 // measured 8 KB
	remoteSlack  = 64 << 10 // measured 45 KB, 37 KB of it closures
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

// TestExecBlockRepliesInItsPayload: a daemon serving a tile of the paper path
// — the first segment's blocks on the top-left 2×2 tile — allocates neither
// its reply nor anything it could have kept: the tile is decoded into its
// workspace, every activation and weight crop lives there, and the reply is
// written into the memory the payload was lent in, which an rpcx server grows
// to hold the replies it sends (rpcx.Handler).
func TestExecBlockRepliesInItsPayload(t *testing.T) {
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
	req, err := encodeRunRequest(nil, run, tile)
	if err != nil {
		t.Fatal(err)
	}
	want, err := handler(append([]byte(nil), req...))
	if err != nil {
		t.Fatal(err)
	}
	// The connection's buffer as a server holds it once it has sent a reply
	// this size: each request is read into it, and the handler answers there.
	buf := make([]byte, 0, max(len(req), len(want)))
	got := bytesPerCall(t, 20, func() {
		payload := append(buf[:0], req...)
		resp, err := handler(payload)
		if err != nil {
			t.Fatal(err)
		}
		if &resp[:1][0] != &payload[:1][0] || !bytes.Equal(resp, want) {
			t.Fatalf("reply of %d bytes not written in place of the payload, or not the reply", len(resp))
		}
	})
	t.Logf("%d-block run on a %v tile: %.0f bytes per call, reply %d bytes", len(run), tile.Shape, got, len(want))
	if got > handlerSlack {
		t.Fatalf("exec.block allocates %.0f bytes a call, limit %d", got, handlerSlack)
	}
}

// TestRemoteInferAllocatesLogits: a request on the paper path over two
// loopback daemons allocates, gateway and daemons together, its logits and
// little else. Its frames — each request frame, each reply written by a daemon
// and read by the gateway — live in memory both ends reuse: the scheduler's
// wire buffers and the daemons' connection buffers.
func TestRemoteInferAllocatesLogits(t *testing.T) {
	a := supernet.DefaultArch()
	net := supernet.New(a, 11)
	var clients []*rpcx.Client
	for i := 0; i < 2; i++ {
		srv := rpcx.NewServer()
		NewExecutor(supernet.New(a, 11)).Register(srv)
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
		rep, err := sched.InferBudget(x, d, 0)
		if err != nil {
			t.Fatal(err)
		}
		if rep.RemoteTiles == 0 || rep.LocalTiles != 0 {
			t.Fatalf("%d remote and %d local tiles, want all remote", rep.RemoteTiles, rep.LocalTiles)
		}
		logits = 4 * rep.Logits.Len()
	})
	t.Logf("%.0f bytes per InferBudget, logits %d", got, logits)
	if limit := float64(logits + remoteSlack); got > limit {
		t.Fatalf("InferBudget allocates %.0f bytes a request, limit %.0f (logits %d and %d)", got, limit, logits, remoteSlack)
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
