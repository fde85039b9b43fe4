package runtime

import (
	"math"
	"os"
	goruntime "runtime"
	"sync"
	"testing"

	"math/rand"

	"murmuration/internal/supernet"
	"murmuration/internal/tensor"
)

// Every test of this package runs with workspace poisoning on (see
// supernet.PoisonWorkspaces): TestDistributedMatchesMonolithic,
// TestFusedMatchesLayerwise and the rest then see a stale or unwritten
// activation — a tile pasted after its workspace moved on, a reply decoded
// into a buffer still being read — as a NaN logit on every run.
func TestMain(m *testing.M) {
	supernet.PoisonWorkspaces(true)
	os.Exit(m.Run())
}

// tiled returns cfg with every layer cut 2x2 and its input quantized to 8
// bits, the paper path's shape.
func tiled(cfg *supernet.Config) *supernet.Config {
	for i := range cfg.Layers {
		cfg.Layers[i].Partition = supernet.Partition{Gy: 2, Gx: 2}
		cfg.Layers[i].Quant = tensor.Bits8
	}
	return cfg
}

// TestLocalTilesMatchLayerwise runs the paper-scale net all-local through
// the scheduler: a 2x2 grid, where four tile goroutines each take a workspace
// and paste into the request's, and the plain 1x1 chain. The logits are
// layer-by-layer execution's bit for bit, also when several requests are in
// flight and workspaces change hands between them.
func TestLocalTilesMatchLayerwise(t *testing.T) {
	a := supernet.DefaultArch()
	net := supernet.New(a, 8)
	sched := NewScheduler(net, nil)
	rng := rand.New(rand.NewSource(8))
	x := randInput(rng, 1, 3, 224, 224)
	type cell struct {
		d    *supernet.Decision
		want *tensor.Tensor
	}
	var cells []cell
	for _, cfg := range []*supernet.Config{tiled(a.MinConfig()), a.MinConfig()} {
		costs, err := a.Costs(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Layer by layer from public functions, each tile quantized on its
		// own as the scheduler does it (the monolithic Forward quantizes the
		// whole map with one scale, so it is the oracle only for 1x1).
		cells = append(cells, cell{&supernet.Decision{Config: cfg, Placement: supernet.LocalPlacement(costs)}, layerwise(t, net, x, cfg)})
	}
	check := func(c cell) {
		rep, err := sched.Infer(x, c.d)
		if err != nil {
			t.Error(err)
			return
		}
		for i := range c.want.Data {
			if v := rep.Logits.Data[i]; math.Float32bits(v) != math.Float32bits(c.want.Data[i]) || v != v {
				t.Errorf("%s: logit %d is %v, layer-by-layer execution gives %v", c.d.Config, i, rep.Logits.Data[i], c.want.Data[i])
				return
			}
		}
	}
	for _, c := range cells {
		check(c)
	}
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				check(cells[(g+i)%len(cells)])
			}
		}(g)
	}
	wg.Wait()
}

// TestLogitsOutliveTheRun: a report's logits are the caller's. The requests
// that follow reuse, and here poison, the workspace they were computed in.
func TestLogitsOutliveTheRun(t *testing.T) {
	a := supernet.DefaultArch()
	net := supernet.New(a, 9)
	sched := NewScheduler(net, nil)
	cfg := a.MinConfig()
	costs, _ := a.Costs(cfg)
	d := &supernet.Decision{Config: cfg, Placement: supernet.LocalPlacement(costs)}
	rng := rand.New(rand.NewSource(9))
	first, err := sched.Infer(randInput(rng, 1, 3, 224, 224), d)
	if err != nil {
		t.Fatal(err)
	}
	kept := append([]float32(nil), first.Logits.Data...)
	for i := 0; i < 2; i++ {
		if _, err := sched.Infer(randInput(rng, 1, 3, 224, 224), d); err != nil {
			t.Fatal(err)
		}
	}
	for i, v := range first.Logits.Data {
		if math.Float32bits(v) != math.Float32bits(kept[i]) {
			t.Fatalf("logit %d of an earlier report changed from %v to %v: it aliases a workspace", i, kept[i], v)
		}
	}
}

// TestInferAllocatesLittle bounds what a steady-state request on the
// paper-scale net's smallest submodel asks of the allocator. Before the
// workspace it was 8.4 MB, every activation fresh and zeroed; what is left is
// the logits, the small SE and pooling vectors and the kernels' closures.
func TestInferAllocatesLittle(t *testing.T) {
	a := supernet.DefaultArch()
	net := supernet.New(a, 1)
	sched := NewScheduler(net, nil)
	cfg := a.MinConfig()
	costs, _ := a.Costs(cfg)
	d := &supernet.Decision{Config: cfg, Placement: supernet.LocalPlacement(costs)}
	x := randInput(rand.New(rand.NewSource(1)), 1, 3, 224, 224)
	supernet.PoisonWorkspaces(false) // measure what production does
	defer supernet.PoisonWorkspaces(true)
	run := func() {
		if _, err := sched.Infer(x, d); err != nil {
			t.Fatal(err)
		}
	}
	run() // grows the workspace
	const runs = 5
	var m0, m1 goruntime.MemStats
	goruntime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		run()
	}
	goruntime.ReadMemStats(&m1)
	perOp := float64(m1.TotalAlloc-m0.TotalAlloc) / runs
	t.Logf("%.0f bytes per Scheduler.Infer", perOp)
	if limit := 1.5 * (1 << 20); perOp > limit {
		t.Fatalf("Scheduler.Infer allocates %.0f bytes a request, limit %.0f", perOp, limit)
	}
}
