// Device-swarm example (paper scenario 2): five Raspberry Pi 4 class
// devices running real distributed inference over TCP with emulated links.
// The model is spatially partitioned (FDSP) across the swarm; the example
// exits non-zero unless the distributed logits equal single-device execution
// within 1e-4, and shows the latency effect of the emulated network.
//
// Run with:
//
//	go run ./examples/swarm
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"
	"time"

	"murmuration/internal/monitor"
	"murmuration/internal/netem"
	"murmuration/internal/rpcx"
	"murmuration/internal/runtime"
	"murmuration/internal/supernet"
	"murmuration/internal/tensor"
)

func main() {
	const nDevices = 5
	arch := supernet.TinyArch(4)

	// Local device's supernet.
	local := supernet.New(arch, 7)

	// Start 4 remote executors, each holding the same supernet in memory.
	var clients []*rpcx.Client
	for i := 1; i < nDevices; i++ {
		srv := rpcx.NewServer()
		runtime.NewExecutor(supernet.New(arch, 7)).Register(srv)
		monitor.RegisterHandlers(srv)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		cl, err := rpcx.Dial(addr, netem.NewShaper(1000, 2*time.Millisecond))
		if err != nil {
			log.Fatal(err)
		}
		defer cl.Close()
		clients = append(clients, cl)
	}
	sched := runtime.NewScheduler(local, clients)

	// 2x2 FDSP across devices 0-3, 8-bit activations on the wire.
	cfg := arch.MaxConfig()
	for i := range cfg.Layers {
		cfg.Layers[i].Partition = supernet.Partition{Gy: 2, Gx: 2}
		cfg.Layers[i].Quant = tensor.Bits8
	}
	costs, err := arch.Costs(cfg)
	if err != nil {
		log.Fatal(err)
	}
	p := supernet.LocalPlacement(costs)
	for k := range p.Devices {
		for t := range p.Devices[k] {
			p.Devices[k][t] = t // tile t on device t, aligned across layers
		}
	}

	x := tensor.New(1, 3, 32, 32)
	x.RandNormal(rand.New(rand.NewSource(2)), 0.5)

	rep, err := sched.Infer(x, &supernet.Decision{Config: cfg, Placement: p})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("swarm inference: %v (%d tiles remote, %d local)\n",
		rep.Elapsed.Round(time.Microsecond), rep.RemoteTiles, rep.LocalTiles)

	// Cross-check against monolithic single-device execution, to the bound
	// the runtime's TestDistributedMatchesMonolithic holds.
	const tol = 1e-4
	want, _, err := local.Forward(x, cfg, false)
	if err != nil {
		log.Fatal(err)
	}
	var maxDiff float64
	for i := range want.Data {
		maxDiff = math.Max(maxDiff, math.Abs(float64(rep.Logits.Data[i]-want.Data[i]))) // NaN sticks
	}
	if !(maxDiff <= tol) {
		log.Fatalf("distributed vs single-device max logit diff %.2g exceeds 1e-4", maxDiff)
	}
	fmt.Printf("distributed vs single-device max logit diff: %.2g (equal to single-device execution within 1e-4)\n", maxDiff)

	// Same decision over a degraded network.
	for _, cl := range clients {
		cl.SetLink(5, 50*time.Millisecond)
	}
	rep2, err := sched.Infer(x, &supernet.Decision{Config: cfg, Placement: p})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after degrading links to 5 Mb/s / 50 ms: %v (%.1fx slower)\n",
		rep2.Elapsed.Round(time.Microsecond),
		float64(rep2.Elapsed)/float64(rep.Elapsed))
	fmt.Println("— this is the moment Murmuration's runtime would re-decide:")
	fmt.Println("  fewer partitions, heavier quantization, or a smaller submodel.")
}
