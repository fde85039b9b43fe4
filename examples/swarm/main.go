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
	"strings"
	"time"

	"murmuration"
	"murmuration/internal/supernet"
	"murmuration/internal/tensor"
)

func main() {
	const nDevices = 5
	arch := murmuration.TinyArch(4)

	// Local device's supernet.
	local := murmuration.NewSupernet(arch, 7)

	// Start 4 remote daemons, each holding the same supernet in memory.
	var addrs []string
	for i := 1; i < nDevices; i++ {
		addr, stop, err := murmuration.ServeDevice(murmuration.NewSupernet(arch, 7), "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		defer stop()
		addrs = append(addrs, addr)
	}

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
	placed := func(murmuration.Constraint) (*murmuration.Decision, error) {
		return &murmuration.Decision{Config: cfg, Placement: p}, nil
	}
	x := murmuration.NewInput(1, 3, 32, 32)
	x.RandNormal(rand.New(rand.NewSource(2)), 0.5)
	pi := murmuration.RaspberryPi4
	kinds := []murmuration.DeviceKind{pi, pi, pi, pi, pi}
	infer := func(mbps, delayMs float64) *murmuration.InferenceResult {
		dep, err := murmuration.NewDeployment(local, kinds, murmuration.Links(strings.Join(addrs, ","), mbps, delayMs), placed)
		if err != nil {
			log.Fatal(err)
		}
		defer dep.Close()
		res, err := dep.Infer(x)
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	rep := infer(1000, 2)
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
	rep2 := infer(5, 50)
	fmt.Printf("after degrading links to 5 Mb/s / 50 ms: %v (%.1fx slower)\n",
		rep2.Elapsed.Round(time.Microsecond),
		float64(rep2.Elapsed)/float64(rep.Elapsed))
	fmt.Println("— this is the moment Murmuration's runtime would re-decide:")
	fmt.Println("  fewer partitions, heavier quantization, or a smaller submodel.")
}
