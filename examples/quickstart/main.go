// Quickstart: the smallest end-to-end Murmuration deployment — one local
// device plus one in-process remote executor, a latency SLO, and a single
// SLO-aware distributed inference.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"murmuration"
	"murmuration/internal/supernet"
	"murmuration/internal/tensor"
)

func main() {
	// 1. Every device keeps the full supernet in memory (same seed =>
	// identical shared weights, standing in for distributing the trained
	// supernet once).
	arch := murmuration.TinyArch(4)
	net := murmuration.NewSupernet(arch, 42)

	// 2. Start a "remote device": an executor served over TCP.
	addr, stop, err := murmuration.ServeDevice(murmuration.NewSupernet(arch, 42), "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer stop()

	// 3. Deploy across the local device and the remote one, connected
	// through an emulated 100 Mb/s, 5 ms link (the tc substitute). A real
	// deployment decides with the trained SUPREME policy (see
	// cmd/train-policy); the quickstart picks a fixed partitioned strategy:
	// every layer split 1x2, one tile local, one remote.
	decider := func(murmuration.Constraint) (*murmuration.Decision, error) {
		cfg := arch.MaxConfig()
		for i := range cfg.Layers {
			cfg.Layers[i].Partition = supernet.Partition{Gy: 1, Gx: 2}
			cfg.Layers[i].Quant = tensor.Bits8
		}
		costs, err := arch.Costs(cfg)
		if err != nil {
			return nil, err
		}
		p := supernet.LocalPlacement(costs)
		for k := range p.Devices {
			p.Devices[k][1] = 1
		}
		return &murmuration.Decision{Config: cfg, Placement: p}, nil
	}
	dep, err := murmuration.NewDeployment(net,
		[]murmuration.DeviceKind{murmuration.RaspberryPi4, murmuration.GPUDesktop},
		[]murmuration.Link{{Addr: addr, BandwidthMbps: 100, DelayMs: 5}}, decider)
	if err != nil {
		log.Fatal(err)
	}
	defer dep.Close()

	// 4. Set the SLO and infer.
	slo := murmuration.SLO{Type: murmuration.LatencySLO, Value: 200}
	dep.SetSLO(slo)

	x := murmuration.NewInput(1, 3, 32, 32)
	x.RandNormal(rand.New(rand.NewSource(1)), 0.5)
	res, err := dep.Infer(x)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("SLO: latency ≤ %v ms\n", slo.Value)
	fmt.Printf("decision: %s\n", res.Decision.Config)
	fmt.Printf("executed in %v (%d tiles remote, %d local)\n",
		res.Elapsed.Round(time.Microsecond), res.RemoteTiles, res.LocalTiles)
	fmt.Printf("logits: %v\n", res.Logits.Data)
}
