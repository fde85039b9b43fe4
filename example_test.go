package murmuration_test

import (
	"fmt"
	"log"

	"murmuration"
)

// ExampleNewDeployment trains a supernet and a policy, serves one remote
// device, and runs an SLO-aware distributed inference. README.md quotes it.
func ExampleNewDeployment() {
	arch := murmuration.TinyArch(4)
	net := murmuration.NewSupernet(arch, 42)
	if _, err := murmuration.TrainSupernet(net, murmuration.TrainSupernetOptions{Steps: 300}); err != nil {
		log.Fatal(err)
	}
	kinds := []murmuration.DeviceKind{murmuration.RaspberryPi4, murmuration.GPUDesktop}
	pol, err := murmuration.TrainPolicy(arch, murmuration.TrainPolicyOptions{Kinds: kinds})
	if err != nil {
		log.Fatal(err)
	}

	// Every device holds the same supernet: same arch, same seed.
	addr, stop, err := murmuration.ServeDevice(murmuration.NewSupernet(arch, 42), "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer stop()
	dep, err := murmuration.NewDeployment(net, kinds,
		[]murmuration.Link{{Addr: addr, BandwidthMbps: 200, DelayMs: 5}}, pol.GreedyDecision)
	if err != nil {
		log.Fatal(err)
	}
	defer dep.Close()
	dep.SetSLO(murmuration.SLO{Type: murmuration.LatencySLO, Value: 150})

	x := murmuration.NewInput(1, 3, 32, 32)
	res, err := dep.Infer(x) // SLO-aware distributed inference
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d tiles remote, %d local\n", res.Decision.Config, res.RemoteTiles, res.LocalTiles)
}
