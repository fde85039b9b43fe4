// Command murmuration is the deployment client: it connects to a set of
// murmurationd daemons, sets an SLO, and runs SLO-aware distributed
// inferences on synthetic inputs, printing per-request decisions and
// latencies. Links can be emulated with -bw/-delay (the tc substitute).
//
// Usage:
//
//	murmuration -devices 127.0.0.1:7000,127.0.0.1:7001 \
//	  -slo-type latency -slo 200 -bw 100 -delay 10 -n 5
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"time"

	"murmuration"
)

func main() {
	devices := flag.String("devices", "", "comma-separated murmurationd addresses (remote devices)")
	archName := flag.String("arch", "tiny", "supernet search space: tiny or default")
	seed := flag.Int64("seed", 42, "supernet weight seed (must match daemons)")
	classes := flag.Int("classes", 4, "classifier classes for the tiny arch")
	sloType := flag.String("slo-type", "latency", "latency or accuracy")
	sloValue := flag.Float64("slo", 200, "SLO value (ms for latency, %% for accuracy)")
	bw := flag.Float64("bw", 100, "emulated link bandwidth, Mb/s")
	delay := flag.Float64("delay", 10, "emulated one-way link delay, ms")
	n := flag.Int("n", 5, "number of inferences")
	policyCkpt := flag.String("policy", "", "trained policy checkpoint (default: structured search)")
	flag.Parse()

	net, err := murmuration.LoadSupernet(*archName, *classes, *seed, "")
	if err != nil {
		log.Fatal(err)
	}
	arch := net.Arch
	links := murmuration.Links(*devices, *bw, *delay)
	kinds := []murmuration.DeviceKind{murmuration.RaspberryPi4}
	for range links {
		kinds = append(kinds, murmuration.RaspberryPi4)
	}

	// Without a trained policy the deployment falls back to a structured
	// search per constraint (slower per decision; the strategy cache
	// amortizes it).
	var decider func(murmuration.Constraint) (*murmuration.Decision, error)
	if *policyCkpt != "" {
		p, err := murmuration.LoadPolicy(*policyCkpt, arch, kinds)
		if err != nil {
			log.Fatalf("load policy: %v", err)
		}
		decider = p.GreedyDecision
		fmt.Println("decider: trained RL policy")
	} else {
		fmt.Println("decider: structured search (no policy checkpoint given)")
	}

	dep, err := murmuration.NewDeployment(net, kinds, links, decider)
	if err != nil {
		log.Fatalf("deploy: %v", err)
	}
	defer dep.Close()
	st := murmuration.LatencySLO
	if *sloType == "accuracy" {
		st = murmuration.AccuracySLO
	}
	dep.SetSLO(murmuration.SLO{Type: st, Value: *sloValue})

	rng := rand.New(rand.NewSource(1))
	maxRes := arch.Resolutions[len(arch.Resolutions)-1]
	hits := 0
	for i := 0; i < *n; i++ {
		x := murmuration.NewInput(1, arch.InChannels, maxRes, maxRes)
		x.RandNormal(rng, 0.5)
		res, err := dep.Infer(x)
		if err != nil {
			log.Fatalf("inference %d: %v", i, err)
		}
		if res.CacheHit {
			hits++
		}
		fmt.Printf("inference %d: %v total (decide %v, cache=%v), config %s, %d remote / %d local tiles\n",
			i, res.Elapsed.Round(time.Microsecond), res.DecideTime.Round(time.Microsecond),
			res.CacheHit, res.Decision.Config, res.RemoteTiles, res.LocalTiles)
	}
	fmt.Printf("strategy cache: %d hits, %d misses\n", hits, *n-hits)
}
