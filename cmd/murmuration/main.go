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
	"strings"
	"time"

	"murmuration/internal/device"
	"murmuration/internal/monitor"
	"murmuration/internal/nas"
	"murmuration/internal/netem"
	"murmuration/internal/nn"
	"murmuration/internal/rl/env"
	"murmuration/internal/rl/policy"
	"murmuration/internal/rpcx"
	"murmuration/internal/runtime"
	"murmuration/internal/supernet"
	"murmuration/internal/tensor"
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
	hidden := flag.Int("hidden", 64, "policy LSTM width (must match checkpoint)")
	hedgeAfter := flag.Duration("hedge-after", 0, "fixed delay before hedging an idempotent tile RPC on an alternate device (0 = adaptive, P95 of observed call latencies)")
	hedgeBudget := flag.Float64("hedge-budget", 0, "max hedged attempts as a fraction of primary tile RPCs (0 disables hedging)")
	flag.Parse()

	var arch *supernet.Arch
	switch *archName {
	case "tiny":
		arch = supernet.TinyArch(*classes)
	case "default":
		arch = supernet.DefaultArch()
	default:
		log.Fatalf("unknown arch %q", *archName)
	}
	net := supernet.New(arch, *seed)

	var addrs []string
	if *devices != "" {
		addrs = strings.Split(*devices, ",")
	}
	kinds := []device.Kind{device.RaspberryPi4}
	var clients []*rpcx.Client
	var monitors []*monitor.LinkMonitor
	for _, addr := range addrs {
		shaper := netem.NewShaper(*bw, time.Duration(*delay*float64(time.Millisecond)))
		cl, err := rpcx.Dial(strings.TrimSpace(addr), shaper)
		if err != nil {
			log.Fatalf("dial %s: %v", addr, err)
		}
		defer cl.Close()
		clients = append(clients, cl)
		monitors = append(monitors, monitor.NewLinkMonitor(cl))
		kinds = append(kinds, device.RaspberryPi4)
	}

	e := env.New(arch, nas.NewCalibratedPredictor(arch), kinds)
	var decider runtime.Decider
	if *policyCkpt != "" {
		p := policy.New(e, *hidden, 1)
		if err := nn.LoadParams(*policyCkpt, p.Params()); err != nil {
			log.Fatalf("load policy: %v", err)
		}
		decider = runtime.DeciderFunc(p.GreedyDecision)
		fmt.Println("decider: trained RL policy")
	} else {
		// Without a trained policy, fall back to a direct search per
		// constraint (slower per decision; the strategy cache amortizes it).
		decider = runtime.DeciderFunc(func(c env.Constraint) (*env.Decision, error) {
			return env.StructuredSearch(e, c)
		})
		fmt.Println("decider: structured search (no policy checkpoint given)")
	}

	sched := runtime.NewScheduler(net, clients)
	if *hedgeBudget > 0 {
		sched.Hedge = &runtime.HedgePolicy{After: *hedgeAfter, BudgetFrac: *hedgeBudget}
	}
	rt := runtime.New(sched, decider, runtime.NewStrategyCache(64, 25, 5, 10), monitors)
	st := env.LatencySLO
	if *sloType == "accuracy" {
		st = env.AccuracySLO
	}
	rt.SetSLO(runtime.SLO{Type: st, Value: *sloValue})
	for i := range addrs {
		rt.SetLinkState(i, *bw, *delay)
		if _, err := monitors[i].Probe(); err != nil {
			log.Printf("probe device %d: %v (using manual link state)", i+1, err)
		}
	}

	rng := rand.New(rand.NewSource(1))
	maxRes := arch.Resolutions[len(arch.Resolutions)-1]
	for i := 0; i < *n; i++ {
		x := tensor.New(1, arch.InChannels, maxRes, maxRes)
		x.RandNormal(rng, 0.5)
		res, err := rt.Infer(x)
		if err != nil {
			log.Fatalf("inference %d: %v", i, err)
		}
		fmt.Printf("inference %d: %v total (decide %v, cache=%v), config %s, %d remote / %d local tiles\n",
			i, res.Report.Elapsed.Round(time.Microsecond), res.DecideTime.Round(time.Microsecond),
			res.CacheHit, res.Decision.Config, res.Report.RemoteTiles, res.Report.LocalTiles)
	}
	cs := rt.Cache.Stats()
	fmt.Printf("strategy cache: %d hits, %d misses\n", cs.Hits, cs.Misses)
}
