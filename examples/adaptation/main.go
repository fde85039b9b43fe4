// Live-adaptation example: network conditions drift while inference requests
// keep arriving. The runtime's monitor measures the link, the linear-
// regression predictor forecasts where it is heading, strategies are
// precomputed into the cache ahead of time (paper §5.1, "Fast Model
// Adaptation"), and the decision switches without stalling requests.
//
// Run with:
//
//	go run ./examples/adaptation
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"murmuration/internal/device"
	"murmuration/internal/monitor"
	"murmuration/internal/nas"
	"murmuration/internal/netem"
	"murmuration/internal/rl/env"
	"murmuration/internal/rpcx"
	"murmuration/internal/runtime"
	"murmuration/internal/supernet"
	"murmuration/internal/tensor"
)

func main() {
	arch := supernet.TinyArch(4)
	local := supernet.New(arch, 9)

	srv := rpcx.NewServer()
	runtime.NewExecutor(supernet.New(arch, 9)).Register(srv)
	monitor.RegisterHandlers(srv)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	shaper := netem.NewShaper(400, 5*time.Millisecond)
	client, err := rpcx.Dial(addr, shaper)
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	_ = env.New(arch, nas.NewCalibratedPredictor(arch),
		[]device.Kind{device.RaspberryPi4, device.GPUDesktop})

	// Decider: offload everything when the (monitored) link is good, fall
	// back to a small local model when it is not — the adaptive choice the
	// RL policy learns; here spelled out so the example is self-contained.
	decider := runtime.DeciderFunc(func(c env.Constraint) (*env.Decision, error) {
		goodLink := len(c.BandwidthMbps) > 0 && c.BandwidthMbps[0] > 50
		var cfg *supernet.Config
		if goodLink {
			cfg = arch.MaxConfig()
		} else {
			cfg = arch.MinConfig()
			for i := range cfg.Layers {
				cfg.Layers[i].Quant = tensor.Bits8
			}
		}
		costs, err := arch.Costs(cfg)
		if err != nil {
			return nil, err
		}
		p := supernet.LocalPlacement(costs)
		if goodLink {
			for k := range p.Devices {
				for t := range p.Devices[k] {
					p.Devices[k][t] = 1
				}
			}
		}
		return &env.Decision{Config: cfg, Placement: p}, nil
	})

	mon := monitor.NewLinkMonitor(client)
	mon.BulkBytes = 512 * 1024
	sched := runtime.NewScheduler(local, []*rpcx.Client{client})
	rt := runtime.New(sched, decider, runtime.NewStrategyCache(32, 25, 5, 10), []*monitor.LinkMonitor{mon})
	rt.SetSLO(runtime.SLO{Type: env.LatencySLO, Value: 150})

	rng := rand.New(rand.NewSource(3))
	x := tensor.New(1, 3, 32, 32)
	x.RandNormal(rng, 0.5)

	// The link degrades step by step; each round: probe, precompute for the
	// forecast, then serve a request.
	for round, bw := range []float64{400, 300, 100, 40, 10} {
		shaper.SetRate(bw)
		// A few probes per round so the EMA tracks the drift.
		for i := 0; i < 3; i++ {
			if _, err := mon.Probe(); err != nil {
				log.Fatal(err)
			}
		}
		if err := rt.Precompute(500 * time.Millisecond); err != nil {
			log.Printf("precompute: %v", err)
		}
		res, err := rt.Infer(x)
		if err != nil {
			log.Fatal(err)
		}
		cur := mon.Current()
		pred := mon.Predict(500 * time.Millisecond)
		fmt.Printf("round %d: link≈%.0f Mb/s (forecast %.0f) → %s, %v, decide %v (cache=%v)\n",
			round, cur.BandwidthMbps, pred.BandwidthMbps,
			placementSketch(res.Decision), res.Report.Elapsed.Round(time.Microsecond),
			res.DecideTime.Round(time.Microsecond), res.CacheHit)
	}
	cs := rt.Cache.Stats()
	fmt.Printf("\nstrategy cache: %d hits / %d misses\n", cs.Hits, cs.Misses)
	fmt.Println("Decisions take microseconds (cache or cheap decider), so adaptation")
	fmt.Println("never stalls the request path; when the link collapses the runtime")
	fmt.Println("switches to a small local submodel and latency drops ~100x.")
}

func placementSketch(d *env.Decision) string {
	remote := 0
	total := 0
	for _, layer := range d.Placement.Devices {
		for _, dev := range layer {
			total++
			if dev != 0 {
				remote++
			}
		}
	}
	if remote == 0 {
		return fmt.Sprintf("small local model (%s)", d.Config)
	}
	return fmt.Sprintf("offloaded %d/%d tiles (%s)", remote, total, d.Config)
}
