// Command murmuration-gateway is the serving front-end of a Murmuration
// deployment: it holds the strategy runtime (decider + cache + scheduler)
// and exposes a concurrent inference service over rpcx. Requests carry their
// own SLO; the gateway classifies them (latency > accuracy > best-effort),
// applies deadline-aware admission control, coalesces compatible requests
// into batched distributed inferences, and sheds load it cannot serve in
// time instead of missing deadlines silently. murmuration.NewGateway builds
// it; this command parses flags into its config and handles signals.
//
// Usage:
//
//	murmuration-gateway -listen :7100 \
//	  -devices 127.0.0.1:7000,127.0.0.1:7001 -bw 100 -delay 10 \
//	  -workers 2 -max-batch 8
//
// SIGINT/SIGTERM drains queued requests for up to -grace before exiting; a
// second signal forces immediate shutdown.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"murmuration"
)

func main() {
	cfg := murmuration.DefaultGatewayConfig()
	flag.StringVar(&cfg.Listen, "listen", ":7100", "address to serve the gateway rpcx API on")
	devices := flag.String("devices", "", "comma-separated murmurationd addresses (remote devices)")
	archName := flag.String("arch", "tiny", "supernet search space: tiny or default")
	seed := flag.Int64("seed", 42, "supernet weight seed (must match daemons)")
	classes := flag.Int("classes", 4, "classifier classes for the tiny arch")
	checkpoint := flag.String("checkpoint", "", "optional supernet checkpoint to load")
	bw := flag.Float64("bw", 100, "emulated link bandwidth, Mb/s")
	delay := flag.Float64("delay", 10, "emulated one-way link delay, ms")
	flag.StringVar(&cfg.PolicyPath, "policy", "", "trained policy checkpoint (default: structured search)")
	flag.IntVar(&cfg.Workers, "workers", cfg.Workers, "concurrent batch executors")
	flag.IntVar(&cfg.MaxBatch, "max-batch", cfg.MaxBatch, "max requests coalesced into one inference")
	flag.IntVar(&cfg.QueueDepth, "queue-depth", cfg.QueueDepth, "per-class queue bound; excess is shed")
	grace := flag.Duration("grace", 10*time.Second, "drain window on shutdown")
	flag.DurationVar(&cfg.RemoteTimeout, "remote-timeout", cfg.RemoteTimeout, "per-call deadline on device RPCs (0 = none; finite by default so a stalled device cannot wedge workers or shutdown)")
	statsEvery := flag.Duration("stats-every", 0, "periodic stats log interval (0 = off)")
	flag.DurationVar(&cfg.Detector.HeartbeatInterval, "heartbeat-interval", cfg.Detector.HeartbeatInterval, "device heartbeat probe period (0 disables the failure detector)")
	flag.IntVar(&cfg.Retries, "retries", cfg.Retries, "max attempts per idempotent device RPC (1 disables retry; re-dial stays on)")
	flag.Float64Var(&cfg.HedgeBudget, "hedge-budget", cfg.HedgeBudget, "max hedged attempts as a fraction of primary tile RPCs (0 disables hedging)")
	flag.IntVar(&cfg.MaxRung, "min-rung", cfg.MaxRung, "deepest degradation rung allowed under deadline pressure (0 pins full quality; see DESIGN.md for the rung table)")
	flag.DurationVar(&cfg.Health.Tracker.Window, "health-window", cfg.Health.Tracker.Window, "SLI window for gray-failure detection (0 disables the health layer)")
	flag.DurationVar(&cfg.ProgressTick, "progress-tick", cfg.ProgressTick, "in-flight progress deadline: a device RPC's frame I/O must advance every two ticks or the call fails as stalled (0 disables it)")
	flag.Float64Var(&cfg.RetryBudgetFrac, "retry-budget-frac", cfg.RetryBudgetFrac, "shared retry budget: speculative attempts (retries, failovers, hedges) allowed as a fraction of first attempts (0 disables the budget)")
	flag.Parse()

	// Flag 0 means "never degrade"; Options.MaxRung uses negative for that
	// (its zero value selects the default ladder depth).
	if cfg.MaxRung <= 0 {
		cfg.MaxRung = -1
	}
	net, err := murmuration.LoadSupernet(*archName, *classes, *seed, *checkpoint)
	if err != nil {
		log.Fatal(err)
	}
	cfg.Net = net
	cfg.Links = murmuration.Links(*devices, *bw, *delay)
	gw, err := murmuration.NewGateway(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("murmuration-gateway serving on %s (arch=%s seed=%d devices=%d workers=%d max-batch=%d)\n",
		gw.Addr, net.Arch.Name, *seed, len(cfg.Links), cfg.Workers, cfg.MaxBatch)

	if *statsEvery > 0 {
		go func() {
			for range time.Tick(*statsEvery) {
				log.Printf("stats: %+v", gw.Serve.Stats())
			}
		}()
	}

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	s := <-sig
	log.Printf("%v: draining (grace %v; signal again to force)", s, *grace)
	go func() {
		<-sig
		log.Println("second signal: forcing shutdown")
		os.Exit(1)
	}()
	gw.Close(*grace)
	log.Printf("drained; final stats: %+v", gw.Serve.Stats())
}
