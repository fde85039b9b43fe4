// Command murmurationd is the per-device daemon of a Murmuration deployment:
// it keeps the full supernet resident in memory and serves remote block
// execution plus network-monitoring probes over the rpcx protocol.
// murmuration.NewDaemon builds it; this command parses flags into its config
// and handles signals.
//
// Every device in a deployment must start with the same -arch and -seed so
// the shared supernet weights are identical (in a real deployment the
// weights would be distributed once after NAS training; here deterministic
// initialization plays that role unless -checkpoint is given).
//
// Usage:
//
//	murmurationd -listen :7000 -arch tiny -seed 42
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
	var cfg murmuration.DaemonConfig
	flag.StringVar(&cfg.Listen, "listen", ":7000", "address to serve rpcx on")
	archName := flag.String("arch", "tiny", "supernet search space: tiny or default")
	seed := flag.Int64("seed", 42, "deterministic weight seed (must match across devices)")
	classes := flag.Int("classes", 4, "classifier classes for the tiny arch")
	checkpoint := flag.String("checkpoint", "", "optional supernet checkpoint to load")
	grace := flag.Duration("grace", 10*time.Second, "drain window for in-flight requests on shutdown")
	flag.Float64Var(&cfg.InjectSlowdown, "inject-slowdown", 1, "FAULT INJECTION: multiply compute latency of every block execution (1 = off; heartbeats are unaffected, for gray-failure testing)")
	flag.Float64Var(&cfg.InjectErrorRate, "inject-error-rate", 0, "FAULT INJECTION: fail each exec.block call (one fused run of blocks) with this probability (0 = off)")
	flag.Int64Var(&cfg.InjectSeed, "inject-seed", 1, "FAULT INJECTION: rng seed for -inject-error-rate")
	flag.StringVar(&cfg.IncarnationState, "incarnation-state", "", "path persisting the restart counter; each start mints a fresh incarnation gateways use to fence stale responses (empty = ephemeral, counter restarts at 1)")
	flag.Parse()

	net, err := murmuration.LoadSupernet(*archName, *classes, *seed, *checkpoint)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("supernet %s resident in memory: %d parameters", net.Arch.Name, net.NumParams())
	cfg.Net = net
	d, err := murmuration.NewDaemon(cfg)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("incarnation %#x (restart #%d)", d.Server.Incarnation(), d.Restart())
	if d.Injector != nil {
		log.Printf("FAULT INJECTION armed: slowdown=%.1fx error-rate=%.2f seed=%d",
			cfg.InjectSlowdown, cfg.InjectErrorRate, cfg.InjectSeed)
	}
	fmt.Printf("murmurationd serving on %s (arch=%s seed=%d)\n", d.Addr, net.Arch.Name, *seed)

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	s := <-sig
	log.Printf("%v: draining in-flight requests (grace %v; signal again to force)", s, *grace)
	go func() {
		<-sig
		log.Println("second signal: forcing shutdown")
		os.Exit(1)
	}()
	d.Server.Shutdown(*grace)
	log.Printf("drained (%d heartbeats answered; panics=%d overloads=%d evictions=%d)",
		d.Node.Heartbeats(), d.Server.Panics(), d.Server.Overloads(), d.Server.Evictions())
}
