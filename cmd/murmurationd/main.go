// Command murmurationd is the per-device daemon of a Murmuration deployment:
// it keeps the full supernet resident in memory and serves remote block
// execution plus network-monitoring probes over the rpcx protocol.
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

	"murmuration/internal/cluster"
	"murmuration/internal/monitor"
	"murmuration/internal/nn"
	"murmuration/internal/rpcx"
	"murmuration/internal/runtime"
	"murmuration/internal/supernet"
)

func main() {
	listen := flag.String("listen", ":7000", "address to serve rpcx on")
	archName := flag.String("arch", "tiny", "supernet search space: tiny or default")
	seed := flag.Int64("seed", 42, "deterministic weight seed (must match across devices)")
	classes := flag.Int("classes", 4, "classifier classes for the tiny arch")
	checkpoint := flag.String("checkpoint", "", "optional supernet checkpoint to load")
	grace := flag.Duration("grace", 10*time.Second, "drain window for in-flight requests on shutdown")
	frameChecksum := flag.Bool("frame-checksum", true, "emit CRC32C checksums on rpcx responses (incoming checksums are always verified)")
	maxFrameMB := flag.Int("max-frame-mb", rpcx.DefaultMaxFrameSize>>20, "largest rpcx frame accepted before allocation, MiB")
	connIdleTimeout := flag.Duration("conn-idle-timeout", 5*time.Minute, "evict a connection after this long without a request (0 = never)")
	writeTimeout := flag.Duration("write-timeout", 30*time.Second, "evict a connection whose client will not drain a response within this window (0 = never)")
	maxInflight := flag.Int("max-inflight", 256, "max concurrently executing requests before new calls get a retryable overload refusal (0 = unlimited)")
	injectSlowdown := flag.Float64("inject-slowdown", 1, "FAULT INJECTION: multiply compute latency of every block execution (1 = off; heartbeats are unaffected, for gray-failure testing)")
	injectErrRate := flag.Float64("inject-error-rate", 0, "FAULT INJECTION: fail each exec.block call (one fused run of blocks) with this probability (0 = off)")
	injectSeed := flag.Int64("inject-seed", 1, "FAULT INJECTION: rng seed for -inject-error-rate")
	incState := flag.String("incarnation-state", "", "path persisting the restart counter; each start mints a fresh incarnation gateways use to fence stale responses (empty = ephemeral, counter restarts at 1)")
	flag.Parse()

	var arch *supernet.Arch
	switch *archName {
	case "tiny":
		arch = supernet.TinyArch(*classes)
	case "default":
		arch = supernet.DefaultArch()
	default:
		log.Fatalf("unknown arch %q (want tiny or default)", *archName)
	}

	net := supernet.New(arch, *seed)
	if *checkpoint != "" {
		if err := nn.LoadParams(*checkpoint, net.Params()); err != nil {
			log.Fatalf("load checkpoint: %v", err)
		}
		log.Printf("loaded supernet checkpoint %s", *checkpoint)
	}
	log.Printf("supernet %s resident in memory: %d parameters", arch.Name, net.NumParams())

	srv := rpcx.NewServer()
	srv.MaxFrameSize = *maxFrameMB << 20
	srv.SetChecksum(*frameChecksum)
	srv.ConnIdleTimeout = *connIdleTimeout
	srv.WriteTimeout = *writeTimeout
	srv.MaxInflight = *maxInflight
	inc, err := rpcx.MintIncarnation(*incState)
	if err != nil {
		log.Fatalf("mint incarnation: %v", err)
	}
	srv.SetIncarnation(inc)
	log.Printf("incarnation %#x (restart #%d)", inc, rpcx.IncarnationSeq(inc))
	exec := runtime.NewExecutor(net)
	if *injectSlowdown > 1 || *injectErrRate > 0 {
		// Compute-path fault injection: the handler still answers (and
		// heartbeats stay crisp), so only SLI-driven gray-failure detection
		// can see the sickness — exactly the failure mode under test.
		inj := runtime.NewComputeInjector(exec.ExecBlockHandler())
		inj.SetSlowdown(*injectSlowdown)
		inj.SetErrorRate(*injectErrRate, *injectSeed)
		srv.Handle(runtime.ExecBlockMethod, inj.Handler())
		log.Printf("FAULT INJECTION armed: slowdown=%.1fx error-rate=%.2f seed=%d",
			*injectSlowdown, *injectErrRate, *injectSeed)
	} else {
		exec.Register(srv)
	}
	monitor.RegisterHandlers(srv)
	// After the monitor handlers: the node's counting ping replaces the echo,
	// so gateway heartbeats are answered and tallied here.
	node := cluster.NewNode()
	node.Register(srv)
	addr, err := srv.Listen(*listen)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	fmt.Printf("murmurationd serving on %s (arch=%s seed=%d)\n", addr, arch.Name, *seed)

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	s := <-sig
	log.Printf("%v: draining in-flight requests (grace %v; signal again to force)", s, *grace)
	go func() {
		<-sig
		log.Println("second signal: forcing shutdown")
		os.Exit(1)
	}()
	srv.Shutdown(*grace)
	log.Printf("drained (%d heartbeats answered; panics=%d overloads=%d evictions=%d)",
		node.Heartbeats(), srv.Panics(), srv.Overloads(), srv.Evictions())
}
