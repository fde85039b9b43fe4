// Command murmuration-gateway is the serving front-end of a Murmuration
// deployment: it holds the strategy runtime (decider + cache + scheduler)
// and exposes a concurrent inference service over rpcx. Requests carry their
// own SLO; the gateway classifies them (latency > accuracy > best-effort),
// applies deadline-aware admission control, coalesces compatible requests
// into batched distributed inferences, and sheds load it cannot serve in
// time instead of missing deadlines silently.
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
	"strings"
	"syscall"
	"time"

	"murmuration/internal/adapt"
	"murmuration/internal/cluster"
	"murmuration/internal/device"
	"murmuration/internal/health"
	"murmuration/internal/limit"
	"murmuration/internal/monitor"
	"murmuration/internal/nas"
	"murmuration/internal/netem"
	"murmuration/internal/nn"
	"murmuration/internal/rl/env"
	"murmuration/internal/rl/policy"
	"murmuration/internal/rpcx"
	"murmuration/internal/runtime"
	"murmuration/internal/serve"
	"murmuration/internal/supernet"
)

// Self-protection limits, the values bench/system.go also pins: the rpcx
// server evicts a connection idle for connIdleTimeout or stuck draining a
// response for writeTimeout, and refuses calls past maxInflight with a
// retryable overload error.
const (
	connIdleTimeout = 5 * time.Minute
	writeTimeout    = 30 * time.Second
	maxInflight     = 256
)

func main() {
	listen := flag.String("listen", ":7100", "address to serve the gateway rpcx API on")
	devices := flag.String("devices", "", "comma-separated murmurationd addresses (remote devices)")
	archName := flag.String("arch", "tiny", "supernet search space: tiny or default")
	seed := flag.Int64("seed", 42, "supernet weight seed (must match daemons)")
	classes := flag.Int("classes", 4, "classifier classes for the tiny arch")
	checkpoint := flag.String("checkpoint", "", "optional supernet checkpoint to load")
	bw := flag.Float64("bw", 100, "emulated link bandwidth, Mb/s")
	delay := flag.Float64("delay", 10, "emulated one-way link delay, ms")
	policyCkpt := flag.String("policy", "", "trained policy checkpoint (default: structured search)")
	hidden := flag.Int("hidden", 64, "policy LSTM width (must match checkpoint)")
	workers := flag.Int("workers", 2, "concurrent batch executors")
	maxBatch := flag.Int("max-batch", 8, "max requests coalesced into one inference")
	queueDepth := flag.Int("queue-depth", 64, "per-class queue bound; excess is shed")
	grace := flag.Duration("grace", 10*time.Second, "drain window on shutdown")
	remoteTimeout := flag.Duration("remote-timeout", 30*time.Second, "per-call deadline on device RPCs (0 = none; finite by default so a stalled device cannot wedge workers or shutdown)")
	statsEvery := flag.Duration("stats-every", 0, "periodic stats log interval (0 = off)")
	heartbeatInterval := flag.Duration("heartbeat-interval", 500*time.Millisecond, "device heartbeat probe period (0 disables the failure detector)")
	retries := flag.Int("retries", 3, "max attempts per idempotent device RPC (1 disables retry; re-dial stays on)")
	hedgeBudget := flag.Float64("hedge-budget", 0.05, "max hedged attempts as a fraction of primary tile RPCs (0 disables hedging)")
	minRung := flag.Int("min-rung", runtime.DefaultMaxRung, "deepest degradation rung allowed under deadline pressure (0 pins full quality; see DESIGN.md for the rung table)")
	adaptOn := flag.Bool("adapt", false, "enable online policy adaptation: live outcomes retrain the policy and candidates roll out shadow->canary->full with automatic rollback")
	adaptDir := flag.String("adapt-dir", "", "directory for versioned policy checkpoints and the rollout manifest (empty = promotions do not survive restarts)")
	healthWindow := flag.Duration("health-window", time.Second, "SLI window for gray-failure detection (0 disables the health layer)")
	progressTick := flag.Duration("progress-tick", 100*time.Millisecond, "in-flight progress deadline: a device RPC's frame I/O must advance every two ticks or the call fails as stalled (0 disables the watchdog)")
	retryBudgetFrac := flag.Float64("retry-budget-frac", 0.1, "shared retry budget: speculative attempts (retries, failovers, hedges) allowed as a fraction of first attempts (0 disables the budget)")
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

	var addrs []string
	if *devices != "" {
		addrs = strings.Split(*devices, ",")
	}
	kinds := []device.Kind{device.RaspberryPi4}
	var clients []*rpcx.Client
	var monitors []*monitor.LinkMonitor
	var probes []cluster.ProbeFunc
	for _, addr := range addrs {
		addr = strings.TrimSpace(addr)
		shaper := netem.NewShaper(*bw, time.Duration(*delay*float64(time.Millisecond)))
		cl, err := rpcx.Dial(addr, shaper)
		if err != nil {
			log.Fatalf("dial %s: %v", addr, err)
		}
		defer cl.Close()
		// Retry + re-dial: a device restart must not permanently poison the
		// data path. Only idempotent methods are ever retried.
		cl.SetRetryPolicy(rpcx.RetryPolicy{MaxAttempts: *retries})
		cl.MarkIdempotent(runtime.ExecBlockMethod, monitor.PingMethod, monitor.BulkMethod)
		cl.SetChecksum(true)
		if *progressTick > 0 {
			// A half-open link must fail in bounded time: frame reads and
			// writes that stop advancing abort the call with a typed stall
			// instead of riding out the full -remote-timeout.
			cl.SetProgressPolicy(rpcx.ProgressPolicy{Tick: *progressTick})
		}
		// Learn the device's incarnation up front so the very first data-path
		// responses are fence-checkable; a failure is not fatal (the device
		// may still be starting — the heartbeat path re-handshakes).
		if _, err := cl.Handshake(*remoteTimeout); err != nil {
			log.Printf("handshake %s: %v (incarnation learned on first heartbeat instead)", addr, err)
		}
		clients = append(clients, cl)
		monitors = append(monitors, monitor.NewLinkMonitor(cl))
		kinds = append(kinds, device.RaspberryPi4)

		if *heartbeatInterval > 0 {
			// Heartbeats ride a dedicated client: one call at a time on one
			// connection, so the incarnation it reports is the process behind
			// that connection, and a probe never waits for a data connection
			// or pays the data link's emulated delay.
			hb, err := rpcx.Dial(addr, nil)
			if err != nil {
				log.Fatalf("dial heartbeat %s: %v", addr, err)
			}
			defer hb.Close()
			hb.SetRetryPolicy(rpcx.RetryPolicy{MaxAttempts: 1})
			hb.SetChecksum(true)
			probes = append(probes, cluster.PingProbe(hb))
		}
	}

	e := env.New(arch, nas.NewCalibratedPredictor(arch), kinds)
	var decider runtime.Decider
	var pol *policy.Policy
	if *policyCkpt != "" {
		pol = policy.New(e, *hidden, 1)
		if err := nn.LoadParams(*policyCkpt, pol.Params()); err != nil {
			log.Fatalf("load policy: %v", err)
		}
		decider = runtime.DeciderFunc(pol.GreedyDecision)
		log.Println("decider: trained RL policy")
	} else {
		decider = runtime.DeciderFunc(func(c env.Constraint) (*env.Decision, error) {
			return env.StructuredSearch(e, c)
		})
		log.Println("decider: structured search (no policy checkpoint given)")
	}

	sched := runtime.NewScheduler(net, clients)
	sched.RemoteTimeout = *remoteTimeout
	if *hedgeBudget > 0 {
		sched.Hedge = &runtime.HedgePolicy{BudgetFrac: *hedgeBudget}
	}
	if *retryBudgetFrac > 0 {
		// One bucket for every speculative mechanism: rpcx retries, scheduler
		// failovers, and hedges all withdraw from it, so their combined rate
		// stays bounded at roughly this fraction of primary traffic even when
		// a correlated failure makes all of them want to fire at once.
		sched.SetRetryBudget(limit.NewBudget(limit.BudgetOptions{Ratio: *retryBudgetFrac}))
		log.Printf("retry budget on (%.0f%% of primary attempts)", *retryBudgetFrac*100)
	}
	rt := runtime.New(sched, decider, runtime.NewStrategyCache(64, 25, 5, 10), monitors)
	for i := range addrs {
		rt.SetLinkState(i, *bw, *delay)
		if _, err := monitors[i].Probe(); err != nil {
			log.Printf("probe device %d: %v (using manual link state)", i+1, err)
		}
	}

	// Flag 0 means "never degrade"; Options.MaxRung uses negative for that
	// (its zero value selects the default ladder depth).
	maxRung := *minRung
	if maxRung <= 0 {
		maxRung = -1
	}
	gw := serve.New(rt, serve.Options{
		Workers:    *workers,
		MaxBatch:   *maxBatch,
		QueueDepth: *queueDepth,
		MaxRung:    maxRung,
		OnDeviceError: func(dev int, err error) {
			log.Printf("device %d failed a batch (failing over): %v", dev, err)
		},
		OnRestart: func(dev int, incarnation uint64) {
			log.Printf("device %d restarted (incarnation %#x, restart #%d): re-probing link",
				dev, incarnation, rpcx.IncarnationSeq(incarnation))
			// Capability re-negotiation: the replacement process may sit on a
			// different link (or host); measure it before traffic returns.
			if i := dev - 1; i >= 0 && i < len(monitors) {
				if s, err := monitors[i].Probe(); err == nil {
					rt.SetLinkState(i, s.BandwidthMbps, s.DelayMs)
				} else {
					log.Printf("re-probe device %d: %v (keeping previous link state)", dev, err)
				}
			}
		},
	})

	// Gray-failure immunity: tile-call SLIs feed a per-device health tracker
	// that quarantines devices whose compute path is sick even while their
	// heartbeats stay crisp, and ramps them back in gradually.
	if *healthWindow > 0 && len(clients) > 0 {
		gw.AttachHealth(serve.HealthOptions{Tracker: health.Options{Window: *healthWindow}})
		log.Printf("gray-failure health layer on (window %v)", *healthWindow)
	}

	// Online adaptation: the controller becomes the runtime's decider, taps
	// the gateway's outcome stream, retrains a private clone of the policy in
	// the background, and promotes candidates shadow->canary->full with
	// automatic rollback to the last good version.
	var ctl *adapt.Controller
	if *adaptOn {
		if pol == nil {
			// No checkpoint: start from a fresh policy and let live outcomes
			// train it. The incumbent (structured search) keeps serving until
			// a candidate earns promotion.
			pol = policy.New(e, *hidden, 1)
		}
		remotes := len(clients)
		if remotes < 1 {
			remotes = 1
		}
		space := env.ConstraintSpace{
			Type: env.LatencySLO, SLOMin: 10, SLOMax: 10_000,
			BwMinMbps: 10, BwMaxMbps: 1000, DelayMin: 1, DelayMax: 200,
			Points: 8, Remotes: remotes,
		}
		var err error
		ctl, err = adapt.New(adapt.Config{
			Runtime:   rt,
			Incumbent: decider,
			Policy:    pol,
			Space:     space,
			Dir:       *adaptDir,
		})
		if err != nil {
			log.Fatalf("adaptation controller: %v", err)
		}
		rt.SwapDecider(ctl)
		ctl.AttachGateway(gw)
		ctl.Start()
		log.Printf("online adaptation on (dir %q, policy v%d)", *adaptDir, ctl.PolicyVersion())
	}

	var mgr *cluster.Manager
	if len(probes) > 0 {
		mgr = cluster.NewManager(probes, cluster.Options{HeartbeatInterval: *heartbeatInterval})
		gw.AttachCluster(mgr)
		go func() {
			for batch := range mgr.Subscribe() {
				for _, ev := range batch {
					log.Printf("cluster: device %d %v -> %v", ev.Member+1, ev.From, ev.To)
				}
			}
		}()
		mgr.Start()
		log.Printf("failure detector on %d devices (heartbeat %v)", len(probes), *heartbeatInterval)
	}

	srv := rpcx.NewServer()
	srv.ConnIdleTimeout = connIdleTimeout
	srv.WriteTimeout = writeTimeout
	srv.MaxInflight = maxInflight
	gw.Register(srv)
	addr, err := srv.Listen(*listen)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	fmt.Printf("murmuration-gateway serving on %s (arch=%s seed=%d devices=%d workers=%d max-batch=%d)\n",
		addr, arch.Name, *seed, len(clients), *workers, *maxBatch)

	if *statsEvery > 0 {
		go func() {
			for range time.Tick(*statsEvery) {
				log.Printf("stats: %+v", gw.Stats())
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
	// Stop accepting and drain in-flight RPCs, then drain the gateway's own
	// queues: requests admitted before the signal still get their outcome.
	srv.Shutdown(*grace)
	gw.Close(*grace)
	if ctl != nil {
		ctl.Close()
		log.Printf("adaptation at shutdown: mode=%v policy=v%d pinned=%v",
			ctl.Mode(), ctl.PolicyVersion(), ctl.Pinned())
	}
	if mgr != nil {
		log.Printf("cluster at shutdown: %s (%+v)", mgr, mgr.CountersSnapshot())
		mgr.Close()
	}
	log.Printf("drained; final stats: %+v", gw.Stats())
}
