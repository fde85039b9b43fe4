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
//	  -workers 2 -max-batch 8 -linger 2ms
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
	"murmuration/internal/watchdog"
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
	linger := flag.Duration("linger", 2*time.Millisecond, "max wait for a batch to fill; one worker lingers per strategy key, others with the same key run at once (a second linger could only delay its head)")
	queueDepth := flag.Int("queue-depth", 64, "per-class queue bound; excess is shed")
	grace := flag.Duration("grace", 10*time.Second, "drain window on shutdown")
	remoteTimeout := flag.Duration("remote-timeout", 30*time.Second, "per-call deadline on device RPCs (0 = none; finite by default so a stalled device cannot wedge workers or shutdown)")
	statsEvery := flag.Duration("stats-every", 0, "periodic stats log interval (0 = off)")
	heartbeatInterval := flag.Duration("heartbeat-interval", 500*time.Millisecond, "device heartbeat probe period (0 disables the failure detector)")
	suspectAfter := flag.Duration("suspect-after", 0, "silence before a device turns Suspect (default 4x heartbeat interval)")
	downAfter := flag.Duration("down-after", 0, "silence before a device turns Down and is failed over (default 10x heartbeat interval)")
	retries := flag.Int("retries", 3, "max attempts per idempotent device RPC (1 disables retry; re-dial stays on)")
	hedgeAfter := flag.Duration("hedge-after", 0, "fixed delay before hedging an idempotent tile RPC on an alternate device (0 = adaptive, P95 of observed call latencies)")
	hedgeBudget := flag.Float64("hedge-budget", 0.05, "max hedged attempts as a fraction of primary tile RPCs (0 disables hedging)")
	minRung := flag.Int("min-rung", runtime.DefaultMaxRung, "deepest degradation rung allowed under deadline pressure (0 pins full quality; see DESIGN.md for the rung table)")
	ladderHysteresis := flag.Int("ladder-hysteresis", runtime.DefaultLadderHysteresis, "consecutive comfortable completions required to climb one rung back toward full quality")
	frameChecksum := flag.Bool("frame-checksum", true, "emit CRC32C checksums on rpcx frames (incoming checksums are always verified)")
	maxFrameMB := flag.Int("max-frame-mb", rpcx.DefaultMaxFrameSize>>20, "largest rpcx frame accepted before allocation, MiB")
	connIdleTimeout := flag.Duration("conn-idle-timeout", 5*time.Minute, "evict a client connection after this long without a request (0 = never)")
	writeTimeout := flag.Duration("write-timeout", 30*time.Second, "evict a client connection that will not drain a response within this window (0 = never)")
	maxInflight := flag.Int("max-inflight", 256, "max concurrently executing gateway RPCs before new calls get a retryable overload refusal (0 = unlimited)")
	watchdogInterval := flag.Duration("watchdog-interval", 250*time.Millisecond, "resource watchdog sample period (0 disables the watchdog)")
	watchdogGoroutines := flag.Int("watchdog-goroutines", 20000, "goroutine count that trips a brownout (0 = unchecked)")
	watchdogHeapMB := flag.Int("watchdog-heap-mb", 4096, "heap allocation that trips a brownout, MiB (0 = unchecked)")
	adaptOn := flag.Bool("adapt", false, "enable online policy adaptation: live outcomes retrain the policy and candidates roll out shadow->canary->full with automatic rollback")
	adaptInterval := flag.Duration("adapt-interval", 2*time.Second, "adaptation loop cadence (retrain + evaluate + advance)")
	canaryFrac := flag.Float64("canary-frac", 0.2, "fraction of decisions routed to the candidate during canary")
	rollbackSLO := flag.Float64("rollback-slo", 0.7, "SLO-attainment floor; observation windows below it count toward rollback")
	adaptDir := flag.String("adapt-dir", "", "directory for versioned policy checkpoints and the rollout manifest (empty = promotions do not survive restarts)")
	healthWindow := flag.Duration("health-window", time.Second, "SLI window for gray-failure detection (0 disables the health layer)")
	grayLatencyFactor := flag.Float64("gray-latency-factor", 3, "a device is gray when its window p50 tile latency exceeds this multiple of the fleet median")
	grayFailureRate := flag.Float64("gray-failure-rate", 0.30, "a device is gray when its window failure rate reaches this fraction")
	grayWindows := flag.Int("gray-windows", 3, "consecutive gray windows before demotion (Active->Probation, Probation->Quarantined)")
	reintegrateAfter := flag.Duration("reintegrate-after", 10*time.Second, "minimum quarantine dwell before a clean device starts the reintegration ramp")
	quarantineProbeEvery := flag.Duration("quarantine-probe-every", 500*time.Millisecond, "synthetic probe period per quarantined/reintegrating device (negative disables probing)")
	flapSuppress := flag.Float64("flap-suppress", 2500, "flap-damping penalty above which a device's reinstatement is suppressed (each Up/Down flip adds 1000)")
	flapHalfLife := flag.Duration("flap-half-life", 10*time.Second, "flap-damping penalty half-life")
	progressTick := flag.Duration("progress-tick", 100*time.Millisecond, "in-flight progress deadline: a device RPC's frame I/O must advance every two ticks or the call fails as stalled (0 disables the watchdog)")
	progressMinBytes := flag.Int64("progress-min-bytes", 1, "minimum bytes of frame progress per watchdog tick")
	retryBudgetFrac := flag.Float64("retry-budget-frac", 0.1, "shared retry budget: speculative attempts (retries, failovers, hedges) allowed as a fraction of first attempts (0 disables the budget)")
	correlatedLossK := flag.Int("correlated-loss-k", 2, "devices lost within -correlated-loss-window that count as one correlated event and tighten admission (negative disables the detector)")
	correlatedLossWindow := flag.Duration("correlated-loss-window", 2*time.Second, "window for counting correlated device losses")
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
		cl.SetChecksum(*frameChecksum)
		cl.SetMaxFrameSize(*maxFrameMB << 20)
		if *progressTick > 0 {
			// A half-open link must fail in bounded time: frame reads and
			// writes that stop advancing abort the call with a typed stall
			// instead of riding out the full -remote-timeout.
			cl.SetProgressPolicy(rpcx.ProgressPolicy{Tick: *progressTick, MinBytes: *progressMinBytes})
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
			hb.SetChecksum(*frameChecksum)
			hb.SetMaxFrameSize(*maxFrameMB << 20)
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
		sched.Hedge = &runtime.HedgePolicy{After: *hedgeAfter, BudgetFrac: *hedgeBudget}
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
		Workers:              *workers,
		MaxBatch:             *maxBatch,
		MaxLinger:            *linger,
		QueueDepth:           *queueDepth,
		MaxRung:              maxRung,
		LadderHysteresis:     *ladderHysteresis,
		CorrelatedLossK:      *correlatedLossK,
		CorrelatedLossWindow: *correlatedLossWindow,
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
	// heartbeats stay crisp, ramps them back in gradually, and flap-damps
	// devices that cycle Up/Down faster than placement can follow.
	if *healthWindow > 0 && len(clients) > 0 {
		gw.AttachHealth(serve.HealthOptions{
			Tracker: health.Options{
				Window:           *healthWindow,
				LatencyFactor:    *grayLatencyFactor,
				FailureRate:      *grayFailureRate,
				GrayWindows:      *grayWindows,
				ReintegrateAfter: *reintegrateAfter,
			},
			Damper: health.DamperOptions{
				SuppressThreshold: *flapSuppress,
				HalfLife:          *flapHalfLife,
			},
			ProbeEvery: *quarantineProbeEvery,
		})
		log.Printf("gray-failure health layer on (window %v, gray at %.1fx fleet median or %.0f%% failures for %d windows, reintegrate after %v)",
			*healthWindow, *grayLatencyFactor, *grayFailureRate*100, *grayWindows, *reintegrateAfter)
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
			Runtime:     rt,
			Incumbent:   decider,
			Policy:      pol,
			Space:       space,
			Dir:         *adaptDir,
			Interval:    *adaptInterval,
			CanaryFrac:  *canaryFrac,
			RollbackSLO: *rollbackSLO,
		})
		if err != nil {
			log.Fatalf("adaptation controller: %v", err)
		}
		rt.SwapDecider(ctl)
		ctl.AttachGateway(gw)
		ctl.Start()
		log.Printf("online adaptation on (interval %v, canary %.0f%%, rollback floor %.2f, dir %q, policy v%d)",
			*adaptInterval, *canaryFrac*100, *rollbackSLO, *adaptDir, ctl.PolicyVersion())
	}

	var mgr *cluster.Manager
	if len(probes) > 0 {
		mgr = cluster.NewManager(probes, cluster.Options{
			HeartbeatInterval: *heartbeatInterval,
			SuspectAfter:      *suspectAfter,
			DownAfter:         *downAfter,
		})
		gw.AttachCluster(mgr)
		go func() {
			for ev := range mgr.Subscribe() {
				log.Printf("cluster: device %d %v -> %v", ev.Member+1, ev.From, ev.To)
			}
		}()
		mgr.Start()
		log.Printf("failure detector on %d devices (heartbeat %v)", len(probes), *heartbeatInterval)
	}

	// Resource watchdog: under goroutine or heap pressure the gateway browns
	// out — best-effort traffic is refused, queues run at half depth, and the
	// degradation ladder floors at serve.BrownoutRung until the pressure
	// clears (hysteresis: several consecutive clear samples).
	var wd *watchdog.Watchdog
	if *watchdogInterval > 0 && (*watchdogGoroutines > 0 || *watchdogHeapMB > 0) {
		wd = watchdog.New(watchdog.Options{
			Interval:      *watchdogInterval,
			MaxGoroutines: *watchdogGoroutines,
			MaxHeapBytes:  uint64(*watchdogHeapMB) << 20,
			OnBrownout: func(reason string) {
				log.Printf("watchdog: brownout (%s)", reason)
				gw.SetBrownout(true)
			},
			OnClear: func() {
				log.Println("watchdog: pressure cleared, brownout released")
				gw.SetBrownout(false)
			},
		})
		gw.AttachWatchdog(wd)
		wd.Start()
		log.Printf("resource watchdog on (every %v: goroutines > %d or heap > %d MiB)",
			*watchdogInterval, *watchdogGoroutines, *watchdogHeapMB)
	}

	srv := rpcx.NewServer()
	srv.MaxFrameSize = *maxFrameMB << 20
	srv.SetChecksum(*frameChecksum)
	srv.ConnIdleTimeout = *connIdleTimeout
	srv.WriteTimeout = *writeTimeout
	srv.MaxInflight = *maxInflight
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
	if wd != nil {
		wd.Close()
	}
	if mgr != nil {
		log.Printf("cluster at shutdown: %s (%+v)", mgr, mgr.CountersSnapshot())
		mgr.Close()
	}
	log.Printf("drained; final stats: %+v", gw.Stats())
}
