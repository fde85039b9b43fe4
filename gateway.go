package murmuration

import (
	"errors"
	"fmt"
	"log"
	"strings"
	"time"

	"murmuration/internal/cluster"
	"murmuration/internal/device"
	"murmuration/internal/health"
	"murmuration/internal/limit"
	"murmuration/internal/monitor"
	"murmuration/internal/nas"
	"murmuration/internal/netem"
	"murmuration/internal/rl/env"
	"murmuration/internal/rl/policy"
	"murmuration/internal/rpcx"
	"murmuration/internal/runtime"
	"murmuration/internal/serve"
)

// GatewayConfig configures NewGateway; DefaultGatewayConfig holds
// cmd/murmuration-gateway's flag defaults. The fields above Options are the
// flags of the same meaning: as with them, a zero timeout, tick or fraction
// turns its mechanism off. Options, Detector and Health mean what they mean
// in their packages, except that a zero Detector.HeartbeatInterval or
// Health.Tracker.Window leaves that layer out.
type GatewayConfig struct {
	Net             *Supernet // the local device's supernet
	Listen          string
	Links           []Link                              // Links[i] is placement device i+1
	PolicyPath      string                              // its LSTM width is read from the file
	Decider         func(Constraint) (*Decision, error) // replaces the policy or the search
	RemoteTimeout   time.Duration
	Retries         int
	ProgressTick    time.Duration
	HedgeBudget     float64
	RetryBudgetFrac float64
	serve.Options   // NewGateway sets Cluster, OnDeviceError and OnRestart
	Detector        cluster.Options
	Health          serve.HealthOptions
}

// DefaultGatewayConfig returns cmd/murmuration-gateway's flag defaults.
func DefaultGatewayConfig() GatewayConfig {
	return GatewayConfig{
		RemoteTimeout: 30 * time.Second, Retries: 3, ProgressTick: 100 * time.Millisecond,
		HedgeBudget: 0.05, RetryBudgetFrac: 0.1,
		Options:  serve.Options{Workers: 2, MaxBatch: 8, QueueDepth: 64, MaxRung: runtime.DefaultMaxRung},
		Detector: cluster.Options{HeartbeatInterval: 500 * time.Millisecond},
		Health:   serve.HealthOptions{Tracker: health.Options{Window: time.Second}},
	}
}

// Links lists one link per comma-separated address, all at one emulated
// bandwidth and delay.
func Links(addrs string, bandwidthMbps, delayMs float64) []Link {
	var links []Link
	for _, a := range strings.Split(addrs, ",") {
		if a = strings.TrimSpace(a); a != "" {
			links = append(links, Link{Addr: a, BandwidthMbps: bandwidthMbps, DelayMs: delayMs})
		}
	}
	return links
}

// stack is what a Gateway and a Deployment share: a client and a monitor per
// link, the decider, the scheduler and the runtime.
type stack struct {
	rt      *runtime.Runtime
	clients []*rpcx.Client
}

// newStack dials every link and builds the runtime over the clients. kinds
// are the devices' profiles, local first; missing ones are RaspberryPi4.
func newStack(cfg GatewayConfig, kinds []DeviceKind) (_ *stack, err error) {
	for len(kinds) < len(cfg.Links)+1 {
		kinds = append(kinds, device.RaspberryPi4)
	}
	st := &stack{}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	var monitors []*monitor.LinkMonitor
	for _, l := range cfg.Links {
		cl, err := rpcx.Dial(l.Addr, netem.NewShaper(l.BandwidthMbps, time.Duration(l.DelayMs*float64(time.Millisecond))))
		if err != nil {
			return nil, fmt.Errorf("dial %s: %w", l.Addr, err)
		}
		st.clients = append(st.clients, cl)
		monitors = append(monitors, monitor.NewLinkMonitor(cl))
		// Retry and re-dial, so a device restart does not poison the data
		// path; only idempotent methods are retried.
		cl.SetRetryPolicy(rpcx.RetryPolicy{MaxAttempts: cfg.Retries})
		cl.MarkIdempotent(runtime.ExecBlockMethod, monitor.PingMethod, monitor.BulkMethod)
		cl.SetChecksum(true)
		if cfg.ProgressTick > 0 {
			cl.SetProgressPolicy(rpcx.ProgressPolicy{Tick: cfg.ProgressTick})
		}
		// The incarnation makes the first replies fence-checkable. A device
		// still starting has it learned on its first heartbeat instead.
		if _, err := cl.Handshake(cfg.RemoteTimeout); err != nil {
			log.Printf("handshake %s: %v (incarnation learned on first heartbeat instead)", l.Addr, err)
		}
	}

	e := env.New(cfg.Net.Arch, nas.NewCalibratedPredictor(cfg.Net.Arch), kinds)
	decider := runtime.DeciderFunc(cfg.Decider)
	switch {
	case cfg.Decider != nil:
	case cfg.PolicyPath != "":
		pol, err := policy.Load(e, cfg.PolicyPath)
		if err != nil {
			return nil, fmt.Errorf("load policy: %w", err)
		}
		decider = pol.GreedyDecision
	default:
		decider = func(c env.Constraint) (*env.Decision, error) { return env.StructuredSearch(e, c) }
	}
	sched := runtime.NewScheduler(cfg.Net, st.clients)
	sched.RemoteTimeout = cfg.RemoteTimeout
	if cfg.HedgeBudget > 0 {
		sched.Hedge = &runtime.HedgePolicy{BudgetFrac: cfg.HedgeBudget}
	}
	if cfg.RetryBudgetFrac > 0 {
		// One bucket for rpcx retries, scheduler failovers and hedges, so
		// their sum stays bounded when a correlated failure fires them all.
		sched.SetRetryBudget(limit.NewBudget(limit.BudgetOptions{Ratio: cfg.RetryBudgetFrac}))
	}
	st.rt = runtime.New(sched, decider, runtime.NewStrategyCache(64, 25, 5, 10), monitors)
	// Seed each link with its nominal state, then probe it once: a sample
	// replaces the nominal state, a failed probe keeps it.
	for i, l := range cfg.Links {
		st.rt.SetLinkState(i, l.BandwidthMbps, l.DelayMs)
		if _, err := monitors[i].Probe(); err != nil {
			log.Printf("probe device %d: %v (using manual link state)", i+1, err)
		}
	}
	return st, nil
}

func (st *stack) close() (err error) {
	for _, c := range st.clients {
		err = errors.Join(err, c.Close())
	}
	return err
}

// Gateway is a running serving gateway.
type Gateway struct {
	Serve   *serve.Gateway
	Runtime *runtime.Runtime
	Cluster *cluster.Manager // nil without a detector
	Addr    string           // where the rpcx API listens

	stack
	srv *rpcx.Server
}

// NewGateway builds and starts the gateway cfg describes, in the order
// DESIGN.md §2.7 gives; Close stops it.
func NewGateway(cfg GatewayConfig) (_ *Gateway, err error) {
	st, err := newStack(cfg, nil)
	if err != nil {
		return nil, err
	}
	g := &Gateway{Runtime: st.rt, stack: *st}
	defer func() {
		if err != nil {
			g.Close(0)
		}
	}()
	switch {
	case cfg.Decider != nil:
	case cfg.PolicyPath != "":
		log.Println("decider: trained RL policy")
	default:
		log.Println("decider: structured search (no policy checkpoint given)")
	}
	if cfg.RetryBudgetFrac > 0 {
		log.Printf("retry budget on (%.0f%% of primary attempts)", cfg.RetryBudgetFrac*100)
	}
	if cfg.Detector.HeartbeatInterval > 0 && len(cfg.Links) > 0 {
		// Heartbeats ride clients of their own, so a probe names the process
		// behind its one connection and never waits behind data.
		probes := make([]cluster.ProbeFunc, len(cfg.Links))
		for i, l := range cfg.Links {
			hb, err := rpcx.Dial(l.Addr, nil)
			if err != nil {
				return nil, fmt.Errorf("dial heartbeat %s: %w", l.Addr, err)
			}
			g.clients = append(g.clients, hb)
			hb.SetRetryPolicy(rpcx.RetryPolicy{MaxAttempts: 1})
			hb.SetChecksum(true)
			probes[i] = cluster.PingProbe(hb)
		}
		g.Cluster = cluster.NewManager(probes, cfg.Detector)
		// The detector starts from what the data clients' handshakes learned,
		// so a restart before its first heartbeat is still a restart.
		for i := range cfg.Links {
			g.Cluster.SeedIncarnation(i, g.clients[i].RemoteIncarnation())
		}
	}

	opts := cfg.Options
	opts.Cluster = g.Cluster
	opts.OnDeviceError = func(dev int, err error) {
		log.Printf("device %d failed a batch (failing over): %v", dev, err)
	}
	opts.OnRestart = func(dev int, inc uint64) {
		log.Printf("device %d restarted (incarnation %#x, restart #%d): re-probing link",
			dev, inc, rpcx.IncarnationSeq(inc))
		// The new process may sit on another link: measure it before
		// traffic returns.
		if s, err := g.Runtime.Monitors[dev-1].Probe(); err == nil {
			g.Runtime.SetLinkState(dev-1, s.BandwidthMbps, s.DelayMs)
		} else {
			log.Printf("re-probe device %d: %v (keeping previous link state)", dev, err)
		}
	}
	g.Serve = serve.New(g.Runtime, opts)
	if cfg.Health.Tracker.Window > 0 && len(cfg.Links) > 0 {
		g.Serve.AttachHealth(cfg.Health)
		log.Printf("gray-failure health layer on (window %v)", cfg.Health.Tracker.Window)
	}
	if g.Cluster != nil {
		events := g.Cluster.Subscribe()
		go func() {
			for batch := range events {
				for _, ev := range batch {
					log.Printf("cluster: device %d %v -> %v", ev.Member+1, ev.From, ev.To)
				}
			}
		}()
		g.Cluster.Start()
		log.Printf("failure detector on %d devices (heartbeat %v)", g.Cluster.N(), cfg.Detector.HeartbeatInterval)
	}
	g.srv = newServer()
	g.Serve.Register(g.srv)
	if g.Addr, err = g.srv.Listen(cfg.Listen); err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	return g, nil
}

// Close drains the rpcx API, then the serving layer's queues, each for up to
// grace, and closes the rest.
func (g *Gateway) Close(grace time.Duration) {
	if g.srv != nil {
		g.srv.Shutdown(grace)
	}
	if g.Serve != nil {
		g.Serve.Close(grace)
	}
	if g.Cluster != nil {
		log.Printf("cluster at shutdown: %s (%+v)", g.Cluster, g.Cluster.CountersSnapshot())
		g.Cluster.Close()
	}
	g.close()
}

// DaemonConfig configures NewDaemon. Its fields are the cmd/murmurationd
// flags of the same meaning; with Net and Listen set, its zero value runs
// that command's defaults (the seed matters only with an error rate).
type DaemonConfig struct {
	Net              *Supernet
	Listen           string
	IncarnationState string
	InjectSlowdown   float64
	InjectErrorRate  float64
	InjectSeed       int64
}

// Daemon is a running device daemon.
type Daemon struct {
	Server   *rpcx.Server
	Node     *cluster.Node
	Injector *runtime.ComputeInjector // nil unless fault injection is armed
	Addr     string                   // where it listens
}

// NewDaemon starts the daemon cfg describes (DESIGN.md §2.7); Server.Close
// or Server.Shutdown stops it.
func NewDaemon(cfg DaemonConfig) (*Daemon, error) {
	inc, err := rpcx.MintIncarnation(cfg.IncarnationState)
	if err != nil {
		return nil, fmt.Errorf("mint incarnation: %w", err)
	}
	d := &Daemon{Server: newServer(), Node: cluster.NewNode()}
	d.Server.SetIncarnation(inc)
	exec := runtime.NewExecutor(cfg.Net)
	if cfg.InjectSlowdown > 1 || cfg.InjectErrorRate > 0 {
		d.Injector = runtime.NewComputeInjector(exec.ExecBlockHandler())
		d.Injector.SetSlowdown(cfg.InjectSlowdown)
		d.Injector.SetErrorRate(cfg.InjectErrorRate, cfg.InjectSeed)
		d.Server.Handle(runtime.ExecBlockMethod, d.Injector.Handler())
	} else {
		exec.Register(d.Server)
	}
	monitor.RegisterHandlers(d.Server)
	d.Node.Register(d.Server)
	if d.Addr, err = d.Server.Listen(cfg.Listen); err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	return d, nil
}

// Restart is the restart counter the daemon's incarnation carries.
func (d *Daemon) Restart() uint64 { return rpcx.IncarnationSeq(d.Server.Incarnation()) }

// newServer returns an rpcx server with the gateway's and the daemon's
// connection limits.
func newServer() *rpcx.Server {
	srv := rpcx.NewServer()
	srv.ConnIdleTimeout = 5 * time.Minute
	srv.WriteTimeout = 30 * time.Second
	srv.MaxInflight = 256
	return srv
}
