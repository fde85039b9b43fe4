package main

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"murmuration/internal/limit"
	"murmuration/internal/monitor"
	"murmuration/internal/netem"
	"murmuration/internal/rl/env"
	"murmuration/internal/rpcx"
	"murmuration/internal/runtime"
	"murmuration/internal/serve"
	"murmuration/internal/supernet"
	"murmuration/internal/tensor"
)

// cmd/murmuration-gateway and cmd/murmurationd flag defaults the bench wires
// by hand, because it builds the same objects in one process.
const (
	remoteTimeout = 30 * time.Second
	progressTick  = 100 * time.Millisecond
	rpcRetries    = 3
	hedgeBudget   = 0.05
	retryBudget   = 0.1
	maxInflight   = 256
	connIdle      = 5 * time.Minute
	writeTimeout  = 30 * time.Second
)

// system is one brought-up instance of the system under test: a gateway with
// production-default wiring over a runtime, and the in-process daemons behind
// it when the workload has remotes.
type system struct {
	net     *supernet.Supernet
	rt      *runtime.Runtime
	gw      *serve.Gateway
	clients []*rpcx.Client
	daemons []*daemon

	// idle is inFlight's reading with nothing out, see markIdle.
	idle int64

	pinned, local map[string]*env.Decision
	// ref executes local-only on the same weights; the output check and the
	// staged replay compare against it.
	ref *runtime.Runtime
}

// daemon is one in-process murmurationd. tap is nil unless the run is traced.
type daemon struct {
	srv  *rpcx.Server
	addr string
	tap  *daemonTap
}

// daemonTap is the traced pass's view of one daemon from outside: bytes
// crossing its listener and the busy time of its exec.block handler.
type daemonTap struct {
	dev      int
	up, down atomic.Int64 // bytes the daemon read / wrote

	recording atomic.Bool
	mu        sync.Mutex
	calls     []handlerCall
}

// handlerCall is one exec.block execution on a daemon.
type handlerCall struct {
	dev        int
	start, end time.Time
}

// wrap times inner. Calls are only kept while recording, so the untraced
// reference pass of a traced run pays one atomic load per call.
func (t *daemonTap) wrap(inner func([]byte) ([]byte, error)) rpcx.Handler {
	return func(p []byte) ([]byte, error) {
		if !t.recording.Load() {
			return inner(p)
		}
		start := time.Now()
		resp, err := inner(p)
		end := time.Now()
		t.mu.Lock()
		t.calls = append(t.calls, handlerCall{dev: t.dev, start: start, end: end})
		t.mu.Unlock()
		return resp, err
	}
}

// countingListener counts the bytes of every accepted connection into tap.
type countingListener struct {
	net.Listener
	tap *daemonTap
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, tap: l.tap}, nil
}

type countingConn struct {
	net.Conn
	tap *daemonTap
}

func (c *countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.tap.up.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.tap.down.Add(int64(n))
	return n, err
}

// startDaemon brings up one device daemon the way cmd/murmurationd does at
// default flags, on an ephemeral loopback port.
func startDaemon(arch *supernet.Arch, dev int, traced bool) (*daemon, error) {
	srv := rpcx.NewServer()
	srv.MaxFrameSize = rpcx.DefaultMaxFrameSize
	srv.SetChecksum(true)
	srv.ConnIdleTimeout = connIdle
	srv.WriteTimeout = writeTimeout
	srv.MaxInflight = maxInflight
	inc, err := rpcx.MintIncarnation("")
	if err != nil {
		return nil, fmt.Errorf("daemon %d: mint incarnation: %w", dev, err)
	}
	srv.SetIncarnation(inc)
	exec := runtime.NewExecutor(supernet.New(arch, weightSeed))
	monitor.RegisterHandlers(srv)

	d := &daemon{srv: srv}
	if !traced {
		exec.Register(srv)
		if d.addr, err = srv.Listen("127.0.0.1:0"); err != nil {
			return nil, fmt.Errorf("daemon %d: listen: %w", dev, err)
		}
		return d, nil
	}
	d.tap = &daemonTap{dev: dev}
	srv.Handle(runtime.ExecBlockMethod, d.tap.wrap(exec.ExecBlockHandler()))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("daemon %d: listen: %w", dev, err)
	}
	srv.Serve(&countingListener{Listener: ln, tap: d.tap})
	d.addr = ln.Addr().String()
	return d, nil
}

// dialDevice connects the gateway side to one daemon through the emulated
// link, configured as cmd/murmuration-gateway configures its device clients.
func dialDevice(addr string) (*rpcx.Client, error) {
	shaper := netem.NewShaper(linkMbps, time.Duration(linkDelayMs*float64(time.Millisecond)))
	cl, err := rpcx.Dial(addr, shaper)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	cl.SetRetryPolicy(rpcx.RetryPolicy{MaxAttempts: rpcRetries})
	cl.MarkIdempotent(runtime.ExecBlockMethod, monitor.PingMethod, monitor.BulkMethod)
	cl.SetChecksum(true)
	cl.SetMaxFrameSize(rpcx.DefaultMaxFrameSize)
	cl.SetProgressPolicy(rpcx.ProgressPolicy{Tick: progressTick, MinBytes: 1})
	if _, err := cl.Handshake(remoteTimeout); err != nil {
		cl.Close()
		return nil, fmt.Errorf("handshake %s: %w", addr, err)
	}
	return cl, nil
}

// bringUp builds the whole system for w. Everything it does is what a
// deployment pays before its first request: weights, daemons, dial,
// handshake, link probe, gateway. On error whatever was started is torn down.
func bringUp(w *workload, traced bool) (_ *system, err error) {
	arch := w.Arch()
	s := &system{net: supernet.New(arch, weightSeed)}
	defer func() {
		if err != nil {
			s.tearDown()
		}
	}()
	if s.pinned, s.local, err = w.decisions(arch); err != nil {
		return nil, err
	}
	decider := runtime.DeciderFunc(func(c env.Constraint) (*env.Decision, error) {
		return s.pinned[configKind(c.Type, c.AccuracyPct)], nil
	})

	var monitors []*monitor.LinkMonitor
	for dev := 1; dev <= w.Remotes; dev++ {
		d, err := startDaemon(arch, dev, traced)
		if err != nil {
			return nil, err
		}
		s.daemons = append(s.daemons, d)
		cl, err := dialDevice(d.addr)
		if err != nil {
			return nil, err
		}
		s.clients = append(s.clients, cl)
		monitors = append(monitors, monitor.NewLinkMonitor(cl))
	}

	sched := runtime.NewScheduler(s.net, s.clients)
	sched.RemoteTimeout = remoteTimeout
	sched.Hedge = &runtime.HedgePolicy{BudgetFrac: hedgeBudget}
	sched.SetRetryBudget(limit.NewBudget(limit.BudgetOptions{Ratio: retryBudget}))
	s.rt = runtime.New(sched, decider, runtime.NewStrategyCache(64, 25, 5, 10), monitors)
	for i, m := range monitors {
		if err := s.rt.SetLinkState(i, linkMbps, linkDelayMs); err != nil {
			return nil, err
		}
		if _, err := m.Probe(); err != nil {
			return nil, fmt.Errorf("probe device %d: %w", i+1, err)
		}
	}
	s.gw = serve.New(s.rt, serve.Options{})
	if w.Remotes > 0 {
		s.gw.AttachHealth(serve.HealthOptions{})
	}
	s.ref = runtime.New(runtime.NewScheduler(s.net, nil), decider, nil, nil)
	return s, nil
}

// tearDown stops the gateway, then the clients, then the daemons, and waits
// for each. Safe on a partly built system.
func (s *system) tearDown() {
	if s.gw != nil {
		s.gw.Close(2 * time.Second)
	}
	for _, c := range s.clients {
		c.Close()
	}
	for _, d := range s.daemons {
		d.srv.Shutdown(time.Second)
	}
}

// inFlight is how many batches have entered a worker's timed section and not
// left it, as far as that shows outside: execute makes one strategy-cache
// lookup per batch, first thing, and counts the batch in Stats when it has
// run. Lookups from elsewhere (a rewarm, the direct-call phase) and batches
// that ended in an error shift the difference, so markIdle records it while
// nothing is out.
func (s *system) inFlight() int64 {
	c := s.rt.Cache.Stats()
	return int64(c.Hits+c.Misses) - int64(s.gw.Stats().Batches)
}

// markIdle is called with no request out, at the start of a load phase.
func (s *system) markIdle() { s.idle = s.inFlight() }

// asleepFor is how a waiting client tells a request that is being worked on
// from one whose worker sleeps (kickAfter): it returns prior+1 when no batch is
// executing and 0 when one is. One such reading proves nothing, because a
// batch leaves Stats a moment before its outcomes reach their clients.
func (s *system) asleepFor(prior int) int {
	if s.inFlight() > s.idle {
		return 0
	}
	return prior + 1
}

// setRecording switches handler timing on every daemon tap.
func (s *system) setRecording(on bool) {
	for _, d := range s.daemons {
		if d.tap != nil {
			d.tap.recording.Store(on)
		}
	}
}

// handlerCalls returns every recorded exec.block execution, all daemons.
func (s *system) handlerCalls() []handlerCall {
	var out []handlerCall
	for _, d := range s.daemons {
		if d.tap == nil {
			continue
		}
		d.tap.mu.Lock()
		out = append(out, d.tap.calls...)
		d.tap.mu.Unlock()
	}
	return out
}

// wireBytes sums the bytes daemons read (up) and wrote (down) so far.
func (s *system) wireBytes() (up, down int64) {
	for _, d := range s.daemons {
		if d.tap != nil {
			up += d.tap.up.Load()
			down += d.tap.down.Load()
		}
	}
	return up, down
}

// reference runs inputs as one local-only batch under the all-local twin of
// the pinned decision, degraded to rung as the gateway's ladder would, and
// returns one logits tensor per input.
func (s *system) reference(kind string, rung int, xs []*tensor.Tensor) ([]*tensor.Tensor, error) {
	outs, _, err := s.ref.ExecBatch(xs, s.ref.DegradeDecision(s.local[kind], rung))
	return outs, err
}
