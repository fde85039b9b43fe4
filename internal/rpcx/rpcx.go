// Package rpcx is the stdlib-only transport that replaces the paper's gRPC:
// a length-prefixed binary request/response protocol over TCP. Servers
// register byte-level handlers by method name; clients issue synchronous
// calls, each on a connection of its own for as long as it lasts.
// Connections can be wrapped with netem shapers so the link obeys
// emulated bandwidth/delay, which is how the runtime reproduces the paper's
// tc-controlled testbed.
package rpcx

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"murmuration/internal/fault"
	"murmuration/internal/netem"
)

// Handler processes one request payload and returns a response payload.
type Handler func(payload []byte) ([]byte, error)

// TimeoutError is returned by Client.CallTimeout when the per-call deadline
// elapses before the response arrives. It satisfies net.Error's Timeout and
// unwraps to ErrTimeout so callers can use errors.Is.
type TimeoutError struct {
	Method string
	After  time.Duration
}

// Error implements error.
func (e *TimeoutError) Error() string {
	return fmt.Sprintf("rpcx: call %q timed out after %v", e.Method, e.After)
}

// Timeout reports that this error is a deadline expiry (net.Error shape).
func (e *TimeoutError) Timeout() bool { return true }

// Unwrap lets errors.Is(err, ErrTimeout) match.
func (e *TimeoutError) Unwrap() error { return ErrTimeout }

// Sentinel errors for client call failures. Each is born with its fault class
// (fault.Of reads it through any wrapper that unwraps to the sentinel), which
// is what policy — demotion, limiter, health ledger, accounting — keys on.
var (
	// ErrTimeout is the target for errors.Is on per-call deadline expiry.
	ErrTimeout = fault.New(fault.Device, "rpcx: call timeout")
	// ErrClientBroken is returned for calls on a client that has no usable
	// connection left and may not open one: every connection it held was
	// poisoned by a timeout (the stream may hold a stale response, so it
	// cannot be reused) or retired. Clients with a retry policy installed
	// re-dial instead of returning this.
	ErrClientBroken = errors.New("rpcx: client connection broken by earlier timeout")
	// ErrClientClosed is returned for calls on a client after Close.
	ErrClientClosed = errors.New("rpcx: client closed")
	// ErrBudgetExhausted is the target for errors.Is when a call's deadline
	// budget cannot be met: either the server refused the request because its
	// cost estimate exceeds the remaining budget (*BudgetError), or a caller
	// observed the budget expire locally. It is the typed alternative to a
	// silent late reply.
	ErrBudgetExhausted = fault.New(fault.BudgetExhausted, "rpcx: budget exhausted")
	// ErrPanic is the target for errors.Is when a handler panicked on the
	// server (*PanicError). The panic was recovered — it failed one request,
	// not the daemon — but the handler ran partway, so like a RemoteError a
	// panicked call is never retried automatically.
	ErrPanic = fault.New(fault.Request, "rpcx: handler panicked")
	// ErrOverloaded is the target for errors.Is when the server refused a
	// call because its in-flight cap was reached (*OverloadError). An
	// overload refusal is a load signal, not a fault: nothing failed, the
	// server declined work it could not finish. It is retryable (backoff
	// gives the server room) and must never count as a link or device fault.
	ErrOverloaded = fault.New(fault.Load, "rpcx: server overloaded")
	// ErrStalled is the target for errors.Is when a call's in-flight progress
	// watchdog fired (*StallError): the frame transfer stopped advancing for
	// the configured window even though the connection is nominally alive —
	// the half-open-link signature. Like a timeout it poisons the connection
	// so the next call re-dials; like overload it is a link condition, never
	// a device fault.
	ErrStalled = fault.New(fault.LinkStall, "rpcx: call stalled")
	// ErrRetryBudget is the target for errors.Is when a retry was suppressed
	// because the shared retry budget (SetRetryGate) refused the withdrawal
	// (*RetryBudgetError). It is a storm-control shed, not a fault: the first
	// attempt's failure stands, but the client declined to amplify a
	// correlated outage with another attempt. Never a device signal.
	ErrRetryBudget = fault.New(fault.StormShed, "rpcx: retry budget depleted")
)

// StallError reports that an in-flight call's progress watchdog fired: the
// connection stopped moving frame bytes for MinBytes-per-Tick purposes while
// a frame transfer was in flight. It unwraps to ErrStalled. The connection is
// poisoned (the frame is torn mid-stream) and the call is retryable on a
// fresh dial for idempotent methods.
type StallError struct {
	Method string
	// Tick and MinBytes echo the violated policy; After is roughly how long
	// the call ran before the watchdog fired.
	Tick     time.Duration
	MinBytes int64
	After    time.Duration
}

// Error implements error.
func (e *StallError) Error() string {
	return fmt.Sprintf("rpcx: call %q stalled after %v (< %d bytes progress per %v)",
		e.Method, e.After.Round(time.Millisecond), e.MinBytes, e.Tick)
}

// Unwrap lets errors.Is(err, ErrStalled) match.
func (e *StallError) Unwrap() error { return ErrStalled }

// ProgressPolicy is a client's per-call in-flight progress deadline: while a
// frame is being written, and once the first response byte has arrived, the
// connection must move at least MinBytes every Tick. Two consecutive ticks
// without progress abort the call with a typed *StallError — a hung transfer
// fails in ~2×Tick instead of burning the whole request budget. The window
// between "request flushed" and "first response byte" is exempt: that is
// server compute time, bounded by the call's own deadline, not a transfer.
type ProgressPolicy struct {
	// Tick is the progress check period (default 100ms).
	Tick time.Duration
	// MinBytes is the minimum connection I/O advance per tick (default 1).
	MinBytes int64
}

func (p ProgressPolicy) withDefaults() ProgressPolicy {
	if p.Tick <= 0 {
		p.Tick = 100 * time.Millisecond
	}
	if p.MinBytes <= 0 {
		p.MinBytes = 1
	}
	return p
}

// HelloMethod is the reserved builtin handshake method every Server answers:
// the response is the server's 8-byte little-endian incarnation (0 until
// SetIncarnation). Clients call it via Handshake; the cluster layer's
// HelloProbe rides it as a heartbeat so every probe re-reads the peer's
// identity. A user handler registered under this name takes precedence.
const HelloMethod = "rpcx.hello"

// maxPanicStack caps how much of a recovered panic's stack trace travels in
// the response payload; stacks are for operators, not for 64KiB frames.
const maxPanicStack = 4096

// PanicError reports that the server's handler panicked. Msg carries the
// recovered value and a truncated stack capture from the server. It unwraps
// to ErrPanic. Never retried: the handler executed partway, so a second
// attempt could duplicate its effect — and a deterministic panic would just
// fire again.
type PanicError struct {
	Method string
	Msg    string
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("rpcx: call %q panicked on server: %s", e.Method, e.Msg)
}

// Unwrap lets errors.Is(err, ErrPanic) match.
func (e *PanicError) Unwrap() error { return ErrPanic }

// OverloadError is the server's typed refusal of a call because its
// configured in-flight cap (Server.MaxInflight) was reached. It unwraps to
// ErrOverloaded and is retryable — backoff gives the server room to drain.
type OverloadError struct {
	Method string
	Msg    string
}

// Error implements error.
func (e *OverloadError) Error() string {
	return fmt.Sprintf("rpcx: call %q refused, server overloaded: %s", e.Method, e.Msg)
}

// Unwrap lets errors.Is(err, ErrOverloaded) match.
func (e *OverloadError) Unwrap() error { return ErrOverloaded }

// BudgetError is the server's typed refusal of a budget-carrying call: its
// estimate of the handler's cost exceeds the remaining deadline budget the
// request arrived with, so executing it could only produce a late reply.
// It unwraps to ErrBudgetExhausted. Never retried on the same link — the
// refusal is deterministic until the server's cost estimate changes.
type BudgetError struct {
	Method string
	// Budget is the remaining budget the request carried.
	Budget time.Duration
	// Msg is the server's refusal message (it names the cost estimate).
	Msg string
}

// Error implements error.
func (e *BudgetError) Error() string {
	return fmt.Sprintf("rpcx: call %q refused, budget %v exhausted: %s", e.Method, e.Budget, e.Msg)
}

// Unwrap lets errors.Is(err, ErrBudgetExhausted) match.
func (e *BudgetError) Unwrap() error { return ErrBudgetExhausted }

// RetryBudgetError reports that a retry the policy would have fired was
// suppressed because the shared retry budget refused it. Cause is the
// failure the suppressed retry would have addressed, preserved so callers
// can still see what actually went wrong. Unwrap yields both ErrRetryBudget
// and Cause, so errors.Is matches either; ErrRetryBudget comes first, so the
// error's fault class is the storm shed, not the cause's.
type RetryBudgetError struct {
	Method string
	Cause  error
}

// Error implements error.
func (e *RetryBudgetError) Error() string {
	return fmt.Sprintf("rpcx: call %q retry suppressed, retry budget depleted (cause: %v)", e.Method, e.Cause)
}

// Unwrap lets errors.Is match ErrRetryBudget and the suppressed cause.
func (e *RetryBudgetError) Unwrap() []error { return []error{ErrRetryBudget, e.Cause} }

// RetryGate is the hook a shared retry budget implements (see
// limit.Budget): TryWithdraw returns whether one speculative attempt may
// fire, consuming a token when it does. It must never block.
type RetryGate interface {
	TryWithdraw() bool
}

// RemoteError is an application-level failure reported by the server's
// handler (response status != 0). It is never retried: the handler ran, so a
// second attempt could duplicate its effect. Class is the fault class the
// handler's error carried across the wire (statusFault); a plain statusError
// leaves it fault.Unknown.
type RemoteError struct {
	Msg   string
	Class fault.Class
}

// Error keeps the historical "rpcx: remote error: ..." string.
func (e *RemoteError) Error() string { return "rpcx: remote error: " + e.Msg }

// FaultClass reports the class the remote handler's error was born with.
func (e *RemoteError) FaultClass() fault.Class { return e.Class }

// RetryPolicy configures client-side fault handling. Installing a policy
// (SetRetryPolicy) enables automatic re-dial for clients that can dial: a
// connection poisoned by a timeout or torn down by the peer is replaced on
// demand instead of the client failing with ErrClientBroken. MaxAttempts > 1
// additionally retries transport failures with exponential backoff + jitter,
// but only for methods the caller marked idempotent (MarkIdempotent) —
// a non-idempotent call may have executed on the server before the failure.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per call (min 1).
	MaxAttempts int
	// BaseBackoff is the delay before the first retry (default 10ms); each
	// further retry doubles it up to MaxBackoff (default 1s).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// JitterFrac randomizes each backoff by ±frac (default 0.2) so a fleet
	// of retrying clients does not synchronize against a recovering server.
	JitterFrac float64
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 1
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 10 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = time.Second
	}
	if p.JitterFrac <= 0 {
		p.JitterFrac = 0.2
	}
	return p
}

// backoff returns the jittered delay before retry number retry (1-based).
func (p RetryPolicy) backoff(retry int) time.Duration {
	d := p.BaseBackoff << uint(retry-1)
	if d > p.MaxBackoff || d <= 0 {
		d = p.MaxBackoff
	}
	j := 1 + p.JitterFrac*(2*rand.Float64()-1)
	return time.Duration(float64(d) * j)
}

// Server dispatches framed requests to registered handlers.
type Server struct {
	// MaxFrameSize caps the body length of incoming request frames, enforced
	// before the body buffer is allocated (0 selects DefaultMaxFrameSize).
	// Set before Listen.
	MaxFrameSize int

	// MaxInflight caps concurrently executing handler calls (0 = unlimited).
	// A call arriving at the cap is refused with a typed *OverloadError
	// instead of queueing as a goroutine, so overload is shed at admission.
	// Set before Listen.
	MaxInflight int

	// ConnIdleTimeout evicts a connection whose next request does not arrive
	// within the window (0 = never): a stalled or dead client stops pinning a
	// goroutine and wedging Shutdown. WriteTimeout bounds each response write
	// the same way (0 = never). Set before Listen.
	ConnIdleTimeout time.Duration
	WriteTimeout    time.Duration

	// WrapConn, when set, wraps every accepted connection before it is
	// served — chaos tests use it to interpose a netem fault injector on the
	// server's write path (response traffic), which is how a one-direction
	// partition is reproduced on real sockets. Set before Listen.
	WrapConn func(net.Conn) net.Conn

	// incarnation is the identity this server announces through the builtin
	// hello method (see SetIncarnation / MintIncarnation).
	incarnation atomic.Uint64

	mu       sync.RWMutex
	handlers map[string]Handler
	ln       net.Listener
	wg       sync.WaitGroup
	conns    map[net.Conn]struct{}
	closed   bool

	// noChecksum suppresses response checksums (see SetChecksum); incoming
	// checksummed frames are always verified.
	noChecksum atomic.Bool
	// corruptFrames counts request frames rejected for integrity violations.
	corruptFrames atomic.Uint64
	// panics counts handler panics recovered into statusPanic responses;
	// overloads counts calls refused at the MaxInflight cap; evictions counts
	// connections closed for blowing an idle/write deadline; acceptRetries
	// counts transient Accept errors survived by the accept loop's backoff.
	panics        atomic.Uint64
	overloads     atomic.Uint64
	evictions     atomic.Uint64
	acceptRetries atomic.Uint64

	// In-flight handler tracking for graceful shutdown.
	inflightMu   sync.Mutex
	draining     bool
	inflightN    int
	inflightDone chan struct{} // closed when inflightN drops to 0 while draining

	// Per-method handler-cost estimates (EMA of successful handler runtimes,
	// seconds) backing the budget guard: a request carrying a deadline budget
	// below the method's estimated cost is refused with a typed *BudgetError
	// instead of being executed into a guaranteed-late reply.
	costMu  sync.Mutex
	costSec map[string]float64
}

// NewServer returns an empty server.
func NewServer() *Server {
	return &Server{
		handlers: make(map[string]Handler),
		conns:    make(map[net.Conn]struct{}),
		costSec:  make(map[string]float64),
	}
}

// estimatedCost returns the server's smoothed runtime estimate for a method
// (0 before any successful run has been observed).
func (s *Server) estimatedCost(method string) time.Duration {
	s.costMu.Lock()
	defer s.costMu.Unlock()
	return time.Duration(s.costSec[method] * float64(time.Second))
}

// observeCost folds one successful handler runtime into the method's EMA.
func (s *Server) observeCost(method string, d time.Duration) {
	s.costMu.Lock()
	defer s.costMu.Unlock()
	sec := d.Seconds()
	if prev, ok := s.costSec[method]; ok {
		s.costSec[method] = 0.7*prev + 0.3*sec
	} else {
		s.costSec[method] = sec
	}
}

// Handle registers a handler for a method name (max 63 bytes).
func (s *Server) Handle(method string, h Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[method] = h
}

// SetIncarnation installs the identity this server announces through the
// builtin hello method. Daemons mint one per process start (MintIncarnation)
// so gateways can detect a silent restart and fence the dead incarnation's
// late responses. Safe to call at any time; 0 (the default) means "unknown".
func (s *Server) SetIncarnation(inc uint64) { s.incarnation.Store(inc) }

// Incarnation returns the identity this server announces (0 = unset).
func (s *Server) Incarnation() uint64 { return s.incarnation.Load() }

// helloHandler answers the builtin handshake: 8 bytes of little-endian
// incarnation.
func (s *Server) helloHandler([]byte) ([]byte, error) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], s.incarnation.Load())
	return b[:], nil
}

// SetChecksum controls whether responses to checksummed requests carry a
// CRC32C trailer of their own (the echo behavior; on by default). Incoming
// checksummed requests are verified regardless — disabling only changes
// what this server emits, so a bare peer never sees an integrity frame.
func (s *Server) SetChecksum(enabled bool) { s.noChecksum.Store(!enabled) }

// CorruptFrames returns how many request frames this server rejected for
// integrity violations (checksum mismatch or over-cap length).
func (s *Server) CorruptFrames() uint64 { return s.corruptFrames.Load() }

// Panics returns how many handler panics this server recovered into typed
// statusPanic responses.
func (s *Server) Panics() uint64 { return s.panics.Load() }

// Overloads returns how many calls this server refused at its MaxInflight
// cap.
func (s *Server) Overloads() uint64 { return s.overloads.Load() }

// Evictions returns how many connections this server closed for exceeding
// the idle or write deadline.
func (s *Server) Evictions() uint64 { return s.evictions.Load() }

// AcceptRetries returns how many transient Accept errors the accept loop
// survived via backoff instead of dying.
func (s *Server) AcceptRetries() uint64 { return s.acceptRetries.Load() }

// Listen starts accepting connections on addr ("host:port"; use ":0" for an
// ephemeral port) and returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.Serve(ln)
	return ln.Addr().String(), nil
}

// Serve starts accepting connections from ln in a background goroutine
// (Listen is Serve over a fresh TCP listener). Transient Accept errors —
// EMFILE under fd exhaustion, ECONNABORTED, momentary resource pressure —
// are retried with capped exponential backoff instead of killing the accept
// loop permanently; only the listener closing (Shutdown/Close) ends it.
func (s *Server) Serve(ln net.Listener) {
	s.ln = ln
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		backoff := 5 * time.Millisecond
		for {
			conn, err := ln.Accept()
			if err != nil {
				if errors.Is(err, net.ErrClosed) {
					return
				}
				s.mu.RLock()
				closed := s.closed
				s.mu.RUnlock()
				if closed {
					return
				}
				s.acceptRetries.Add(1)
				time.Sleep(backoff)
				if backoff *= 2; backoff > time.Second {
					backoff = time.Second
				}
				continue
			}
			backoff = 5 * time.Millisecond
			if s.WrapConn != nil {
				conn = s.WrapConn(conn)
			}
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				s.serveConn(conn)
			}()
		}
	}()
}

// Shutdown gracefully stops the server: it stops accepting new connections
// and new requests, waits up to grace for in-flight handler calls to finish,
// then closes every connection. Requests arriving on live connections during
// the drain are answered with an error instead of being executed.
func (s *Server) Shutdown(grace time.Duration) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	ln := s.ln
	s.mu.Unlock()

	s.inflightMu.Lock()
	s.draining = true
	// Concurrent/repeated Shutdowns share one drain channel: installing a
	// fresh one each time would strand earlier callers on a channel endCall
	// no longer holds, making them wait out the full grace needlessly.
	if s.inflightDone == nil {
		s.inflightDone = make(chan struct{})
		if s.inflightN == 0 {
			close(s.inflightDone)
		}
	}
	done := s.inflightDone
	s.inflightMu.Unlock()

	var lnErr error
	if ln != nil {
		lnErr = ln.Close()
	}
	deadline := time.NewTimer(grace)
	defer deadline.Stop()
	select {
	case <-done:
	case <-deadline.C:
	}

	s.mu.Lock()
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()

	// Connection goroutines normally exit as soon as their conn closes, but
	// one stuck inside a hung handler would block forever — bound the wait so
	// Shutdown honors its grace contract even then.
	exited := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(exited)
	}()
	select {
	case <-exited:
	case <-time.After(grace + 100*time.Millisecond):
	}
	return lnErr
}

// Close stops the listener, closes every active connection, and waits for
// the connection goroutines to exit.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	s.wg.Wait()
	return err
}

func (s *Server) serveConn(conn net.Conn) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		conn.Close()
		return
	}
	s.conns[conn] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	r := bufio.NewReaderSize(conn, 64*1024)
	w := bufio.NewWriterSize(conn, 64*1024)
	max := frameCap(s.MaxFrameSize)
	for {
		if s.ConnIdleTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.ConnIdleTimeout))
		}
		method, budget, payload, checksummed, err := readRequest(r, max)
		if err != nil {
			if isTimeout(err) {
				// Idle eviction: the client held the connection without
				// sending a request for the whole window. Dropping it frees
				// the goroutine and lets Shutdown finish.
				s.evictions.Add(1)
				return
			}
			// Integrity violations earn a best-effort typed refusal before the
			// connection dies: the stream can no longer be trusted to be
			// framed, but the length-prefixed reply usually still lands and
			// turns a silent hang into a client-visible corruption signal.
			var fe *FrameError
			if errors.As(err, &fe) {
				s.corruptFrames.Add(1)
				if werr := writeResponse(w, statusCorrupt, []byte(fe.Reason), false); werr == nil {
					w.Flush()
				}
			}
			return
		}
		respChecksum := checksummed && !s.noChecksum.Load()
		s.mu.RLock()
		h := s.handlers[method]
		s.mu.RUnlock()
		if h == nil && method == HelloMethod {
			h = s.helloHandler
		}
		var status byte
		var resp []byte
		// ok: beginCall counted the request in flight, and it stays counted
		// until its reply is written — Shutdown drains replies, not handler
		// returns, or it could close the connection under one.
		ok, overloaded := false, false
		if h != nil {
			ok, overloaded = s.beginCall()
		}
		switch {
		case h == nil:
			status = statusError
			resp = []byte(fmt.Sprintf("rpcx: unknown method %q", method))
		case overloaded:
			// In-flight cap reached: refuse typed instead of queueing the
			// work. The client sees a retryable *OverloadError.
			status = statusOverload
			resp = []byte(fmt.Sprintf("in-flight cap %d reached", s.MaxInflight))
		case !ok:
			status = statusError
			resp = []byte("rpcx: server shutting down")
		case budget > 0 && s.estimatedCost(method) > budget:
			// Budget guard: the request cannot finish in time, so refuse it
			// with a typed error instead of executing into a silent late
			// reply. The cost estimate is only ever built from observed runs,
			// so the first call of a method is never refused.
			status = statusBudget
			resp = []byte(fmt.Sprintf("estimated cost %v exceeds remaining budget %v",
				s.estimatedCost(method).Round(time.Microsecond), budget))
		default:
			status, resp = s.invoke(method, h, payload)
		}
		if s.WriteTimeout > 0 {
			conn.SetWriteDeadline(time.Now().Add(s.WriteTimeout))
		}
		err = writeResponse(w, status, resp, respChecksum)
		if err == nil {
			err = w.Flush()
		}
		if ok {
			s.endCall()
		}
		if err != nil {
			if isTimeout(err) {
				// Write eviction: the client stopped draining its socket and
				// our response could not land within the window.
				s.evictions.Add(1)
			}
			return
		}
		if s.WriteTimeout > 0 {
			conn.SetWriteDeadline(time.Time{})
		}
	}
}

// invoke runs one handler with panic isolation: a panicking handler fails
// its request with a typed statusPanic response — carrying the recovered
// value and a truncated stack — and never takes down the daemon or the
// connection.
func (s *Server) invoke(method string, h Handler, payload []byte) (status byte, resp []byte) {
	start := time.Now()
	panicked := true
	defer func() {
		if !panicked {
			return
		}
		r := recover()
		s.panics.Add(1)
		stack := make([]byte, maxPanicStack)
		stack = stack[:runtime.Stack(stack, false)]
		status = statusPanic
		resp = []byte(fmt.Sprintf("%v\n\n%s", r, stack))
	}()
	out, err := h(payload)
	panicked = false
	if err != nil {
		if c := fault.Of(err); c != fault.Unknown {
			return statusFault, append([]byte{byte(c)}, err.Error()...)
		}
		return statusError, []byte(err.Error())
	}
	s.observeCost(method, time.Since(start))
	return statusOK, out
}

// isTimeout reports whether err is a connection-deadline expiry.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// beginCall registers an in-flight handler invocation. ok is false when the
// request must be rejected; overloaded additionally marks the rejection as a
// MaxInflight refusal (typed statusOverload) rather than a drain.
func (s *Server) beginCall() (ok, overloaded bool) {
	s.inflightMu.Lock()
	defer s.inflightMu.Unlock()
	if s.draining {
		return false, false
	}
	if s.MaxInflight > 0 && s.inflightN >= s.MaxInflight {
		s.overloads.Add(1)
		return false, true
	}
	s.inflightN++
	return true, false
}

// endCall retires an in-flight handler invocation and releases a pending
// Shutdown when the last one finishes.
func (s *Server) endCall() {
	s.inflightMu.Lock()
	defer s.inflightMu.Unlock()
	s.inflightN--
	if s.inflightN == 0 && s.inflightDone != nil {
		close(s.inflightDone)
		s.inflightDone = nil
	}
}

// Frame layout (little endian):
//
//	request:  u32 totalLen | u8 flags|methodLen | method | [u64 budgetµs] | payload | [u32 crc32c]
//	response: u32 totalLen | u8 flags|status    | payload | [u32 crc32c]
//
// The top bit of the request head byte is the budget flag: when set, an
// 8-byte remaining-deadline budget in microseconds follows the method name.
// The next bit is the checksum flag: when set, the body ends with a CRC32C
// (Castagnoli) of everything between the length prefix and the checksum
// itself. Method names are therefore limited to 63 bytes. A budget-less,
// checksum-less request is bit-identical to the historical frame, so
// integrity-unaware and integrity-aware peers interoperate as long as no
// optional field is sent. Responses carry the checksum flag in the top bit
// of the status byte; servers echo it — a checksummed request earns a
// checksummed response, a bare request a bare (historical) one.
const (
	budgetFlag       = 0x80
	checksumFlag     = 0x40
	maxMethodLen     = 0x3F
	respChecksumFlag = 0x80
	statusMask       = 0x7F

	statusOK     = 0
	statusError  = 1
	statusBudget = 2 // typed budget refusal; payload is the server's message
	// statusCorrupt reports that the server could not trust the request
	// frame: checksum mismatch or a length beyond its cap. The payload is
	// the server's description; the server closes the connection right after
	// sending it because the stream can no longer be trusted to be framed.
	statusCorrupt = 3
	// statusPanic reports that the handler panicked and was recovered; the
	// payload is the recovered value plus a truncated stack. The connection
	// stays usable — a panic fails one request, not the stream.
	statusPanic = 4
	// statusOverload is a typed refusal at the server's in-flight cap; the
	// payload names the cap. Retryable: backoff gives the server room.
	statusOverload = 5
	// statusFault is a handler error that was born with a fault class; the
	// payload is the class byte followed by the error text. A peer that
	// predates it falls to its default arm and sees a plain RemoteError, so
	// mixed builds degrade to fault.Unknown, never to a refusal.
	statusFault = 6
)

// decodeFault rebuilds a handler's classed error from a statusFault payload.
// An empty payload or a class byte this build does not know is fault.Unknown.
func decodeFault(payload []byte) *RemoteError {
	if len(payload) == 0 {
		return &RemoteError{}
	}
	return &RemoteError{Class: fault.FromWire(payload[0]), Msg: string(payload[1:])}
}

// DefaultMaxFrameSize caps a frame's body length when the peer did not
// configure an explicit limit. The cap is enforced before the body buffer is
// allocated, so a corrupted length prefix costs a typed error, not a
// multi-GiB allocation.
const DefaultMaxFrameSize = 64 << 20

// castagnoli is the CRC32C table shared by every frame checksum.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorruptFrame is the target for errors.Is on any frame-integrity
// violation: checksum mismatch, a length prefix beyond the frame cap, or a
// structurally impossible header. Like a timeout it poisons the connection
// (the stream may be desynced) and is retried only for idempotent methods;
// it is never a device fault — the bytes went bad, not the peer.
var ErrCorruptFrame = fault.New(fault.CorruptFrame, "rpcx: corrupt frame")

// FrameError is the typed form of a frame-integrity violation. It unwraps
// to ErrCorruptFrame.
type FrameError struct {
	// Op names the decode that failed: "read-request" or "read-response".
	Op string
	// Reason describes the violation (mismatched checksum, oversize length
	// prefix, truncated header, ...).
	Reason string
}

// Error implements error.
func (e *FrameError) Error() string {
	return fmt.Sprintf("rpcx: corrupt frame (%s): %s", e.Op, e.Reason)
}

// Unwrap lets errors.Is(err, ErrCorruptFrame) match.
func (e *FrameError) Unwrap() error { return ErrCorruptFrame }

// frameCap normalizes a configured frame-size limit.
func frameCap(max int) uint32 {
	if max <= 0 {
		return DefaultMaxFrameSize
	}
	return uint32(max)
}

// readBody reads one length-prefixed frame body, enforcing the cap before
// allocating. io errors pass through untyped (a closed peer is not
// corruption); impossible lengths come back as *FrameError.
func readBody(r io.Reader, op string, max uint32) ([]byte, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, err
	}
	total := binary.LittleEndian.Uint32(lenBuf[:])
	if total < 1 {
		return nil, &FrameError{Op: op, Reason: "zero-length frame"}
	}
	if total > max {
		return nil, &FrameError{Op: op, Reason: fmt.Sprintf("frame length %d exceeds cap %d", total, max)}
	}
	body := make([]byte, total)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return body, nil
}

// verifyChecksum checks and strips a CRC32C trailer from body.
func verifyChecksum(body []byte, op string) ([]byte, error) {
	if len(body) < 5 {
		return nil, &FrameError{Op: op, Reason: "checksummed frame too short"}
	}
	want := binary.LittleEndian.Uint32(body[len(body)-4:])
	if got := crc32.Checksum(body[:len(body)-4], castagnoli); got != want {
		return nil, &FrameError{Op: op, Reason: fmt.Sprintf("checksum mismatch (got %08x, want %08x)", got, want)}
	}
	return body[:len(body)-4], nil
}

// readRequest decodes one request frame. checksummed reports whether the
// frame carried (and passed) a CRC32C trailer, so the response can echo it.
func readRequest(r io.Reader, max uint32) (method string, budget time.Duration, payload []byte, checksummed bool, err error) {
	body, err := readBody(r, "read-request", max)
	if err != nil {
		return "", 0, nil, false, err
	}
	if body[0]&checksumFlag != 0 {
		checksummed = true
		if body, err = verifyChecksum(body, "read-request"); err != nil {
			return "", 0, nil, true, err
		}
	}
	ml := int(body[0] & maxMethodLen)
	if 1+ml > len(body) {
		return "", 0, nil, checksummed, &FrameError{Op: "read-request", Reason: "method length beyond frame"}
	}
	method = string(body[1 : 1+ml])
	rest := body[1+ml:]
	if body[0]&budgetFlag != 0 {
		if len(rest) < 8 {
			return "", 0, nil, checksummed, &FrameError{Op: "read-request", Reason: "short budget header"}
		}
		budget = time.Duration(binary.LittleEndian.Uint64(rest)) * time.Microsecond
		rest = rest[8:]
	}
	return method, budget, rest, checksummed, nil
}

func writeRequest(w io.Writer, method string, payload []byte, budget time.Duration, checksum bool) error {
	if len(method) > maxMethodLen {
		return errors.New("rpcx: method name too long")
	}
	head := byte(len(method))
	extra := 0
	if budget > 0 {
		head |= budgetFlag
		extra = 8
	}
	tail := 0
	if checksum {
		head |= checksumFlag
		tail = 4
	}
	var budgetBuf [8]byte
	binary.LittleEndian.PutUint64(budgetBuf[:], uint64(budget.Microseconds()))
	total := uint32(1 + len(method) + extra + len(payload) + tail)
	var lenBuf [4]byte
	binary.LittleEndian.PutUint32(lenBuf[:], total)
	if _, err := w.Write(lenBuf[:]); err != nil {
		return err
	}
	if _, err := w.Write([]byte{head}); err != nil {
		return err
	}
	if _, err := io.WriteString(w, method); err != nil {
		return err
	}
	if budget > 0 {
		if _, err := w.Write(budgetBuf[:]); err != nil {
			return err
		}
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	if checksum {
		crc := crc32.Update(0, castagnoli, []byte{head})
		crc = crc32.Update(crc, castagnoli, []byte(method))
		if budget > 0 {
			crc = crc32.Update(crc, castagnoli, budgetBuf[:])
		}
		crc = crc32.Update(crc, castagnoli, payload)
		var crcBuf [4]byte
		binary.LittleEndian.PutUint32(crcBuf[:], crc)
		if _, err := w.Write(crcBuf[:]); err != nil {
			return err
		}
	}
	return nil
}

// flusher is satisfied by *bufio.Writer; writeResponse uses it to push the
// tiny response header onto the wire ahead of a large payload.
type flusher interface{ Flush() error }

// largeFlushThreshold: payloads at least this big get the header flushed
// first. The payload then bypasses the bufio copy entirely (direct write),
// and — critically for stall detection — the header reaches the client even
// when a half-open link stalls only large frames, so the client's progress
// watchdog sees the response start and can fail the call in bounded time.
const largeFlushThreshold = 64 * 1024

func writeResponse(w io.Writer, status byte, payload []byte, checksum bool) error {
	head := status
	tail := 0
	if checksum {
		head |= respChecksumFlag
		tail = 4
	}
	total := uint32(1 + len(payload) + tail)
	var lenBuf [4]byte
	binary.LittleEndian.PutUint32(lenBuf[:], total)
	if _, err := w.Write(lenBuf[:]); err != nil {
		return err
	}
	if _, err := w.Write([]byte{head}); err != nil {
		return err
	}
	if len(payload) >= largeFlushThreshold {
		if f, ok := w.(flusher); ok {
			if err := f.Flush(); err != nil {
				return err
			}
		}
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	if checksum {
		crc := crc32.Update(0, castagnoli, []byte{head})
		crc = crc32.Update(crc, castagnoli, payload)
		var crcBuf [4]byte
		binary.LittleEndian.PutUint32(crcBuf[:], crc)
		if _, err := w.Write(crcBuf[:]); err != nil {
			return err
		}
	}
	return nil
}

func readResponse(r io.Reader, max uint32) (byte, []byte, error) {
	body, err := readBody(r, "read-response", max)
	if err != nil {
		return 0, nil, err
	}
	if body[0]&respChecksumFlag != 0 {
		if body, err = verifyChecksum(body, "read-response"); err != nil {
			return 0, nil, err
		}
	}
	return body[0] & statusMask, body[1:], nil
}

// Client is an RPC client over a small set of TCP connections to one peer.
// Safe for concurrent use. A call checks a connection out for one exchange,
// so calls serialize on a connection, never on the client: one that finds
// none idle opens another when the client has a dialer (Dial's address, or
// SetDialer), up to maxConns, past which callers wait for a check-in. A
// NewClient-wrapped connection without a dialer is the set of one. Deadline,
// watchdog, checksum and poisoning belong to the connection a call holds, so
// a timeout costs one call one connection and nobody else notices.
type Client struct {
	shaper *netem.Shaper

	// mu guards the connection set only; no I/O, dial or sleep happens under
	// it. conns is every live connection, idle the checked-in ones (most
	// recently used last), dialing the dials in progress, lost the
	// connections dropped for a fault or retired and not yet replaced, gen
	// the ForceRedial generation new connections are stamped with.
	mu      sync.Mutex
	avail   sync.Cond // broadcast on every check-in, drop and Close
	conns   map[*clientConn]struct{}
	idle    []*clientConn
	dialing int
	lost    int
	gen     uint64
	closed  bool

	// Fault handling (see RetryPolicy). dialer is nil for NewClient-wrapped
	// connections, which therefore can never open another connection unless a
	// custom dialer is installed (SetDialer); Dial installs one to its address.
	dialer     func() (net.Conn, error)
	retry      RetryPolicy
	retrySet   bool
	idempotent map[string]bool
	retryGate  RetryGate

	// Integrity (see SetChecksum / SetMaxFrameSize).
	checksum bool
	maxFrame int

	// In-flight progress deadline (see SetProgressPolicy).
	progress    ProgressPolicy
	progressSet bool

	// Incarnation handshake state (see Handshake): once handshaken, every new
	// connection runs the hello exchange before it carries a call, so each
	// knows the incarnation it terminates at; remoteInc is the newest answer.
	handshaken atomic.Bool
	remoteInc  atomic.Uint64

	// corruptFrames counts integrity violations observed on this client's
	// calls: response frames that failed their checksum or cap locally, plus
	// typed statusCorrupt refusals from the server. redials counts lost
	// connections successfully replaced (growth is not a redial). panics
	// counts statusPanic responses (the peer's handler panicked); overloads
	// counts statusOverload refusals (the peer's in-flight cap); stalledCalls
	// counts calls aborted by the progress watchdog.
	corruptFrames atomic.Uint64
	redials       atomic.Uint64
	panics        atomic.Uint64
	overloads     atomic.Uint64
	stalledCalls  atomic.Uint64
}

// A client opens at most maxConns connections (callers past that wait; the
// scheduler's AIMD limiter stays the only adaptive cap per device) and keeps
// at most maxIdleConns checked in, so a burst does not pin sockets.
const (
	maxConns     = 16
	maxIdleConns = 4
)

// progressConn counts bytes crossing a connection, per direction, so the
// progress watchdog can observe transfer advance — and tell the first
// response byte from the request's own — without hooking bufio internals.
type progressConn struct {
	net.Conn
	read, written atomic.Int64
}

func (p *progressConn) Read(b []byte) (int, error) {
	n, err := p.Conn.Read(b)
	p.read.Add(int64(n))
	return n, err
}

func (p *progressConn) Write(b []byte) (int, error) {
	n, err := p.Conn.Write(b)
	p.written.Add(int64(n))
	return n, err
}

// clientConn is one connection of a Client's set. Between check-out and
// check-in it belongs to exactly one call, which alone touches its fields:
// inc is the incarnation it handshook with (0 = never), gen the ForceRedial
// generation it was opened in, dead a stream its call can no longer trust.
type clientConn struct {
	progressConn
	r        *bufio.Reader
	w        *bufio.Writer
	inc, gen uint64
	dead     bool
}

func newClientConn(conn net.Conn, gen uint64) *clientConn {
	cn := &clientConn{gen: gen}
	cn.Conn = conn
	cn.r = bufio.NewReaderSize(&cn.progressConn, 64*1024)
	cn.w = bufio.NewWriterSize(&cn.progressConn, 64*1024)
	return cn
}

// poison closes a desynced or torn stream; release then drops it.
func (cn *clientConn) poison() {
	cn.dead = true
	cn.Close()
}

// Dial connects to addr. If shaper is non-nil, outbound traffic is
// bandwidth-limited and delayed through it (emulating the device's uplink);
// connections the client opens later share it, as they share the link.
func Dial(addr string, shaper *netem.Shaper) (*Client, error) {
	dial := func() (net.Conn, error) { return net.DialTimeout("tcp", addr, 5*time.Second) }
	conn, err := dial()
	if err != nil {
		return nil, err
	}
	c := NewClient(conn, shaper)
	c.dialer = dial
	return c, nil
}

// NewClient wraps an existing connection (e.g. a netem.Pipe end).
func NewClient(conn net.Conn, shaper *netem.Shaper) *Client {
	c := &Client{shaper: shaper, conns: make(map[*clientConn]struct{})}
	c.avail.L = &c.mu
	cn := newClientConn(conn, 0)
	c.conns[cn] = struct{}{}
	c.idle = append(c.idle, cn)
	return c
}

// SetRetryPolicy installs a retry policy and enables replacing lost
// connections (see RetryPolicy). Not safe to call concurrently with
// in-flight calls.
func (c *Client) SetRetryPolicy(p RetryPolicy) {
	c.retry = p.withDefaults()
	c.retrySet = true
}

// SetRetryGate installs a shared retry budget: once set, every in-place
// retry attempt (beyond the first try) must withdraw a token from the gate
// before firing, and a refused withdrawal surfaces as a typed
// *RetryBudgetError (errors.Is(err, ErrRetryBudget)) carrying the failure
// the retry would have addressed. Multiple clients sharing one gate share
// one budget — that coupling is the point: it bounds the fleet-wide retry
// rate under a correlated failure. nil removes the gate. Not safe to call
// concurrently with in-flight calls.
func (c *Client) SetRetryGate(g RetryGate) { c.retryGate = g }

// SetChecksum controls whether this client's requests carry a CRC32C
// trailer (default off, keeping frames bit-identical to the historical
// format). Checksummed responses are always verified when present,
// regardless of this setting. Not safe to call concurrently with in-flight
// calls.
func (c *Client) SetChecksum(enabled bool) { c.checksum = enabled }

// SetMaxFrameSize caps the body length of response frames, enforced before
// the body buffer is allocated (<= 0 selects DefaultMaxFrameSize). Not safe
// to call concurrently with in-flight calls.
func (c *Client) SetMaxFrameSize(n int) { c.maxFrame = n }

// SetDialer installs a custom dialer used to open every further connection
// (instead of dialing the original address). This is how a NewClient-
// wrapped connection — e.g. one wrapped in a netem fault injector — gains
// more connections and re-dial recovery. Not safe to call concurrently with
// in-flight calls.
func (c *Client) SetDialer(dial func() (net.Conn, error)) { c.dialer = dial }

// SetProgressPolicy installs a per-call in-flight progress deadline (see
// ProgressPolicy). The zero policy's fields select the defaults; progress
// watching stays off entirely until this is called, so clients that never
// opt in keep the historical single-deadline behavior. Not safe to call
// concurrently with in-flight calls.
func (c *Client) SetProgressPolicy(p ProgressPolicy) {
	c.progress = p.withDefaults()
	c.progressSet = true
}

// acquire checks a connection out: the most recently used idle one, else a
// fresh one, else it waits for a check-in. A client that has lost a
// connection opens another only with a retry policy installed;
// ErrClientBroken means none is left and none may be opened.
func (c *Client) acquire() (*clientConn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		open := len(c.conns) + c.dialing
		mayDial := c.dialer != nil && (c.retrySet || c.lost == 0)
		switch n := len(c.idle); {
		case c.closed:
			return nil, ErrClientClosed
		case n > 0:
			cn := c.idle[n-1]
			c.idle = c.idle[:n-1]
			return cn, nil
		case mayDial && open < maxConns:
			return c.grow()
		case open == 0:
			return nil, ErrClientBroken
		}
		c.avail.Wait()
	}
}

// grow opens one more connection. Called with mu held, it reserves the slot
// and dials with mu released. A handshaken client learns the peer's identity
// before the connection serves a call: a silent restart must surface as a
// changed incarnation here, never as a stale response attributed to the new
// process.
func (c *Client) grow() (cn *clientConn, err error) {
	c.dialing++
	gen := c.gen
	c.mu.Unlock()
	conn, err := c.dialer()
	if err != nil {
		err = fmt.Errorf("rpcx: re-dial: %w", err)
	} else if cn = newClientConn(conn, gen); c.handshaken.Load() {
		if err = c.hello(cn, 5*time.Second); err != nil {
			err = fmt.Errorf("rpcx: re-handshake: %w", err)
		}
	}
	c.mu.Lock()
	c.dialing--
	if err == nil && c.closed {
		err = ErrClientClosed
	}
	if err != nil {
		if cn != nil {
			cn.Close()
		}
		c.avail.Broadcast()
		return nil, err
	}
	c.conns[cn] = struct{}{}
	if c.lost > 0 { // this dial replaces a lost connection; growth is not a redial
		c.lost--
		c.redials.Add(1)
	}
	return cn, nil
}

// release checks a connection back in. One its call poisoned, one opened
// before the last ForceRedial, and any connection of a closed client is
// closed and dropped instead; so is one beyond the idle cap.
func (c *Client) release(cn *clientConn) {
	c.mu.Lock()
	lost := cn.dead || cn.gen != c.gen
	keep := !lost && !c.closed && len(c.idle) < maxIdleConns
	if keep {
		c.idle = append(c.idle, cn)
	} else {
		delete(c.conns, cn)
		if lost {
			c.lost++
		}
	}
	c.avail.Broadcast()
	c.mu.Unlock()
	if !keep {
		cn.Close()
	}
}

// Handshake performs the builtin hello exchange: it asks the peer for its
// incarnation, remembers it (RemoteIncarnation), and arms automatic
// handshake — every connection opened from now on repeats the exchange
// before it carries a call, so each reply can be attributed to the process
// that computed it (CallFrom). d bounds the exchange (<= 0 means no
// deadline).
func (c *Client) Handshake(d time.Duration) (uint64, error) {
	cn, err := c.acquire()
	if err != nil {
		return 0, err
	}
	defer c.release(cn)
	if err := c.hello(cn, d); err != nil {
		return 0, err
	}
	c.handshaken.Store(true)
	return cn.inc, nil
}

// RemoteIncarnation returns the peer incarnation learned by the most recent
// hello exchange on any of this client's connections (0 before any
// Handshake, or when the peer never called SetIncarnation).
func (c *Client) RemoteIncarnation() uint64 { return c.remoteInc.Load() }

// ForceRedial retires every connection — idle ones are closed now,
// checked-out ones when their call checks them in — so every later call is
// carried by a connection dialed, and handshaken, after this returns. The
// cluster layer uses it when a restart is detected on another path: the data
// connections may still terminate at the dead incarnation's socket, and
// re-dialing is the only way to reach the new process. It never waits for a
// call in flight.
func (c *Client) ForceRedial() {
	c.mu.Lock()
	c.gen++
	idle := c.idle
	c.idle = nil
	for _, cn := range idle {
		delete(c.conns, cn)
	}
	c.lost += len(idle)
	c.avail.Broadcast()
	c.mu.Unlock()
	for _, cn := range idle {
		cn.Close()
	}
}

// hello runs one hello request/response on cn, which the caller holds, and
// records the peer's incarnation.
func (c *Client) hello(cn *clientConn, d time.Duration) error {
	if d > 0 {
		if err := cn.SetDeadline(time.Now().Add(d)); err != nil {
			return err
		}
		defer cn.SetDeadline(time.Time{})
	}
	if err := writeRequest(cn.w, HelloMethod, nil, 0, c.checksum); err != nil {
		return c.callErr(cn, HelloMethod, d, err, nil)
	}
	if err := cn.w.Flush(); err != nil {
		return c.callErr(cn, HelloMethod, d, err, nil)
	}
	status, resp, err := readResponse(cn.r, frameCap(c.maxFrame))
	if err != nil {
		return c.callErr(cn, HelloMethod, d, err, nil)
	}
	if status != statusOK || len(resp) < 8 {
		return &RemoteError{Msg: fmt.Sprintf("hello failed (status %d, %d bytes)", status, len(resp))}
	}
	cn.inc = binary.LittleEndian.Uint64(resp)
	c.remoteInc.Store(cn.inc)
	return nil
}

// StalledCalls returns how many calls the progress watchdog aborted with a
// typed *StallError.
func (c *Client) StalledCalls() uint64 { return c.stalledCalls.Load() }

// CorruptFrames returns how many integrity violations this client observed:
// locally failed response checksums/caps plus typed corrupt-request
// refusals from the server.
func (c *Client) CorruptFrames() uint64 { return c.corruptFrames.Load() }

// Redials returns how many times a lost connection — poisoned, torn down by
// the peer, or retired by ForceRedial — was successfully replaced with a
// fresh one. Connections opened because every other was busy do not count.
func (c *Client) Redials() uint64 { return c.redials.Load() }

// Panics returns how many typed handler-panic responses (*PanicError) this
// client has received from its peer.
func (c *Client) Panics() uint64 { return c.panics.Load() }

// Overloads returns how many typed overload refusals (*OverloadError) this
// client has received from its peer.
func (c *Client) Overloads() uint64 { return c.overloads.Load() }

// MarkIdempotent declares methods safe to retry after a transport failure:
// re-executing them on the server has no side effects. Unmarked methods are
// never retried (they still benefit from re-dial on the *next* call).
func (c *Client) MarkIdempotent(methods ...string) {
	if c.idempotent == nil {
		c.idempotent = make(map[string]bool, len(methods))
	}
	for _, m := range methods {
		c.idempotent[m] = true
	}
}

// Call issues a request and waits for the response. Emulated link cost is
// charged on both directions' payload sizes.
func (c *Client) Call(method string, payload []byte) ([]byte, error) {
	return c.CallTimeout(method, payload, 0)
}

// CallTimeout issues a request and waits at most d for the full response
// (d <= 0 means no deadline). On expiry it returns a *TimeoutError (matching
// errors.Is(err, ErrTimeout)) and drops the connection the call held: it may
// still deliver the stale response, so it is closed and never reused. Calls
// in flight on the client's other connections are unaffected. Without a
// retry policy the lost connection is not replaced, and once none is left
// every later call fails with ErrClientBroken; with one, the next call that
// finds nothing idle dials a fresh connection (and idempotent-marked methods
// retry in place, with exponential backoff + jitter). The deadline covers
// connection I/O, not the emulated link's shaping sleeps.
func (c *Client) CallTimeout(method string, payload []byte, d time.Duration) ([]byte, error) {
	return c.CallBudget(method, payload, d, 0)
}

// CallBudget is CallTimeout with an explicit remaining-deadline budget
// carried to the server (budget <= 0 sends none). A server whose cost
// estimate for the method exceeds the budget refuses the call with a typed
// *BudgetError (errors.Is(err, ErrBudgetExhausted)) instead of executing it
// into a late reply. Budget refusals are never retried: the refusal is
// deterministic until the server's estimate moves. A positive budget also
// caps the call as a whole — retry attempts share it rather than each
// getting a fresh timeout, and dispatch with nothing left fails typed.
func (c *Client) CallBudget(method string, payload []byte, d, budget time.Duration) ([]byte, error) {
	resp, _, err := c.CallFrom(method, payload, d, budget)
	return resp, err
}

// CallFrom is CallBudget that also reports who answered: inc is the
// incarnation the connection that carried the reply handshook with (0 when
// it never did, or on error). A client's connections may have been opened
// on either side of a peer restart, so provenance belongs to the reply, not
// to the client — this is what the scheduler fences on.
func (c *Client) CallFrom(method string, payload []byte, d, budget time.Duration) (resp []byte, inc uint64, err error) {
	attempts := 1
	if c.retrySet && c.retry.MaxAttempts > 1 && c.idempotent[method] {
		attempts = c.retry.MaxAttempts
	}
	// A budget is an overall deadline across every attempt, not a per-attempt
	// timeout: retrying a call whose first attempt consumed the budget would
	// only stretch the failure to attempts x budget and still be late.
	var overall time.Time
	if budget > 0 {
		overall = time.Now().Add(budget)
	}
	for attempt := 1; attempt <= attempts; attempt++ {
		if attempt > 1 {
			// The shared retry budget gates every in-place retry: under a
			// correlated failure, N clients each locally entitled to a retry
			// sum to a storm, and the budget is where that sum is visible. A
			// refused withdrawal surfaces typed, carrying the first attempt's
			// failure so classification still sees what broke.
			if c.retryGate != nil && !c.retryGate.TryWithdraw() {
				return nil, 0, &RetryBudgetError{Method: method, Cause: err}
			}
			time.Sleep(c.retry.backoff(attempt - 1))
		}
		dAtt, bAtt := d, budget
		if !overall.IsZero() {
			remaining := time.Until(overall)
			if remaining <= 0 {
				if err == nil {
					err = &BudgetError{Method: method, Budget: budget,
						Msg: "budget exhausted before dispatch"}
				}
				return nil, 0, err
			}
			bAtt = remaining
			if dAtt <= 0 || remaining < dAtt {
				dAtt = remaining
			}
		}
		cn, aerr := c.acquire()
		switch {
		case aerr == nil:
		case errors.Is(aerr, ErrClientBroken) && err != nil:
			// Cannot replace the connection this call lost: surface the
			// failure that broke the stream, not the sentinel.
			return nil, 0, err
		case errors.Is(aerr, ErrClientBroken), errors.Is(aerr, ErrClientClosed):
			return nil, 0, aerr
		default:
			err = aerr // the dial failed; the next attempt dials again
			continue
		}
		resp, err = c.callOnce(cn, method, payload, dAtt, bAtt)
		inc = cn.inc
		c.release(cn)
		if err == nil {
			return resp, inc, nil
		}
		if !retryable(err) {
			return nil, 0, err
		}
	}
	return nil, 0, err
}

// retryable reports whether an error may be fixed by re-dialing and trying
// again: transport-level failures — including corrupt frames, whose re-send
// travels clean bytes on a fresh connection — qualify, as do typed overload
// refusals (backoff gives the server room to drain); application-level
// RemoteErrors (the handler ran and answered), BudgetErrors (deterministic
// refusal), and PanicErrors (the handler executed partway; a second attempt
// could duplicate its effect) do not.
func retryable(err error) bool {
	var re *RemoteError
	var be *BudgetError
	var pe *PanicError
	return !errors.As(err, &re) && !errors.As(err, &be) && !errors.As(err, &pe)
}

// callOnce performs a single request/response exchange on cn, which the
// caller has checked out.
func (c *Client) callOnce(cn *clientConn, method string, payload []byte, d, budget time.Duration) ([]byte, error) {
	watching := c.progressSet
	if d > 0 || watching {
		if d > 0 {
			if err := cn.SetDeadline(time.Now().Add(d)); err != nil {
				return nil, err
			}
		}
		defer cn.SetDeadline(time.Time{})
	}
	if c.shaper != nil {
		c.shaper.Throttle(len(payload) + len(method) + 5)
		if sd := c.shaper.Delay(); sd > 0 {
			time.Sleep(sd)
		}
	}
	// Progress watchdog: started after the shaper's modelled sleeps so only
	// real connection I/O is on the clock. The call thread publishes the
	// write→wait phase edge (writeDone); the watchdog aborts a stalled
	// transfer by expiring the connection deadline, and the stalled flag
	// tells the error path to type the failure as a stall, not a timeout.
	var sf *stallFlag
	var writeDone atomic.Bool
	if watching {
		sf = &stallFlag{start: time.Now()}
		stop, done := make(chan struct{}), make(chan struct{})
		go progressWatch(&cn.progressConn, cn.read.Load(), c.progress, sf, &writeDone, stop, done)
		defer func() { close(stop); <-done }()
	}
	if err := writeRequest(cn.w, method, payload, budget, c.checksum); err != nil {
		return nil, c.callErr(cn, method, d, err, sf)
	}
	if err := cn.w.Flush(); err != nil {
		return nil, c.callErr(cn, method, d, err, sf)
	}
	writeDone.Store(true)
	status, resp, err := readResponse(cn.r, frameCap(c.maxFrame))
	if err != nil {
		return nil, c.callErr(cn, method, d, err, sf)
	}
	if c.shaper != nil {
		// Response pays the downlink: serialize + propagate.
		c.shaper.Throttle(len(resp) + 5)
		if sd := c.shaper.Delay(); sd > 0 {
			time.Sleep(sd)
		}
	}
	switch status {
	case statusOK:
		return resp, nil
	case statusBudget:
		return nil, &BudgetError{Method: method, Budget: budget, Msg: string(resp)}
	case statusPanic:
		// The handler panicked but the server recovered: the connection is
		// fine, the one call failed. Typed so the scheduler can count panics
		// per device and demote a wedged daemon.
		c.panics.Add(1)
		return nil, &PanicError{Method: method, Msg: string(resp)}
	case statusOverload:
		c.overloads.Add(1)
		return nil, &OverloadError{Method: method, Msg: string(resp)}
	case statusCorrupt:
		// The server could not trust our request frame and is closing the
		// connection; poison it here too so the next attempt takes another.
		c.corruptFrames.Add(1)
		cn.poison()
		return nil, &FrameError{Op: "request", Reason: string(resp)}
	case statusFault:
		return nil, decodeFault(resp)
	default:
		return nil, &RemoteError{Msg: string(resp)}
	}
}

// stallFlag is the progress watchdog's verdict channel: the watchdog sets the
// flag before aborting the connection, so the error path can tell a stall
// (progress deadline) apart from an ordinary timeout (overall deadline).
type stallFlag struct {
	atomic.Bool
	start time.Time
}

// progressWatch is the per-call watchdog goroutine: every Tick it requires
// MinBytes of advance on the call's connection while a frame transfer is in
// flight (the request is still being written, or the response has started
// arriving). Two consecutive dead ticks abort the call by expiring the
// connection deadline. The wait for the server's compute (write done, no
// response byte yet) is exempt — it is bounded by the call's own deadline.
// readBase is the connection's read count when the call began, sampled by
// the call itself: anything read beyond it is the response arriving.
func progressWatch(pc *progressConn, readBase int64, p ProgressPolicy,
	sf *stallFlag, writeDone *atomic.Bool, stop, done chan struct{}) {
	defer close(done)
	t := time.NewTicker(p.Tick)
	defer t.Stop()
	last := pc.read.Load() + pc.written.Load()
	strikes := 0
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			read := pc.read.Load()
			cur := read + pc.written.Load()
			advance := cur - last
			last = cur
			enforcing := !writeDone.Load() || read > readBase
			if !enforcing || advance >= p.MinBytes {
				strikes = 0
				continue
			}
			if strikes++; strikes < 2 {
				continue
			}
			sf.Store(true)
			// Abort the in-flight I/O: the blocked read/write returns a
			// timeout, which callErr re-types as a *StallError via sf.
			pc.SetDeadline(time.Now().Add(-time.Second))
			return
		}
	}
}

// callErr converts a transport error into a *TimeoutError when it was caused
// by the per-call deadline — or a *StallError when the progress watchdog
// aborted the call — poisoning the connection so the desynced stream is never
// reused. A *FrameError (failed checksum or over-cap length) always poisons
// too — the stream's framing can no longer be trusted — and counts toward
// the corruption counter. With a retry policy installed, any other transport
// error also poisons the connection and retires the rest (the peer tore this
// one down: eviction or a restart took the others idle for longer too) so the
// next attempt or call dials instead of working through dead streams.
func (c *Client) callErr(cn *clientConn, method string, d time.Duration, err error, sf *stallFlag) error {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		cn.poison()
		if sf != nil && sf.Load() {
			c.stalledCalls.Add(1)
			return &StallError{Method: method, Tick: c.progress.Tick,
				MinBytes: c.progress.MinBytes, After: time.Since(sf.start)}
		}
		return &TimeoutError{Method: method, After: d}
	}
	var fe *FrameError
	if errors.As(err, &fe) {
		c.corruptFrames.Add(1)
		cn.poison()
		return err
	}
	if c.retrySet {
		cn.poison()
		c.ForceRedial()
	}
	return err
}

// SetLink updates the emulated link parameters (no-op without a shaper).
func (c *Client) SetLink(bandwidthMbps float64, delay time.Duration) {
	if c.shaper == nil {
		return
	}
	c.shaper.SetRate(bandwidthMbps)
	c.shaper.SetDelay(delay)
}

// Close closes every connection, idle or checked out, and is terminal: a
// call in flight fails on its closed connection, and every later call fails
// fast with ErrClientClosed without dialing.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	conns := c.conns
	c.conns, c.idle = nil, nil
	c.avail.Broadcast()
	c.mu.Unlock()
	var err error
	for cn := range conns {
		err = errors.Join(err, cn.Close())
	}
	return err
}
