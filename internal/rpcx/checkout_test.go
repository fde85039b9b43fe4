package rpcx

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"murmuration/internal/netem"
	"murmuration/internal/testutil"
)

// These tests pin the unit a Client serializes on: the connection a call
// checked out, not the client. Each fails on a client that holds one mutex
// across a call.

// connCounter counts, on the server side, the connections a client opened
// and how many of them are open now.
type connCounter struct{ accepted, open atomic.Int64 }

type countedConn struct {
	net.Conn
	cc   *connCounter
	once sync.Once
}

func (c *countedConn) Close() error {
	c.once.Do(func() { c.cc.open.Add(-1) })
	return c.Conn.Close()
}

// wrap is a Server.WrapConn.
func (cc *connCounter) wrap(c net.Conn) net.Conn {
	cc.accepted.Add(1)
	cc.open.Add(1)
	return &countedConn{Conn: c, cc: cc}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// holder serves "hold": the handler announces itself on entered and blocks
// until the gate its first payload byte names is opened, then echoes. Calls
// held on one gate are provably in flight together.
type holder struct {
	entered chan struct{}
	gates   []chan struct{}
	once    []sync.Once
}

func holdServer(s *Server, gates int) *holder {
	h := &holder{
		entered: make(chan struct{}, 64), // never blocks a handler: tests hold far fewer
		gates:   make([]chan struct{}, gates),
		once:    make([]sync.Once, gates),
	}
	for i := range h.gates {
		h.gates[i] = make(chan struct{})
	}
	s.Handle("hold", func(p []byte) ([]byte, error) {
		h.entered <- struct{}{}
		<-h.gates[p[0]]
		return p, nil
	})
	return h
}

func (h *holder) open(g int) { h.once[g].Do(func() { close(h.gates[g]) }) }

// openAll is deferred after Server.Close is, so that a failed test does not
// leave Close waiting on a held handler.
func (h *holder) openAll() {
	for g := range h.gates {
		h.open(g)
	}
}

// holdN starts n "hold" calls on gate index g and returns once all n are
// inside the handler; the returned func waits for them and reports failures.
func (h *holder) holdN(t *testing.T, c *Client, g byte, n int) (wait func()) {
	t.Helper()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if resp, err := c.CallTimeout("hold", []byte{g}, 10*time.Second); err != nil || !bytes.Equal(resp, []byte{g}) {
				t.Errorf("held call on gate %d: resp %v, err %v", g, resp, err)
			}
		}()
	}
	for i := 0; i < n; i++ {
		select {
		case <-h.entered:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d calls reached the handler together", i, n)
		}
	}
	return wg.Wait
}

// TestCallsOverlapPerConnection: K calls to a 50 ms handler take one handler
// time on a client that can dial and K of them on one that cannot.
func TestCallsOverlapPerConnection(t *testing.T) {
	testutil.CheckGoroutines(t)
	const (
		k   = 4
		nap = 50 * time.Millisecond
	)
	s := NewServer()
	s.Handle("nap", func(p []byte) ([]byte, error) { time.Sleep(nap); return p, nil })
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	run := func(c *Client) time.Duration {
		start := time.Now()
		var wg sync.WaitGroup
		for i := 0; i < k; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := c.Call("nap", nil); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		return time.Since(start)
	}

	dialed, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer dialed.Close()
	if e := run(dialed); e >= 2*nap {
		t.Fatalf("%d calls on a dial-capable client took %v, want < %v: they did not overlap", k, e, 2*nap)
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	wrapped := NewClient(conn, nil)
	defer wrapped.Close()
	if e := run(wrapped); e < k*nap {
		t.Fatalf("%d calls on a conn-wrapped client took %v, want >= %v: one connection cannot overlap them", k, e, k*nap)
	}
}

// TestLostConnectionCostsOneCall: one call times out (or stalls under a
// large-frame partition) while three siblings are in flight. The siblings
// succeed, and exactly one connection is replaced — when demand next needs it.
func TestLostConnectionCostsOneCall(t *testing.T) {
	for _, stall := range []bool{false, true} {
		name := "timeout"
		if stall {
			name = "stall"
		}
		t.Run(name, func(t *testing.T) {
			testutil.CheckGoroutines(t)
			sh := netem.NewShaper(0, 0)
			var cc connCounter
			s := NewServer()
			s.WrapConn = func(c net.Conn) net.Conn {
				return cc.wrap(netem.NewConnDir(c, sh, netem.Downstream))
			}
			h := holdServer(s, 2)
			release := make(chan struct{})
			s.Handle("hang", func([]byte) ([]byte, error) { <-release; return nil, nil })
			big := bytes.Repeat([]byte{0xAB}, 1<<20)
			s.Handle("bulk", func([]byte) ([]byte, error) { return big, nil })
			addr, err := s.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			defer close(release)
			defer h.openAll()
			defer sh.SetStallLarge(netem.Downstream, 0, 0)

			c, err := Dial(addr, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			c.SetRetryPolicy(RetryPolicy{MaxAttempts: 1}) // replace lost connections, retry nothing
			c.SetProgressPolicy(ProgressPolicy{Tick: 30 * time.Millisecond, MinBytes: 1})

			siblings := h.holdN(t, c, 0, 3)
			if stall {
				sh.SetStallLarge(netem.Downstream, 4096, 30*time.Second)
				if _, err := c.CallTimeout("bulk", nil, 10*time.Second); !errors.Is(err, ErrStalled) {
					t.Fatalf("want ErrStalled, got %v", err)
				}
				if got := c.StalledCalls(); got != 1 {
					t.Fatalf("StalledCalls = %d, want 1", got)
				}
			} else if _, err := c.CallTimeout("hang", nil, 50*time.Millisecond); !errors.Is(err, ErrTimeout) {
				t.Fatalf("want ErrTimeout, got %v", err)
			}
			h.open(0)
			siblings() // reports any sibling that noticed
			if got := cc.accepted.Load(); got != 4 {
				t.Fatalf("server accepted %d connections for 4 calls in flight, want 4", got)
			}
			if got := c.Redials(); got != 0 {
				t.Fatalf("Redials = %d before anyone needed the lost connection back, want 0", got)
			}

			// Four in flight again: three ride the survivors, one dials the
			// replacement.
			again := h.holdN(t, c, 1, 4)
			h.open(1)
			again()
			if got := c.Redials(); got != 1 {
				t.Fatalf("Redials = %d, want exactly 1", got)
			}
			if got := cc.accepted.Load(); got != 5 {
				t.Fatalf("server accepted %d connections in all, want 5", got)
			}
		})
	}
}

// signalGate is a RetryGate that grants every retry and announces it: the
// client consults the gate right before it sleeps the backoff.
type signalGate struct{ asked chan struct{} }

func (g signalGate) TryWithdraw() bool {
	select {
	case g.asked <- struct{}{}:
	default:
	}
	return true
}

// TestBackoffDoesNotBlockOtherCalls: while an idempotent call sits out a
// 200 ms retry backoff, an unrelated call on the same client completes.
func TestBackoffDoesNotBlockOtherCalls(t *testing.T) {
	testutil.CheckGoroutines(t)
	s := NewServer()
	var calls atomic.Int64
	s.Handle("flaky", func([]byte) ([]byte, error) {
		if calls.Add(1) == 1 {
			time.Sleep(300 * time.Millisecond) // first attempt exceeds the deadline
		}
		return []byte("served"), nil
	})
	s.Handle("echo", func(p []byte) ([]byte, error) { return p, nil })
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetRetryPolicy(RetryPolicy{MaxAttempts: 2, BaseBackoff: 200 * time.Millisecond})
	c.MarkIdempotent("flaky")
	gate := signalGate{asked: make(chan struct{}, 1)}
	c.SetRetryGate(gate)

	type result struct {
		resp []byte
		err  error
	}
	flaky := make(chan result, 1)
	go func() {
		resp, err := c.CallTimeout("flaky", nil, 30*time.Millisecond)
		flaky <- result{resp, err}
	}()
	select {
	case <-gate.asked: // attempt 1 failed; the backoff (>= 160 ms with jitter) starts now
	case <-time.After(5 * time.Second):
		t.Fatal("flaky call never reached its retry")
	}
	start := time.Now()
	if resp, err := c.Call("echo", []byte("hi")); err != nil || string(resp) != "hi" {
		t.Fatalf("unrelated call during backoff: %q, %v", resp, err)
	}
	if e := time.Since(start); e > 100*time.Millisecond {
		t.Fatalf("unrelated call took %v during a sibling's backoff, want milliseconds", e)
	}
	if r := <-flaky; r.err != nil || string(r.resp) != "served" {
		t.Fatalf("retried call: %q, %v", r.resp, r.err)
	}
}

// TestConnectionCeilingAndIdleCap: 4x maxConns callers never have more than
// maxConns calls in flight — a connection carries one — and the set shrinks
// to maxIdleConns once they stop. The ceiling is read off handler
// concurrency, not open sockets: the server learns of a close after the
// client has already dialed the next connection.
func TestConnectionCeilingAndIdleCap(t *testing.T) {
	testutil.CheckGoroutines(t)
	var cc connCounter
	inFlight := testutil.NewOverlap()
	s := NewServer()
	s.WrapConn = cc.wrap
	s.Handle("nap", inFlight.Wrap(func(p []byte) ([]byte, error) { time.Sleep(5 * time.Millisecond); return p, nil }))
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var wg sync.WaitGroup
	for i := 0; i < 4*maxConns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				if _, err := c.Call("nap", nil); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if peak := inFlight.Peak(); peak > maxConns || peak <= maxIdleConns {
		t.Fatalf("peak calls in flight %d, want in (%d, %d]", peak, maxIdleConns, maxConns)
	}
	waitFor(t, "the set to shrink to the idle cap", func() bool { return cc.open.Load() <= maxIdleConns })
	if _, err := c.Call("nap", nil); err != nil {
		t.Fatalf("call after the burst: %v", err)
	}
}

// TestIdleEvictedConnectionsReplaced: the server evicts both of a client's
// idle connections; the next idempotent call meets one dead stream, gives up
// on the other without trying it, and is answered on a fresh dial.
func TestIdleEvictedConnectionsReplaced(t *testing.T) {
	testutil.CheckGoroutines(t)
	var cc connCounter
	s := NewServer()
	s.WrapConn = cc.wrap
	s.ConnIdleTimeout = 50 * time.Millisecond
	h := holdServer(s, 1)
	s.Handle("echo", func(p []byte) ([]byte, error) { return p, nil })
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	defer h.openAll()
	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetRetryPolicy(RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond})
	c.MarkIdempotent("echo")

	two := h.holdN(t, c, 0, 2)
	h.open(0)
	two()
	waitFor(t, "both idle connections to be evicted", func() bool { return s.Evictions() == 2 })

	if resp, err := c.Call("echo", []byte("x")); err != nil || string(resp) != "x" {
		t.Fatalf("call after idle eviction: %q, %v", resp, err)
	}
	if got := c.Redials(); got != 1 {
		t.Fatalf("Redials = %d, want 1", got)
	}
	if got := cc.accepted.Load(); got != 3 {
		t.Fatalf("server accepted %d connections, want 3", got)
	}
}

// TestCallFromNamesTheAnsweringConnection: behind a mutable dialer, one
// client holds a connection to the old process and one to its replacement.
// Each reply carries the incarnation of the process that computed it,
// ForceRedial returns without waiting for the call in flight, and after it no
// call is served by the old process.
func TestCallFromNamesTheAnsweringConnection(t *testing.T) {
	testutil.CheckGoroutines(t)
	inc1, inc2 := uint64(1)<<incarnationSeqBits|0xA, uint64(2)<<incarnationSeqBits|0xB
	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	var oldServed atomic.Int64
	s1 := NewServer()
	s1.SetIncarnation(inc1)
	s1.Handle("who", func([]byte) ([]byte, error) {
		oldServed.Add(1)
		entered <- struct{}{}
		<-gate
		return []byte("old"), nil
	})
	addr1, err := s1.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	s2 := NewServer()
	s2.SetIncarnation(inc2)
	s2.Handle("who", func([]byte) ([]byte, error) { return []byte("new"), nil })
	addr2, err := s2.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()

	var target atomic.Value
	target.Store(addr1)
	c, err := Dial(addr1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetRetryPolicy(RetryPolicy{MaxAttempts: 1})
	c.SetDialer(func() (net.Conn, error) { return net.Dial("tcp", target.Load().(string)) })
	if inc, err := c.Handshake(2 * time.Second); err != nil || inc != inc1 {
		t.Fatalf("handshake = (%#x, %v), want %#x", inc, err, inc1)
	}

	type reply struct {
		resp []byte
		inc  uint64
		err  error
	}
	zombie := make(chan reply, 1)
	go func() {
		resp, inc, err := c.CallFrom("who", nil, 10*time.Second, 0)
		zombie <- reply{resp, inc, err}
	}()
	<-entered // the old process holds the first connection

	target.Store(addr2) // "restart": the address now resolves to the replacement
	resp, inc, err := c.CallFrom("who", nil, 2*time.Second, 0)
	if err != nil || string(resp) != "new" || inc != inc2 {
		t.Fatalf("second connection: (%q, %#x, %v), want (new, %#x)", resp, inc, err, inc2)
	}
	if got := c.RemoteIncarnation(); got != inc2 {
		t.Fatalf("RemoteIncarnation = %#x, want the newest handshake %#x", got, inc2)
	}

	forced := make(chan struct{})
	go func() { c.ForceRedial(); close(forced) }()
	select {
	case <-forced:
	case <-time.After(2 * time.Second):
		t.Fatal("ForceRedial waited for the call in flight")
	}
	close(gate)
	if r := <-zombie; r.err != nil || string(r.resp) != "old" || r.inc != inc1 {
		t.Fatalf("old connection's reply: (%q, %#x, %v), want (old, %#x)", r.resp, r.inc, r.err, inc1)
	}

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 3; j++ {
				resp, inc, err := c.CallFrom("who", nil, 2*time.Second, 0)
				if err != nil || string(resp) != "new" || inc != inc2 {
					t.Errorf("after ForceRedial: (%q, %#x, %v), want (new, %#x)", resp, inc, err, inc2)
				}
			}
		}()
	}
	wg.Wait()
	if got := oldServed.Load(); got != 1 {
		t.Fatalf("old process served %d calls, want only the one in flight at the restart", got)
	}
	if c.Redials() < 1 {
		t.Fatal("retired connections were never counted as replaced")
	}
}

// TestCloseIsTerminal: Close closes idle and checked-out connections alike,
// fails calls in flight, and a closed client never dials again — a
// retry-enabled one used to re-dial on its next call and leak the socket.
func TestCloseIsTerminal(t *testing.T) {
	testutil.CheckGoroutines(t)
	var cc connCounter
	s := NewServer()
	s.WrapConn = cc.wrap
	h := holdServer(s, 1)
	s.Handle("echo", func(p []byte) ([]byte, error) { return p, nil })
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	defer h.openAll()
	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.SetRetryPolicy(RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond})
	c.MarkIdempotent("echo", "hold")
	if _, err := c.Call("echo", nil); err != nil {
		t.Fatal(err)
	}

	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := c.Call("hold", []byte{0})
			errs <- err
		}()
	}
	<-h.entered
	<-h.entered
	c.Close()
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrClientClosed) {
				t.Fatalf("call in flight at Close returned %v, want ErrClientClosed", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("call in flight survived Close")
		}
	}
	if _, err := c.Call("echo", nil); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("call after Close returned %v, want ErrClientClosed", err)
	}
	if _, err := c.Handshake(time.Second); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("Handshake after Close returned %v, want ErrClientClosed", err)
	}
	if got := cc.accepted.Load(); got != 2 {
		t.Fatalf("server accepted %d connections, want 2: a closed client dialed", got)
	}
	h.open(0) // the server drops a connection once its handler returns
	waitFor(t, "every connection to be closed", func() bool { return cc.open.Load() == 0 })
}
