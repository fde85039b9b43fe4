package rpcx

import (
	"bytes"
	"errors"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"murmuration/internal/netem"
)

// TestProgressPolicyCostsNothing: the progress rule is a deadline the call's
// own goroutine keeps on the connection it holds, so a policy adds neither
// allocations nor goroutines to a call.
func TestProgressPolicyCostsNothing(t *testing.T) {
	s := NewServer()
	var peak atomic.Int64
	s.Handle("echo", func(p []byte) ([]byte, error) {
		if n := int64(runtime.NumGoroutine()); n > peak.Load() {
			peak.Store(n)
		}
		return p, nil
	})
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

	payload := bytes.Repeat([]byte{0x5A}, 15<<10)
	dst := make([]byte, len(payload))
	measure := func() (allocs float64, goroutines int64) {
		peak.Store(0)
		allocs = testing.AllocsPerRun(1000, func() {
			if _, _, err := c.CallFrom("echo", payload, dst, 5*time.Second, 0); err != nil {
				t.Fatal(err)
			}
		})
		return allocs, peak.Load()
	}
	bareAllocs, bareG := measure()
	c.SetProgressPolicy(ProgressPolicy{Tick: 30 * time.Millisecond})
	allocs, g := measure()
	t.Logf("per call: %.0f allocations, %d goroutines bare; %.0f and %d with a progress policy",
		bareAllocs, bareG, allocs, g)
	if allocs > bareAllocs {
		t.Errorf("a progress policy costs %.0f allocations per call, %.0f without one", allocs, bareAllocs)
	}
	if g > bareG {
		t.Errorf("%d goroutines seen inside the handler with a progress policy, %d without one", g, bareG)
	}
}

// TestProgressDeadlineStallsRequestWrite: a request frame that stops moving
// while it is being written fails as a stall long before the call deadline.
// The upstream wedge holds large writes for 1 s; the progress deadline has
// expired under them by the time they reach the socket.
func TestProgressDeadlineStallsRequestWrite(t *testing.T) {
	s := NewServer()
	s.Handle("sink", func([]byte) ([]byte, error) { return []byte("ok"), nil })
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	sh := netem.NewShaper(0, 0)
	dial := func() (net.Conn, error) {
		conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			return nil, err
		}
		return netem.NewConn(conn, sh), nil
	}
	conn, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(conn, nil)
	defer c.Close()
	c.SetDialer(dial)
	c.SetProgressPolicy(ProgressPolicy{Tick: 30 * time.Millisecond, MinBytes: 1})

	payload := bytes.Repeat([]byte{0xAB}, 256<<10)
	if _, err := c.CallTimeout("sink", payload, 10*time.Second); err != nil {
		t.Fatalf("request on a healthy link: %v", err)
	}

	sh.SetStallLarge(netem.Upstream, 4096, time.Second)
	defer sh.SetStallLarge(netem.Upstream, 0, 0)
	start := time.Now()
	_, err = c.CallTimeout("sink", payload, 10*time.Second)
	elapsed := time.Since(start)
	var se *StallError
	if !errors.Is(err, ErrStalled) || !errors.As(err, &se) || se.Method != "sink" {
		t.Fatalf("want a *StallError for sink, got %v", err)
	}
	if elapsed > 3*time.Second {
		t.Fatalf("stall while writing took %v to detect, want well under the 10s deadline", elapsed)
	}
	if got := c.StalledCalls(); got != 1 {
		t.Fatalf("StalledCalls = %d, want 1", got)
	}
}

// trickleConn writes in 100-byte pieces 10 ms apart: about 10 KB/s.
type trickleConn struct{ net.Conn }

func (c trickleConn) Write(p []byte) (int, error) {
	for off := 0; off < len(p); off += 100 {
		time.Sleep(10 * time.Millisecond)
		if _, err := c.Conn.Write(p[off:min(off+100, len(p))]); err != nil {
			return off, err
		}
	}
	return len(p), nil
}

// TestProgressDeadlineCountsMinBytes: the deadline re-arms only once MinBytes
// have moved. A reply trickling at about 1 KB per 100 ms window keeps a
// one-byte rule satisfied and stalls a 10 KB one.
func TestProgressDeadlineCountsMinBytes(t *testing.T) {
	s := NewServer()
	s.WrapConn = func(c net.Conn) net.Conn { return trickleConn{c} }
	reply := bytes.Repeat([]byte{0xCD}, 3000)
	s.Handle("slow", func([]byte) ([]byte, error) { return reply, nil })
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	for _, tc := range []struct {
		minBytes int64
		stall    bool
	}{{1, false}, {10_000, true}} {
		c, err := Dial(addr, nil)
		if err != nil {
			t.Fatal(err)
		}
		c.SetProgressPolicy(ProgressPolicy{Tick: 50 * time.Millisecond, MinBytes: tc.minBytes})
		resp, err := c.CallTimeout("slow", nil, 10*time.Second)
		c.Close()
		switch {
		case tc.stall && !errors.Is(err, ErrStalled):
			t.Errorf("MinBytes %d: want ErrStalled, got %d bytes, %v", tc.minBytes, len(resp), err)
		case !tc.stall && (err != nil || len(resp) != len(reply)):
			t.Errorf("MinBytes %d: want the reply, got %d bytes, %v", tc.minBytes, len(resp), err)
		}
	}
}
