package rpcx

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"murmuration/internal/netem"
	"murmuration/internal/tensor"
)

func TestCallRoundTrip(t *testing.T) {
	s := NewServer()
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

	payload := bytes.Repeat([]byte{0x5A}, 100000)
	resp, err := c.Call("echo", payload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp, payload) {
		t.Fatal("echo corrupted payload")
	}
}

func TestUnknownMethod(t *testing.T) {
	s := NewServer()
	addr, _ := s.Listen("127.0.0.1:0")
	defer s.Close()
	c, _ := Dial(addr, nil)
	defer c.Close()
	if _, err := c.Call("nope", nil); err == nil {
		t.Fatal("unknown method should error")
	}
}

func TestHandlerError(t *testing.T) {
	s := NewServer()
	s.Handle("fail", func(p []byte) ([]byte, error) { return nil, errors.New("boom") })
	addr, _ := s.Listen("127.0.0.1:0")
	defer s.Close()
	c, _ := Dial(addr, nil)
	defer c.Close()
	_, err := c.Call("fail", nil)
	if err == nil || err.Error() != "rpcx: remote error: boom" {
		t.Fatalf("want remote error, got %v", err)
	}
	// The connection must survive handler errors.
	s.Handle("ok", func(p []byte) ([]byte, error) { return []byte("fine"), nil })
	resp, err := c.Call("ok", nil)
	if err != nil || string(resp) != "fine" {
		t.Fatalf("connection broken after handler error: %v", err)
	}
}

func TestConcurrentCalls(t *testing.T) {
	s := NewServer()
	s.Handle("double", func(p []byte) ([]byte, error) {
		out := make([]byte, len(p))
		for i, b := range p {
			out[i] = b * 2
		}
		return out, nil
	})
	addr, _ := s.Listen("127.0.0.1:0")
	defer s.Close()
	c, _ := Dial(addr, nil)
	defer c.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := c.Call("double", []byte{byte(i)})
			if err != nil {
				errs <- err
				return
			}
			if resp[0] != byte(i*2) {
				errs <- fmt.Errorf("wrong response for %d: %d", i, resp[0])
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestMultipleClients(t *testing.T) {
	s := NewServer()
	s.Handle("id", func(p []byte) ([]byte, error) { return p, nil })
	addr, _ := s.Listen("127.0.0.1:0")
	defer s.Close()
	for i := 0; i < 5; i++ {
		c, err := Dial(addr, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Call("id", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
}

func TestShapedCallPaysLinkCost(t *testing.T) {
	s := NewServer()
	s.Handle("echo", func(p []byte) ([]byte, error) { return p, nil })
	addr, _ := s.Listen("127.0.0.1:0")
	defer s.Close()

	// 8 Mb/s + 20 ms each way: 100 KB payload ≈ 100 ms serialize + 40 ms RTT.
	shaper := netem.NewShaper(8, 20*time.Millisecond)
	c, err := Dial(addr, shaper)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	payload := make([]byte, 100*1024)
	start := time.Now()
	if _, err := c.Call("echo", payload); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed < 100*time.Millisecond {
		t.Fatalf("shaped call too fast: %v", elapsed)
	}

	// Upgrading the link must make it faster.
	c.SetLink(8000, time.Millisecond)
	start = time.Now()
	if _, err := c.Call("echo", payload); err != nil {
		t.Fatal(err)
	}
	if fast := time.Since(start); fast > elapsed/2 {
		t.Fatalf("SetLink upgrade not effective: %v vs %v", fast, elapsed)
	}
}

func TestTensorOverRPC(t *testing.T) {
	s := NewServer()
	s.Handle("scale", func(p []byte) ([]byte, error) {
		x, err := tensor.Decode(bytes.NewReader(p))
		if err != nil {
			return nil, err
		}
		x.Scale(3)
		var buf bytes.Buffer
		if err := tensor.Encode(&buf, x); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	})
	addr, _ := s.Listen("127.0.0.1:0")
	defer s.Close()
	c, _ := Dial(addr, nil)
	defer c.Close()

	x := tensor.FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	var buf bytes.Buffer
	if err := tensor.Encode(&buf, x); err != nil {
		t.Fatal(err)
	}
	resp, err := c.Call("scale", buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	y, err := tensor.Decode(bytes.NewReader(resp))
	if err != nil {
		t.Fatal(err)
	}
	if y.Data[3] != 12 {
		t.Fatalf("tensor RPC wrong: %v", y.Data)
	}
}

func TestCallTimeoutStalledHandler(t *testing.T) {
	s := NewServer()
	release := make(chan struct{})
	s.Handle("stall", func(p []byte) ([]byte, error) {
		<-release // deliberately stalled until the test ends
		return nil, nil
	})
	addr, _ := s.Listen("127.0.0.1:0")
	defer s.Close()
	defer close(release)

	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	start := time.Now()
	_, err = c.CallTimeout("stall", []byte("x"), 100*time.Millisecond)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("stalled call should time out")
	}
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
	var te *TimeoutError
	if !errors.As(err, &te) || !te.Timeout() || te.Method != "stall" {
		t.Fatalf("want *TimeoutError for method stall, got %#v", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("timeout took %v, want ~100ms", elapsed)
	}
	// The stream is desynced: the client must refuse reuse rather than
	// deliver the stalled call's late response to the next caller.
	if _, err := c.Call("stall", nil); !errors.Is(err, ErrClientBroken) {
		t.Fatalf("post-timeout call should fail with ErrClientBroken, got %v", err)
	}
}

// TestCallTimeoutCoversRequestShaping: the deadline starts before the
// emulated link's request-side delay, so a link whose one-way delay exceeds
// it times the call out before the request is written, and the handler never
// runs.
func TestCallTimeoutCoversRequestShaping(t *testing.T) {
	var ran atomic.Int32
	s := NewServer()
	s.Handle("echo", func(p []byte) ([]byte, error) {
		ran.Add(1)
		return p, nil
	})
	addr, _ := s.Listen("127.0.0.1:0")
	defer s.Close()
	c, err := Dial(addr, netem.NewShaper(0, 150*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.CallTimeout("echo", []byte("x"), 50*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("call over a 150 ms one-way link with a 50 ms deadline: %v, want ErrTimeout", err)
	}
	time.Sleep(100 * time.Millisecond) // room for a request that did leave
	if n := ran.Load(); n != 0 {
		t.Fatalf("handler ran %d times, want 0", n)
	}
}

func TestCallTimeoutFastCallUnaffected(t *testing.T) {
	s := NewServer()
	s.Handle("echo", func(p []byte) ([]byte, error) { return p, nil })
	addr, _ := s.Listen("127.0.0.1:0")
	defer s.Close()
	c, _ := Dial(addr, nil)
	defer c.Close()
	resp, err := c.CallTimeout("echo", []byte("hi"), time.Second)
	if err != nil || string(resp) != "hi" {
		t.Fatalf("fast call under deadline failed: %v %q", err, resp)
	}
	// The deadline must be cleared for following undeadlined calls.
	if _, err := c.Call("echo", []byte("again")); err != nil {
		t.Fatalf("call after CallTimeout failed: %v", err)
	}
}

func TestShutdownDrainsInflight(t *testing.T) {
	s := NewServer()
	started := make(chan struct{})
	s.Handle("slow", func(p []byte) ([]byte, error) {
		close(started)
		time.Sleep(150 * time.Millisecond)
		return []byte("done"), nil
	})
	addr, _ := s.Listen("127.0.0.1:0")
	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	type result struct {
		resp []byte
		err  error
	}
	got := make(chan result, 1)
	go func() {
		resp, err := c.Call("slow", nil)
		got <- result{resp, err}
	}()
	<-started
	if err := s.Shutdown(2 * time.Second); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	r := <-got
	if r.err != nil || string(r.resp) != "done" {
		t.Fatalf("in-flight call not drained: %v %q", r.err, r.resp)
	}
}

func TestShutdownRejectsNewRequests(t *testing.T) {
	s := NewServer()
	started := make(chan struct{})
	s.Handle("slow", func(p []byte) ([]byte, error) {
		close(started)
		time.Sleep(200 * time.Millisecond)
		return nil, nil
	})
	s.Handle("echo", func(p []byte) ([]byte, error) { return p, nil })
	addr, _ := s.Listen("127.0.0.1:0")
	c1, _ := Dial(addr, nil)
	defer c1.Close()
	c2, _ := Dial(addr, nil)
	defer c2.Close()

	go c1.Call("slow", nil)
	<-started
	done := make(chan struct{})
	go func() {
		s.Shutdown(2 * time.Second)
		close(done)
	}()
	// While draining, a request on an existing connection is rejected.
	time.Sleep(20 * time.Millisecond)
	if _, err := c2.Call("echo", []byte("x")); err == nil {
		t.Fatal("request during drain should be rejected")
	}
	<-done
}

// TestShutdownRepeatedSharesDrain runs two concurrent Shutdowns over one
// in-flight call: both must return as soon as the call drains. A second
// Shutdown once overwrote the drain channel, stranding the first caller on a
// channel nothing would close until the full grace elapsed.
func TestShutdownRepeatedSharesDrain(t *testing.T) {
	s := NewServer()
	started := make(chan struct{})
	s.Handle("slow", func(p []byte) ([]byte, error) {
		close(started)
		time.Sleep(150 * time.Millisecond)
		return []byte("done"), nil
	})
	addr, _ := s.Listen("127.0.0.1:0")
	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	go c.Call("slow", nil)
	<-started

	const grace = 5 * time.Second
	var wg sync.WaitGroup
	elapsed := make([]time.Duration, 2)
	for i := range elapsed {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start := time.Now()
			s.Shutdown(grace)
			elapsed[i] = time.Since(start)
		}(i)
	}
	wg.Wait()
	for i, e := range elapsed {
		if e >= grace {
			t.Fatalf("Shutdown %d waited out the full grace (%v): drain channel not shared", i, e)
		}
	}
}

func TestShutdownGraceBounded(t *testing.T) {
	s := NewServer()
	release := make(chan struct{})
	started := make(chan struct{})
	s.Handle("hang", func(p []byte) ([]byte, error) {
		close(started)
		<-release
		return nil, nil
	})
	addr, _ := s.Listen("127.0.0.1:0")
	c, _ := Dial(addr, nil)
	defer c.Close()
	go c.Call("hang", nil)
	<-started
	defer close(release)

	start := time.Now()
	s.Shutdown(100 * time.Millisecond)
	if e := time.Since(start); e > 2*time.Second {
		t.Fatalf("shutdown with hung handler took %v, grace not bounded", e)
	}
}

func TestServerCloseUnblocksDial(t *testing.T) {
	s := NewServer()
	addr, _ := s.Listen("127.0.0.1:0")
	s.Close()
	// After close, new calls should fail (dial might succeed briefly on
	// some platforms, but the call must not hang).
	c, err := Dial(addr, nil)
	if err != nil {
		return // expected on most platforms
	}
	defer c.Close()
	done := make(chan struct{})
	go func() {
		c.Call("x", nil)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("call to closed server hung")
	}
}

// TestPayloadIsLentUntilTheReply: a handler's payload lies in its
// connection's read buffer. The next request on the connection is read into
// the same memory, and with ScribblePayloads on the server overwrites it as
// soon as the reply is written, so a handler that keeps its payload past the
// call sees the bytes change under it. A reply that is the payload itself is
// written first, and arrives intact.
func TestPayloadIsLentUntilTheReply(t *testing.T) {
	s := NewServer()
	var kept []byte
	// Sequential calls share the client's one idle connection, so every
	// handler below runs on that connection's goroutine, in call order: the
	// peek is ordered after the reads and the scribbles it reports.
	s.Handle("keep", func(p []byte) ([]byte, error) {
		kept = p // what no handler may do
		return nil, nil
	})
	s.Handle("peek", func([]byte) ([]byte, error) { return []byte{kept[len(kept)-1]}, nil })
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
	peek := func() byte {
		b, err := c.Call("peek", nil)
		if err != nil {
			t.Fatal(err)
		}
		return b[0]
	}

	if _, err := c.Call("keep", bytes.Repeat([]byte{0x11}, 1000)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Call("echo", bytes.Repeat([]byte{0x22}, 1000)); err != nil {
		t.Fatal(err)
	}
	if b := peek(); b != 0x22 {
		t.Fatalf("a kept payload reads %#x after the next request, want the next request's %#x", b, 0x22)
	}

	ScribblePayloads(true)
	defer ScribblePayloads(false)
	payload := bytes.Repeat([]byte{0x33}, 1000)
	if resp, err := c.Call("echo", payload); err != nil || !bytes.Equal(resp, payload) {
		t.Fatalf("echo under scribbling: %v, reply intact %v", err, bytes.Equal(resp, payload))
	}
	if _, err := c.Call("keep", payload); err != nil {
		t.Fatal(err)
	}
	if b := peek(); b != 0xA5 {
		t.Fatalf("a kept payload still reads %#x after its reply, want the scribble", b)
	}
}

// TestReplyFindsRoomInItsPayload: a connection's request buffer grows to the
// largest reply the connection has sent, so from the second call on a
// handler can write a reply four times its request into the memory the
// request was lent in, and the reply arrives intact.
func TestReplyFindsRoomInItsPayload(t *testing.T) {
	s := NewServer()
	var inPlace []bool // handler calls run in order on the one connection
	s.Handle("grow", func(p []byte) ([]byte, error) {
		n := 4 * len(p)
		if cap(p) < n {
			inPlace = append(inPlace, false)
			return bytes.Repeat(p[:1], n), nil
		}
		inPlace = append(inPlace, true)
		reply := p[:n]
		for i := range reply {
			reply[i] = p[0]
		}
		return reply, nil
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
	for i := byte(1); i <= 3; i++ {
		resp, err := c.CallBudget("grow", bytes.Repeat([]byte{i}, 1000), time.Second, time.Second)
		if err != nil || !bytes.Equal(resp, bytes.Repeat([]byte{i}, 4000)) {
			t.Fatalf("call %d: %v, reply intact %v", i, err, bytes.Equal(resp, bytes.Repeat([]byte{i}, 4000)))
		}
	}
	if want := []bool{false, true, true}; !slices.Equal(inPlace, want) {
		t.Fatalf("replies written in the payload's memory: %v, want %v", inPlace, want)
	}
}
