package runtime

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"murmuration/internal/rpcx"
	"murmuration/internal/supernet"
)

// TestFenceFollowsTheAnsweringConnection: one client holds a connection
// handshaken with the old process and, behind a mutable dialer, one
// handshaken with its replacement. The fence reads the incarnation of the
// connection that carried each reply, not the client's latest: the new
// process's reply is served (and its stamp adopted), the old one's — arriving
// later on its own connection — is fenced, and once the fence has retired the
// client's connections no call is served by the old process.
func TestFenceFollowsTheAnsweringConnection(t *testing.T) {
	inc1, inc2 := uint64(1)<<48|0xA1, uint64(2)<<48|0xC3
	gate, entered := make(chan struct{}), make(chan struct{}, 1)
	var oldServed atomic.Int64
	old := rpcx.NewServer()
	old.SetIncarnation(inc1)
	old.Handle(ExecBlockMethod, func([]byte) ([]byte, error) {
		oldServed.Add(1)
		entered <- struct{}{}
		<-gate
		return []byte("old"), nil
	})
	oldAddr, err := old.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	var openGate sync.Once
	defer openGate.Do(func() { close(gate) })
	repl := rpcx.NewServer()
	repl.SetIncarnation(inc2)
	repl.Handle(ExecBlockMethod, func([]byte) ([]byte, error) { return []byte("new"), nil })
	replAddr, err := repl.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer repl.Close()

	var target atomic.Value
	target.Store(oldAddr)
	cl, err := rpcx.Dial(oldAddr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.SetRetryPolicy(rpcx.RetryPolicy{MaxAttempts: 1})
	cl.SetDialer(func() (net.Conn, error) { return net.Dial("tcp", target.Load().(string)) })
	if _, err := cl.Handshake(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	sched := NewScheduler(supernet.New(supernet.TinyArch(4), 1), []*rpcx.Client{cl})
	sched.RemoteTimeout = 10 * time.Second

	zombie := make(chan error, 1)
	go func() {
		_, err := callTileCopy(sched, 1, "x")
		zombie <- err
	}()
	<-entered // the old process holds the first connection

	target.Store(replAddr) // the address now resolves to the replacement
	resp, err := callTileCopy(sched, 1, "x")
	if err != nil || string(resp) != "new" {
		t.Fatalf("reply on the replacement's connection: %q, %v; want it served", resp, err)
	}
	if got := sched.Devices.Snapshot()[0].Incarnation; got != inc2 {
		t.Fatalf("expected incarnation %#x after the replacement answered, want %#x", got, inc2)
	}

	openGate.Do(func() { close(gate) })
	err = <-zombie
	var fe *FencedError
	if !errors.As(err, &fe) || fe.Got != inc1 || fe.Want != inc2 {
		t.Fatalf("old process's reply: %v, want fenced (got %#x, want %#x)", err, inc1, inc2)
	}
	if got := sched.Stats().FencedResponses; got != 1 {
		t.Fatalf("FencedResponses = %d, want 1", got)
	}

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 3; j++ {
				if resp, err := callTileCopy(sched, 1, "x"); err != nil || string(resp) != "new" {
					t.Errorf("after the fence: %q, %v", resp, err)
				}
			}
		}()
	}
	wg.Wait()
	if got := oldServed.Load(); got != 1 {
		t.Fatalf("old process served %d calls, want only the one in flight at the restart", got)
	}
	if got := sched.Stats().FencedResponses; got != 1 {
		t.Fatalf("FencedResponses = %d after the fence retired the old connection, want 1", got)
	}
}

// callTileCopy sends payload to dev through callTile and returns a copy of
// the reply, its wire buffers released.
func callTileCopy(s *Scheduler, dev int, payload string) ([]byte, error) {
	req := s.wire.get(len(payload))
	defer req.release()
	req.b = append(req.b, payload...)
	resp, reply, err := s.callTile(dev, req, 8, time.Time{})
	if err != nil {
		return nil, err
	}
	defer reply.release()
	return append([]byte(nil), resp...), nil
}
