package runtime

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"time"

	"murmuration/internal/netem"
	"murmuration/internal/rpcx"
	"murmuration/internal/supernet"
	"murmuration/internal/tensor"
)

// idleWireBufs is how many wire buffers s holds idle.
func idleWireBufs(s *Scheduler) int {
	s.wire.mu.Lock()
	defer s.wire.mu.Unlock()
	return len(s.wire.idle)
}

// TestHedgeLoserKeepsItsBuffers: when a hedge wins a tile, the request frame
// and the loser's reply buffer stay out of the pool until the loser's call
// returns. The loser here writes its frame only after the winner's request
// has finished (its link delays it) and is then held in the daemon's handler;
// a frame returned early would reach the daemon scribbled, and a reply buffer
// returned early would be handed to the next call while the loser still reads
// into it.
func TestHedgeLoserKeepsItsBuffers(t *testing.T) {
	a := supernet.TinyArch(4)
	net := supernet.New(a, 13)
	gate := make(chan struct{})
	var openGate sync.Once
	defer openGate.Do(func() { close(gate) })
	var mu sync.Mutex
	got := map[int][]byte{} // the first payload each device's handler saw
	record := func(dev int, h rpcx.Handler) rpcx.Handler {
		return func(p []byte) ([]byte, error) {
			mu.Lock()
			if got[dev] == nil {
				got[dev] = append([]byte(nil), p...)
			}
			mu.Unlock()
			if dev == 1 {
				<-gate
			}
			return h(p)
		}
	}
	var clients []*rpcx.Client
	for dev := 1; dev <= 2; dev++ {
		srv := rpcx.NewServer()
		srv.Handle(ExecBlockMethod, record(dev, NewExecutor(net).ExecBlockHandler()))
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		var shaper *netem.Shaper
		if dev == 1 {
			shaper = netem.NewShaper(0, 300*time.Millisecond)
		}
		cl, err := rpcx.Dial(addr, shaper)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		clients = append(clients, cl)
	}
	sched := NewScheduler(net, clients)
	sched.Hedge = &HedgePolicy{After: 10 * time.Millisecond, BudgetFrac: 1}
	sched.PickAlternate = func(primary int) int { return 3 - primary }

	cfg := a.MaxConfig()
	for i := range cfg.Layers {
		cfg.Layers[i].Quant = tensor.Bits8
	}
	x := randInput(rand.New(rand.NewSource(5)), 1, 3, 32, 32)
	want := layerwise(t, net, x, cfg)
	// The 1×1 net is one run: one frame, the primary's reply buffer and the
	// hedge's.
	rep, err := sched.Infer(x, allOn(t, a, cfg, func(int) int { return 1 }))
	if err != nil {
		t.Fatal(err)
	}
	requireSameBits(t, "hedged run", rep.Logits, want)
	if st := sched.Stats(); st.HedgeWins != 1 {
		t.Fatalf("stats %+v, want the hedge to win", st)
	}
	if n := idleWireBufs(sched); n != 1 {
		t.Fatalf("%d wire buffers idle while the loser is in flight, want only the winner's reply buffer", n)
	}
	// Another request runs meanwhile, on the buffers that are idle and new
	// ones.
	sched.Hedge = nil
	rep, err = sched.Infer(x, allOn(t, a, cfg, func(int) int { return 2 }))
	if err != nil {
		t.Fatal(err)
	}
	requireSameBits(t, "run beside the loser", rep.Logits, want)

	openGate.Do(func() { close(gate) })
	deadline := time.Now().Add(5 * time.Second)
	for idleWireBufs(sched) != 4 {
		if time.Now().After(deadline) {
			t.Fatalf("%d wire buffers idle after the loser returned, want 4", idleWireBufs(sched))
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if !bytes.Equal(got[1], got[2]) {
		t.Fatalf("the loser carried %d bytes unlike the %d the winner carried: its frame was reused under it", len(got[1]), len(got[2]))
	}
}
