package supernet

import (
	"math/rand"
	"sync"
	"testing"

	"murmuration/internal/tensor"
)

// heldBytes is what the workspace keeps between runs.
func (ws *Workspace) heldBytes() int {
	total := 0
	for _, b := range ws.held {
		total += 4 * cap(b)
	}
	return total
}

// roleNeeds is what each role of a workspace must hold to run cfg on a batch
// of n images of the given side: the sizes of the activations, from the
// config's arithmetic alone. A role whose largest activation is under the hold
// threshold per image needs nothing — it is allocated fresh every time.
func roleNeeds(a *Arch, cfg *Config, n, side int) (need [numRoles]int) {
	take := func(r role, c, h, w int) {
		if c*h*w*4 >= holdMin {
			need[r] = max(need[r], 4*n*c*h*w)
		}
	}
	out := roleOutA
	takeOut := func(c, h, w int) {
		take(out, c, h, w)
		out = roleOutA + roleOutB - out
	}
	res := cfg.Resolution
	if side != res {
		take(roleImage, a.InChannels, res, res)
	}
	h, w := res/2, res/2
	take(roleCols, a.InChannels*9, h, w)
	takeOut(a.StemChannels, h, w)
	cin, li := a.StemChannels, 0
	for si, st := range a.Stages {
		for i := 0; i < cfg.Depths[si]; i++ {
			ls := cfg.Layers[li]
			li++
			stride := 1
			if i == 0 {
				stride = st.Stride
			}
			if ls.Quant != tensor.Bits32 {
				take(roleQuant, cin, h, w)
			}
			hidden := cin * ls.Expand
			take(roleExpand, hidden, h, w)
			h, w = h/stride, w/stride
			take(roleDW, hidden, h, w)
			takeOut(st.Width, h, w)
			cin = st.Width
		}
	}
	take(roleExpand, a.HeadChannels, h, w)
	return need
}

// midArch is a search space between the tiny net, whose activations are all
// under the hold threshold, and the paper-scale one, whose largest submodel
// takes seconds under the race detector: large enough maps that every role
// is held, in a net that runs in milliseconds.
func midArch() *Arch {
	return &Arch{
		Name:         "mid-supernet",
		StemChannels: 16,
		Stages: []StageSpec{
			{Width: 24, MinDepth: 1, MaxDepth: 2, Stride: 2, SE: false},
			{Width: 40, MinDepth: 1, MaxDepth: 2, Stride: 2, SE: true},
		},
		HeadChannels: 96,
		NumClasses:   10,
		InChannels:   3,
		Resolutions:  []int{96, 128},
		Kernels:      []int{3, 5},
		Expands:      []int{3, 6},
		Partitions:   []Partition{{1, 1}, {2, 2}},
		QuantBits:    []tensor.Bitwidth{tensor.Bits8, tensor.Bits32},
	}
}

// TestWorkspaceHoldsLargestPerRole is the retention bound: after any number of
// inferences a supernet that never ran two at once has one workspace, and it
// holds, per role, the largest activation that role has had to take — a
// number that follows from the configs, not from how many requests there
// were.
func TestWorkspaceHoldsLargestPerRole(t *testing.T) {
	mid, def := midArch(), DefaultArch()
	old := tensor.Parallelism()
	defer tensor.SetParallelism(old)
	for _, tc := range []struct {
		arch *Arch
		cfgs []*Config // the first mostly, the others now and then
		side int
		runs int
	}{
		{mid, []*Config{mid.MinConfig(), mid.MaxConfig()}, 160, 50},
		{def, []*Config{def.MinConfig()}, 224, 3},
	} {
		var want [numRoles]int
		total := 0
		for _, cfg := range tc.cfgs {
			for r, b := range roleNeeds(tc.arch, cfg, 1, tc.side) {
				want[r] = max(want[r], b)
			}
		}
		for r, b := range want {
			if b == 0 {
				t.Fatalf("%s: role %d would hold nothing: the test is too small to mean anything", tc.arch.Name, r)
			}
			total += b
		}
		t.Logf("%s: a workspace should hold %d bytes", tc.arch.Name, total)
		x := randInput(rand.New(rand.NewSource(9)), 1, tc.arch.InChannels, tc.side, tc.side)
		for _, workers := range []int{1, 4} {
			tensor.SetParallelism(workers)
			unpoisoned(func() {
				net := New(tc.arch, 9)
				for i := 0; i < tc.runs; i++ {
					cfg := tc.cfgs[0]
					if i%4 == 2 {
						cfg = tc.cfgs[i/4%len(tc.cfgs)]
					}
					if _, _, err := net.Forward(x, cfg, false); err != nil {
						t.Fatal(err)
					}
				}
				if len(net.wsIdle) != 1 {
					t.Fatalf("%s, workers=%d: %d idle workspaces after %d sequential inferences, want 1", tc.arch.Name, workers, len(net.wsIdle), tc.runs)
				}
				ws := net.wsIdle[0]
				for r := range ws.held {
					if got := 4 * cap(ws.held[r]); got != want[r] {
						t.Errorf("%s, workers=%d: role %d holds %d bytes, the configs need %d", tc.arch.Name, workers, r, got, want[r])
					}
				}
				if got := ws.heldBytes(); got != total {
					t.Errorf("%s, workers=%d: the workspace holds %d bytes after %d inferences, want %d", tc.arch.Name, workers, got, tc.runs, total)
				}
			})
		}
	}
}

// TestSmallNetHoldsNothing: every activation of the tiny net is under the
// hold threshold, so serving it retains no workspace memory, whatever the
// batch.
func TestSmallNetHoldsNothing(t *testing.T) {
	a := TinyArch(4)
	unpoisoned(func() {
		net := New(a, 1)
		x := randInput(rand.New(rand.NewSource(1)), 8, 3, 32, 32)
		for _, cfg := range []*Config{a.MinConfig(), a.MaxConfig()} {
			if _, _, err := net.Forward(x, cfg, false); err != nil {
				t.Fatal(err)
			}
		}
		for _, ws := range net.wsIdle {
			if b := ws.heldBytes(); b != 0 {
				t.Fatalf("a tiny-net workspace holds %d bytes", b)
			}
		}
	})
}

// TestConcurrentRunsOwnTheirWorkspaces runs inferences from several
// goroutines at once on one supernet: each must get the logits a lone run
// gets, bit for bit, which it cannot if two runs ever share a buffer (the
// poison is on, and so is the race detector in CI).
func TestConcurrentRunsOwnTheirWorkspaces(t *testing.T) {
	a := TinyArch(4)
	net := New(a, 3)
	rng := rand.New(rand.NewSource(3))
	cfgs := []*Config{a.MinConfig(), a.MaxConfig(), a.RandomConfig(rng), a.RandomConfig(rng)}
	x := randInput(rng, 2, 3, 32, 32)
	want := make([]string, len(cfgs))
	for i, cfg := range cfgs {
		logits, _, err := net.Forward(x, cfg, false)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = logitHash(logits)
	}
	const goroutines = 4
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				k := (g + i) % len(cfgs)
				logits, _, err := net.Forward(x, cfgs[k], false)
				if err != nil {
					t.Error(err)
					return
				}
				if h := logitHash(logits); h != want[k] {
					t.Errorf("goroutine %d, %s: logits %s, alone %s", g, cfgs[k], h, want[k])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := len(net.wsIdle); n < 1 || n > goroutines {
		t.Fatalf("%d idle workspaces after %d concurrent runs", n, goroutines)
	}
}

// TestExecResultsOutliveTheirWorkspace: what ExecStem, ExecBlock, ExecHead
// and an inference Forward return is the caller's. Later runs reuse and poison
// the workspace the results were computed in; the results must not change.
func TestExecResultsOutliveTheirWorkspace(t *testing.T) {
	a := DefaultArch()
	net := New(a, 5)
	rng := rand.New(rand.NewSource(5))
	cfg := a.MinConfig()
	x := randInput(rng, 1, a.InChannels, cfg.Resolution, cfg.Resolution)

	stem := net.ExecStem(x)
	block, err := net.ExecBlock(0, 0, stem, cfg.Layers[0])
	if err != nil {
		t.Fatal(err)
	}
	logits, _, err := net.Forward(x, cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	kept := []*tensor.Tensor{stem, block, logits, net.ExecHead(block)}
	before := make([]string, len(kept))
	for i, k := range kept {
		before[i] = logitHash(k)
	}
	for i := 0; i < 3; i++ { // the same workspace, used and poisoned again
		if _, _, err := net.Forward(randInput(rng, 1, a.InChannels, 224, 224), cfg, false); err != nil {
			t.Fatal(err)
		}
	}
	for i, k := range kept {
		if h := logitHash(k); h != before[i] {
			t.Errorf("result %d changed after later runs: %s, was %s", i, h, before[i])
		}
		for _, v := range k.Data {
			if v != v {
				t.Fatalf("result %d holds a NaN: it aliases a workspace", i)
			}
		}
	}
}

// TestGradientsAppearAtFirstBackward: a supernet that only serves inference
// holds no gradient tensors (they are as large as the weights); the first
// Backward creates all of them, including those of blocks the submodel never
// reached, so that an optimizer treats every parameter as it always has.
func TestGradientsAppearAtFirstBackward(t *testing.T) {
	a := TinyArch(4)
	s := New(a, 2)
	x := randInput(rand.New(rand.NewSource(2)), 2, 3, 32, 32)
	if _, _, err := s.Forward(x, a.MaxConfig(), false); err != nil {
		t.Fatal(err)
	}
	for _, p := range s.Params() {
		if p.HasGrad() {
			t.Fatalf("%s has a gradient before any Backward", p.Name)
		}
	}
	logits, caches, err := s.Forward(x, a.MinConfig(), true)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Backward(logits, caches); err != nil {
		t.Fatal(err)
	}
	touched := 0
	for _, p := range s.Params() {
		if !p.HasGrad() {
			t.Fatalf("%s has no gradient after Backward", p.Name)
		}
		if p.Grad().MaxAbs() != 0 {
			touched++
		}
	}
	if touched == 0 || touched == len(s.Params()) {
		t.Fatalf("the min submodel's Backward touched %d of %d parameters", touched, len(s.Params()))
	}
}
