package supernet

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"murmuration/internal/nn"
	"murmuration/internal/tensor"
)

func randInput(rng *rand.Rand, n, c, h, w int) *tensor.Tensor {
	t := tensor.New(n, c, h, w)
	for i := range t.Data {
		t.Data[i] = rng.Float32()*2 - 1
	}
	return t
}

// microArch is a minimal search space for gradient checks: one stage, no SE.
func microArch() *Arch {
	return &Arch{
		Name:         "micro",
		StemChannels: 4,
		Stages: []StageSpec{
			{Width: 6, MinDepth: 1, MaxDepth: 2, Stride: 2, SE: true},
		},
		HeadChannels: 8,
		NumClasses:   3,
		InChannels:   3,
		Resolutions:  []int{16},
		Kernels:      []int{3, 5},
		Expands:      []int{2, 3},
		Partitions:   []Partition{{1, 1}, {1, 2}, {2, 2}},
		QuantBits:    []tensor.Bitwidth{tensor.Bits8, tensor.Bits32},
	}
}

func TestForwardShapes(t *testing.T) {
	a := TinyArch(4)
	s := New(a, 1)
	rng := rand.New(rand.NewSource(1))
	x := randInput(rng, 2, 3, 32, 32)
	for _, cfg := range []*Config{a.MaxConfig(), a.MinConfig()} {
		logits, _, err := s.Forward(x, cfg, false)
		if err != nil {
			t.Fatal(err)
		}
		if logits.Shape[0] != 2 || logits.Shape[1] != 4 {
			t.Fatalf("logits shape %v", logits.Shape)
		}
		for _, v := range logits.Data {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				t.Fatal("logits contain NaN/Inf")
			}
		}
	}
}

func TestForwardDeterministic(t *testing.T) {
	a := TinyArch(4)
	s := New(a, 2)
	rng := rand.New(rand.NewSource(2))
	x := randInput(rng, 1, 3, 32, 32)
	cfg := a.MaxConfig()
	l1, _, err := s.Forward(x, cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	l2, _, _ := s.Forward(x, cfg, false)
	for i := range l1.Data {
		if l1.Data[i] != l2.Data[i] {
			t.Fatal("eval forward must be deterministic")
		}
	}
}

func TestDifferentConfigsDifferentOutputs(t *testing.T) {
	a := TinyArch(4)
	s := New(a, 3)
	rng := rand.New(rand.NewSource(3))
	x := randInput(rng, 1, 3, 32, 32)
	l1, _, _ := s.Forward(x, a.MaxConfig(), false)
	l2, _, _ := s.Forward(x, a.MinConfig(), false)
	diff := 0.0
	for i := range l1.Data {
		diff += math.Abs(float64(l1.Data[i] - l2.Data[i]))
	}
	if diff < 1e-6 {
		t.Fatal("max and min submodels should produce different logits")
	}
}

func TestRandomConfigsAllExecute(t *testing.T) {
	a := TinyArch(4)
	s := New(a, 4)
	rng := rand.New(rand.NewSource(4))
	x := randInput(rng, 1, 3, 32, 32)
	for i := 0; i < 20; i++ {
		cfg := a.RandomConfig(rng)
		logits, _, err := s.Forward(x, cfg, false)
		if err != nil {
			t.Fatalf("config %d (%s): %v", i, cfg, err)
		}
		for _, v := range logits.Data {
			if math.IsNaN(float64(v)) {
				t.Fatalf("config %d produced NaN", i)
			}
		}
	}
}

func TestPartitionedForwardCloseToUnpartitioned(t *testing.T) {
	// FDSP changes border math (zero padding at tile edges) plus per-tile
	// BN/SE statistics, so outputs differ — but must stay close in scale.
	a := TinyArch(4)
	s := New(a, 5)
	rng := rand.New(rand.NewSource(5))
	x := randInput(rng, 1, 3, 32, 32)

	cfgFull := a.MaxConfig()
	cfgPart := a.MaxConfig()
	for i := range cfgPart.Layers {
		cfgPart.Layers[i].Partition = Partition{2, 2}
	}
	l1, _, err := s.Forward(x, cfgFull, false)
	if err != nil {
		t.Fatal(err)
	}
	l2, _, err := s.Forward(x, cfgPart, false)
	if err != nil {
		t.Fatal(err)
	}
	var norm1, normDiff float64
	for i := range l1.Data {
		norm1 += float64(l1.Data[i]) * float64(l1.Data[i])
		d := float64(l1.Data[i] - l2.Data[i])
		normDiff += d * d
	}
	if normDiff/math.Max(norm1, 1e-9) > 4.0 {
		t.Fatalf("partitioned output wildly different: relative sq err %v", normDiff/norm1)
	}
}

// TestFDSPConvInteriorExact verifies the core FDSP property at the op level:
// zero-padded tile convolution matches the full convolution exactly on all
// output pixels whose receptive field does not cross a tile border.
func TestFDSPConvInteriorExact(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := randInput(rng, 1, 3, 16, 16)
	w := tensor.New(4, 3, 3, 3)
	w.KaimingInit(rng, 27)
	opts := tensor.ConvOpts{Stride: 1, Padding: 1}
	full := tensor.Conv2D(x, w, nil, opts)

	// 2x2 FDSP tiles of 8x8.
	stitched := tensor.New(1, 4, 16, 16)
	for _, y0 := range []int{0, 8} {
		for _, x0 := range []int{0, 8} {
			tile := tensor.CropSpatial(x, y0, x0, 8, 8)
			out := tensor.Conv2D(tile, w, nil, opts)
			tensor.PasteSpatial(stitched, out, y0, x0)
		}
	}
	// Interior pixels: those at distance ≥1 from any tile border.
	for c := 0; c < 4; c++ {
		for y := 0; y < 16; y++ {
			for xx := 0; xx < 16; xx++ {
				distY := minAbs(y%8, 7-y%8)
				distX := minAbs(xx%8, 7-xx%8)
				if distY < 1 || distX < 1 {
					continue // border pixel, FDSP differs by design
				}
				f := full.At(0, c, y, xx)
				st := stitched.At(0, c, y, xx)
				if math.Abs(float64(f-st)) > 1e-4 {
					t.Fatalf("interior pixel (%d,%d,%d) differs: %v vs %v", c, y, xx, f, st)
				}
			}
		}
	}
}

func minAbs(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestGradientCheckEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("gradient check is slow")
	}
	a := microArch()
	s := New(a, 7)
	rng := rand.New(rand.NewSource(7))
	x := randInput(rng, 2, 3, 16, 16)
	labels := []int{0, 2}
	cfg := &Config{
		Resolution: 16,
		Depths:     []int{2},
		Layers: []LayerSetting{
			{Kernel: 3, Expand: 2, Partition: Partition{1, 1}, Quant: tensor.Bits32},
			{Kernel: 5, Expand: 3, Partition: Partition{1, 2}, Quant: tensor.Bits32},
		},
	}

	loss := func() float64 {
		logits, _, err := s.Forward(x, cfg, true)
		if err != nil {
			t.Fatal(err)
		}
		l, _, _ := nn.SoftmaxCrossEntropy(logits, labels)
		return l
	}

	logits, caches, err := s.Forward(x, cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	_, dlogits, _ := nn.SoftmaxCrossEntropy(logits, labels)
	for _, p := range s.Params() {
		p.ZeroGrad()
	}
	s.Backward(dlogits, caches)

	// Momentum 0.05 BN running-stat updates make loss() non-repeatable;
	// neutralize by re-running forward (momentum update is idempotent in
	// expectation and tiny); tolerance accounts for it.
	const h = 1e-2
	checked := 0
	for _, p := range s.Params() {
		stride := p.W.Len()/3 + 1
		for i := 0; i < p.W.Len(); i += stride {
			orig := p.W.Data[i]
			p.W.Data[i] = orig + h
			lp := loss()
			p.W.Data[i] = orig - h
			lm := loss()
			p.W.Data[i] = orig
			want := (lp - lm) / (2 * h)
			got := float64(p.Grad().Data[i])
			scale := math.Max(0.05, math.Abs(want))
			if math.Abs(got-want)/scale > 0.15 {
				t.Fatalf("%s grad[%d]: analytic %v numeric %v", p.Name, i, got, want)
			}
			checked++
		}
	}
	if checked < 20 {
		t.Fatalf("only %d gradient entries checked", checked)
	}
}

func TestSupernetOverfitsTinyBatch(t *testing.T) {
	// One-shot sanity: SGD on a fixed batch must drive training loss down.
	a := TinyArch(4)
	s := New(a, 8)
	rng := rand.New(rand.NewSource(8))
	x := randInput(rng, 8, 3, 32, 32)
	labels := make([]int, 8)
	for i := range labels {
		labels[i] = i % 4
	}
	cfg := a.MaxConfig()
	opt := nn.NewSGD(0.05, 0.9, 0)
	params := s.Params()

	var first, last float64
	for step := 0; step < 30; step++ {
		logits, caches, err := s.Forward(x, cfg, true)
		if err != nil {
			t.Fatal(err)
		}
		loss, dlogits, _ := nn.SoftmaxCrossEntropy(logits, labels)
		if step == 0 {
			first = loss
		}
		last = loss
		s.Backward(dlogits, caches)
		nn.ClipGradNorm(params, 5)
		opt.Step(params)
	}
	if last > first*0.7 {
		t.Fatalf("loss did not decrease: %v -> %v", first, last)
	}
}

func TestNumParamsPositiveAndStable(t *testing.T) {
	a := TinyArch(4)
	s := New(a, 9)
	n := s.NumParams()
	if n <= 0 {
		t.Fatal("NumParams must be positive")
	}
	if s.NumParams() != n {
		t.Fatal("NumParams must be stable")
	}
}

func TestQuantizedConfigExecutes(t *testing.T) {
	a := TinyArch(4)
	s := New(a, 10)
	rng := rand.New(rand.NewSource(10))
	x := randInput(rng, 1, 3, 32, 32)
	cfg := a.MaxConfig()
	for i := range cfg.Layers {
		cfg.Layers[i].Quant = tensor.Bits8
	}
	lq, _, err := s.Forward(x, cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	lf, _, _ := s.Forward(x, a.MaxConfig(), false)
	// Quantization perturbs but should not destroy the output.
	var diff, norm float64
	for i := range lq.Data {
		d := float64(lq.Data[i] - lf.Data[i])
		diff += d * d
		norm += float64(lf.Data[i]) * float64(lf.Data[i])
	}
	if diff == 0 {
		t.Fatal("8-bit quantization should perturb the logits")
	}
	if diff/math.Max(norm, 1e-9) > 1.0 {
		t.Fatalf("8-bit quantization destroyed the output: rel err %v", diff/norm)
	}
}

// atBenchCPUs sets the kernels' worker count to the GOMAXPROCS the benchmark
// runs at — go test's -cpu flag sets that per run, long after the tensor
// package read it at init — and returns the call that restores it.
func atBenchCPUs() (restore func()) {
	old := tensor.Parallelism()
	tensor.SetParallelism(runtime.GOMAXPROCS(0))
	return func() { tensor.SetParallelism(old) }
}

func BenchmarkTinyForwardMaxConfig(b *testing.B) {
	a := TinyArch(4)
	s := New(a, 1)
	rng := rand.New(rand.NewSource(1))
	x := randInput(rng, 1, 3, 32, 32)
	cfg := a.MaxConfig()
	defer atBenchCPUs()()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Forward(x, cfg, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDefaultMinForward is the request local_default_closed2 serves: the
// paper-scale net's smallest submodel, a 224×224 image resized to 160.
func BenchmarkDefaultMinForward(b *testing.B) {
	a := DefaultArch()
	s := New(a, 1)
	x := randInput(rand.New(rand.NewSource(1)), 1, 3, 224, 224)
	cfg := a.MinConfig()
	defer atBenchCPUs()()
	b.ReportAllocs()
	unpoisoned(func() {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := s.Forward(x, cfg, false); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkCostModel(b *testing.B) {
	a := DefaultArch()
	cfg := a.MaxConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Costs(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
