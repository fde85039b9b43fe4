package lstm

import (
	"math"
	"math/rand"
	"testing"

	"murmuration/internal/nn"
	"murmuration/internal/tensor"
)

func randT(rng *rand.Rand, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	for i := range t.Data {
		t.Data[i] = rng.Float32()*2 - 1
	}
	return t
}

func TestStepShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := New(5, 8, rng)
	s := l.ZeroState(3)
	x := randT(rng, 3, 5)
	h, s2, cache := l.Step(x, s)
	if h.Shape[0] != 3 || h.Shape[1] != 8 {
		t.Fatalf("h shape %v", h.Shape)
	}
	if s2.C.Shape[0] != 3 || s2.C.Shape[1] != 8 {
		t.Fatalf("c shape %v", s2.C.Shape)
	}
	if cache == nil {
		t.Fatal("nil cache")
	}
}

func TestStatePropagation(t *testing.T) {
	// Same input twice from zero state vs carried state must differ,
	// proving the recurrence actually carries information.
	rng := rand.New(rand.NewSource(2))
	l := New(4, 6, rng)
	x := randT(rng, 1, 4)
	h1, s1, _ := l.Step(x, l.ZeroState(1))
	h2, _, _ := l.Step(x, s1)
	same := true
	for i := range h1.Data {
		if math.Abs(float64(h1.Data[i]-h2.Data[i])) > 1e-7 {
			same = false
			break
		}
	}
	if same {
		t.Fatal("hidden state did not evolve across steps")
	}
}

func TestForgetGateBiasInit(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l := New(2, 4, rng)
	for i := 4; i < 8; i++ {
		if l.B.W.Data[i] != 1 {
			t.Fatal("forget gate bias should be initialized to 1")
		}
	}
	for i := 0; i < 4; i++ {
		if l.B.W.Data[i] != 0 {
			t.Fatal("non-forget biases should start at 0")
		}
	}
}

// seqLoss runs a T-step sequence and returns sum(coef[t] ⊙ h[t]).
func seqLoss(l *LSTM, xs, coefs []*tensor.Tensor) float64 {
	s := l.ZeroState(xs[0].Shape[0])
	var total float64
	for t := range xs {
		var h *tensor.Tensor
		h, s, _ = l.Step(xs[t], s)
		for i := range h.Data {
			total += float64(h.Data[i]) * float64(coefs[t].Data[i])
		}
	}
	return total
}

func TestBPTTGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	l := New(3, 4, rng)
	T, n := 3, 2
	xs := make([]*tensor.Tensor, T)
	coefs := make([]*tensor.Tensor, T)
	for i := 0; i < T; i++ {
		xs[i] = randT(rng, n, 3)
		coefs[i] = randT(rng, n, 4)
	}

	// Analytic gradients.
	s := l.ZeroState(n)
	caches := make([]*StepCache, T)
	dhs := make([]*tensor.Tensor, T)
	for i := 0; i < T; i++ {
		_, s, caches[i] = l.Step(xs[i], s)
		dhs[i] = coefs[i]
	}
	dxs := l.Backward(caches, dhs)

	loss := func() float64 { return seqLoss(l, xs, coefs) }

	checkParam := func(name string, p *nn.Param) {
		t.Helper()
		const h = 1e-3
		for i := 0; i < len(p.W.Data); i += 7 { // sample every 7th element
			orig := p.W.Data[i]
			p.W.Data[i] = orig + h
			lp := loss()
			p.W.Data[i] = orig - h
			lm := loss()
			p.W.Data[i] = orig
			want := (lp - lm) / (2 * h)
			got := float64(p.Grad().Data[i])
			scale := math.Max(1, math.Abs(want))
			if math.Abs(got-want)/scale > 3e-2 {
				t.Fatalf("%s grad[%d]: got %v want %v", name, i, got, want)
			}
		}
	}
	checkParam("Wx", l.Wx)
	checkParam("Wh", l.Wh)
	checkParam("B", l.B)

	// Input gradients via numerical differentiation.
	const h = 1e-3
	for ti := 0; ti < T; ti++ {
		for i := 0; i < len(xs[ti].Data); i += 3 {
			orig := xs[ti].Data[i]
			xs[ti].Data[i] = orig + h
			lp := loss()
			xs[ti].Data[i] = orig - h
			lm := loss()
			xs[ti].Data[i] = orig
			want := (lp - lm) / (2 * h)
			got := float64(dxs[ti].Data[i])
			scale := math.Max(1, math.Abs(want))
			if math.Abs(got-want)/scale > 3e-2 {
				t.Fatalf("dx[%d][%d]: got %v want %v", ti, i, got, want)
			}
		}
	}
}

func TestBackwardNilDh(t *testing.T) {
	// Steps without loss contribution (nil dh) should be legal.
	rng := rand.New(rand.NewSource(5))
	l := New(3, 4, rng)
	s := l.ZeroState(1)
	var caches []*StepCache
	for i := 0; i < 3; i++ {
		var c *StepCache
		_, s, c = l.Step(randT(rng, 1, 3), s)
		caches = append(caches, c)
	}
	dhs := []*tensor.Tensor{nil, randT(rng, 1, 4), nil}
	dxs := l.Backward(caches, dhs)
	if len(dxs) != 3 {
		t.Fatalf("want 3 input grads, got %d", len(dxs))
	}
	// Gradient at step 2 must be zero: its output feeds nothing.
	if dxs[2].MaxAbs() != 0 {
		t.Fatal("step after the last loss should receive zero gradient")
	}
	// Gradient at step 0 should generally be nonzero (flows through state).
	if dxs[0].MaxAbs() == 0 {
		t.Fatal("gradient should flow backward through recurrent state")
	}
}

func TestLSTMLearnsToMemorize(t *testing.T) {
	// Task: output at final step must classify the first input token.
	// Tests that LSTM + head + Adam can actually learn a memory task.
	rng := rand.New(rand.NewSource(6))
	l := New(2, 16, rng)
	head := NewHead("out", 16, 2, rng)
	params := append(l.Params(), head.Params()...)
	opt := nn.NewAdam(0.01)

	sample := func() ([]*tensor.Tensor, int) {
		label := rng.Intn(2)
		xs := make([]*tensor.Tensor, 4)
		x0 := tensor.New(1, 2)
		x0.Data[label] = 1
		xs[0] = x0
		for i := 1; i < 4; i++ {
			xs[i] = tensor.New(1, 2) // zero padding steps
		}
		return xs, label
	}

	var finalLoss float64
	for epoch := 0; epoch < 300; epoch++ {
		xs, label := sample()
		s := l.ZeroState(1)
		caches := make([]*StepCache, 4)
		var h *tensor.Tensor
		for i := 0; i < 4; i++ {
			h, s, caches[i] = l.Step(xs[i], s)
		}
		logits, lc := head.Forward(h)
		loss, dlogits, _ := nn.SoftmaxCrossEntropy(logits, []int{label})
		finalLoss = loss
		dh := head.Backward(dlogits, lc)
		dhs := []*tensor.Tensor{nil, nil, nil, dh}
		l.Backward(caches, dhs)
		opt.Step(params)
	}
	if finalLoss > 0.3 {
		t.Fatalf("LSTM failed to learn memorization task: loss %v", finalLoss)
	}
	// Verify both classes classify correctly.
	for label := 0; label < 2; label++ {
		xs := make([]*tensor.Tensor, 4)
		x0 := tensor.New(1, 2)
		x0.Data[label] = 1
		xs[0] = x0
		for i := 1; i < 4; i++ {
			xs[i] = tensor.New(1, 2)
		}
		s := l.ZeroState(1)
		var h *tensor.Tensor
		for i := 0; i < 4; i++ {
			h, s, _ = l.Step(xs[i], s)
		}
		logits, _ := head.Forward(h)
		pred := 0
		if logits.Data[1] > logits.Data[0] {
			pred = 1
		}
		if pred != label {
			t.Fatalf("label %d misclassified (logits %v)", label, logits.Data)
		}
	}
}

func TestStateClone(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	l := New(2, 3, rng)
	s := l.ZeroState(1)
	_, s2, _ := l.Step(randT(rng, 1, 2), s)
	cl := s2.Clone()
	cl.H.Data[0] = 99
	if s2.H.Data[0] == 99 {
		t.Fatal("Clone must deep-copy hidden state")
	}
}
