package nn

import (
	"math"
	"math/rand"
	"testing"

	"murmuration/internal/tensor"
)

func randT(rng *rand.Rand, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	for i := range t.Data {
		t.Data[i] = rng.Float32()*2 - 1
	}
	return t
}

// numGrad computes the numerical gradient of loss() w.r.t. t by central
// differences.
func numGrad(t *tensor.Tensor, loss func() float64) *tensor.Tensor {
	const h = 1e-3
	g := tensor.New(t.Shape...)
	for i := range t.Data {
		orig := t.Data[i]
		t.Data[i] = orig + h
		lp := loss()
		t.Data[i] = orig - h
		lm := loss()
		t.Data[i] = orig
		g.Data[i] = float32((lp - lm) / (2 * h))
	}
	return g
}

func assertClose(t *testing.T, name string, got, want *tensor.Tensor, tol float64) {
	t.Helper()
	if len(got.Data) != len(want.Data) {
		t.Fatalf("%s: size mismatch %d vs %d", name, len(got.Data), len(want.Data))
	}
	for i := range got.Data {
		d := math.Abs(float64(got.Data[i] - want.Data[i]))
		scale := math.Max(1, math.Abs(float64(want.Data[i])))
		if d/scale > tol {
			t.Fatalf("%s[%d]: got %v want %v (reldiff %v)", name, i, got.Data[i], want.Data[i], d/scale)
		}
	}
}

// sumLoss is a simple scalar loss: sum of elementwise products with fixed
// coefficients, whose gradient w.r.t. the output is exactly the coefficients.
func sumLoss(y, coef *tensor.Tensor) float64 {
	var s float64
	for i := range y.Data {
		s += float64(y.Data[i]) * float64(coef.Data[i])
	}
	return s
}

func TestConvGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := randT(rng, 2, 3, 6, 6)
	w := randT(rng, 4, 3, 3, 3)
	b := randT(rng, 4)
	o := tensor.ConvOpts{Stride: 2, Padding: 1}
	y, cache := ConvFwd(x, w, b, o)
	coef := randT(rng, y.Shape...)

	dx, dw, db := ConvBwd(coef, cache)
	loss := func() float64 {
		y2, _ := ConvFwd(x, w, b, o)
		return sumLoss(y2, coef)
	}
	assertClose(t, "conv dx", dx, numGrad(x, loss), 2e-2)
	assertClose(t, "conv dw", dw, numGrad(w, loss), 2e-2)
	assertClose(t, "conv db", db, numGrad(b, loss), 2e-2)
}

func TestDepthwiseConvGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := randT(rng, 1, 3, 5, 5)
	w := randT(rng, 3, 1, 3, 3)
	b := randT(rng, 3)
	o := tensor.ConvOpts{Stride: 1, Padding: 1}
	y, cache := DepthwiseConvFwd(x, w, b, o)
	coef := randT(rng, y.Shape...)
	dx, dw, db := DepthwiseConvBwd(coef, cache)
	loss := func() float64 {
		y2, _ := DepthwiseConvFwd(x, w, b, o)
		return sumLoss(y2, coef)
	}
	assertClose(t, "dw dx", dx, numGrad(x, loss), 2e-2)
	assertClose(t, "dw dw", dw, numGrad(w, loss), 2e-2)
	assertClose(t, "dw db", db, numGrad(b, loss), 2e-2)
}

func TestLinearGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := randT(rng, 4, 7)
	w := randT(rng, 5, 7)
	b := randT(rng, 5)
	y, cache := LinearFwd(x, w, b)
	coef := randT(rng, y.Shape...)
	dx, dw, db := LinearBwd(coef, cache)
	loss := func() float64 {
		y2, _ := LinearFwd(x, w, b)
		return sumLoss(y2, coef)
	}
	assertClose(t, "lin dx", dx, numGrad(x, loss), 2e-2)
	assertClose(t, "lin dw", dw, numGrad(w, loss), 2e-2)
	assertClose(t, "lin db", db, numGrad(b, loss), 2e-2)
}

func TestActivationGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := randT(rng, 3, 8)
	x.Scale(4) // exercise the saturation regions of hswish/hsigmoid
	coef := randT(rng, 3, 8)

	{
		_, mask := ReLUFwd(x)
		dx := ReLUBwd(coef, mask)
		loss := func() float64 { y, _ := ReLUFwd(x); return sumLoss(y, coef) }
		assertClose(t, "relu dx", dx, numGrad(x, loss), 2e-2)
	}
	{
		_, cx := HSwishFwd(x)
		dx := HSwishBwd(coef, cx)
		loss := func() float64 { y, _ := HSwishFwd(x); return sumLoss(y, coef) }
		assertClose(t, "hswish dx", dx, numGrad(x, loss), 2e-2)
	}
	{
		_, cx := HSigmoidFwd(x)
		dx := HSigmoidBwd(coef, cx)
		loss := func() float64 { y, _ := HSigmoidFwd(x); return sumLoss(y, coef) }
		assertClose(t, "hsigmoid dx", dx, numGrad(x, loss), 2e-2)
	}
	{
		y := TanhFwd(x)
		dx := TanhBwd(coef, y)
		loss := func() float64 { return sumLoss(TanhFwd(x), coef) }
		assertClose(t, "tanh dx", dx, numGrad(x, loss), 2e-2)
	}
	{
		y := SigmoidFwd(x)
		dx := SigmoidBwd(coef, y)
		loss := func() float64 { return sumLoss(SigmoidFwd(x), coef) }
		assertClose(t, "sigmoid dx", dx, numGrad(x, loss), 2e-2)
	}
}

func TestGlobalAvgPoolGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := randT(rng, 2, 3, 4, 4)
	y, shape := GlobalAvgPoolFwd(x)
	coef := randT(rng, y.Shape...)
	dx := GlobalAvgPoolBwd(coef, shape)
	loss := func() float64 { y2, _ := GlobalAvgPoolFwd(x); return sumLoss(y2, coef) }
	assertClose(t, "gap dx", dx, numGrad(x, loss), 2e-2)
}

func TestScaleChannelsGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := randT(rng, 2, 3, 4, 4)
	s := randT(rng, 2, 3)
	y := ScaleChannelsFwd(x, s)
	coef := randT(rng, y.Shape...)
	dx, ds := ScaleChannelsBwd(coef, x, s)
	loss := func() float64 { return sumLoss(ScaleChannelsFwd(x, s), coef) }
	assertClose(t, "sc dx", dx, numGrad(x, loss), 2e-2)
	assertClose(t, "sc ds", ds, numGrad(s, loss), 2e-2)
}

func TestBatchNormForwardStats(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := randT(rng, 4, 3, 5, 5)
	gamma := tensor.New(3)
	gamma.Fill(1)
	beta := tensor.New(3)
	rm := tensor.New(3)
	rv := tensor.New(3)
	rv.Fill(1)
	y, _ := BatchNormFwd(x, gamma, beta, rm, rv, true, 0.1, 1e-5)
	// Normalized output per channel should have ~zero mean, ~unit variance.
	n, c, h, w := 4, 3, 5, 5
	for cc := 0; cc < c; cc++ {
		var sum, sq float64
		for bi := 0; bi < n; bi++ {
			for _, v := range y.Data[(bi*c+cc)*h*w : (bi*c+cc+1)*h*w] {
				sum += float64(v)
				sq += float64(v) * float64(v)
			}
		}
		cnt := float64(n * h * w)
		mean := sum / cnt
		variance := sq/cnt - mean*mean
		if math.Abs(mean) > 1e-4 || math.Abs(variance-1) > 1e-2 {
			t.Fatalf("ch %d: mean %v var %v", cc, mean, variance)
		}
	}
}

func TestBatchNormGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x := randT(rng, 2, 2, 3, 3)
	gamma := randT(rng, 2)
	beta := randT(rng, 2)
	coefShape := []int{2, 2, 3, 3}
	coef := randT(rng, coefShape...)

	fwd := func() (*tensor.Tensor, *BNCache) {
		rm := tensor.New(2)
		rv := tensor.New(2)
		return BatchNormFwd(x, gamma, beta, rm, rv, true, 0.1, 1e-5)
	}
	_, cache := fwd()
	dx, dg, db := BatchNormBwd(coef, cache)
	loss := func() float64 { y, _ := fwd(); return sumLoss(y, coef) }
	assertClose(t, "bn dx", dx, numGrad(x, loss), 5e-2)
	assertClose(t, "bn dgamma", dg, numGrad(gamma, loss), 5e-2)
	assertClose(t, "bn dbeta", db, numGrad(beta, loss), 5e-2)
}

func TestBatchNormEvalUsesRunningStats(t *testing.T) {
	x := tensor.New(1, 1, 2, 2)
	x.Fill(10)
	gamma := tensor.New(1)
	gamma.Fill(1)
	beta := tensor.New(1)
	rm := tensor.New(1)
	rm.Fill(10)
	rv := tensor.New(1)
	rv.Fill(4)
	y, cache := BatchNormFwd(x, gamma, beta, rm, rv, false, 0.1, 0)
	if cache != nil {
		t.Fatal("eval mode should not return a cache")
	}
	for _, v := range y.Data {
		if math.Abs(float64(v)) > 1e-6 {
			t.Fatalf("eval BN of mean input should be 0, got %v", v)
		}
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	l := randT(rng, 5, 10)
	l.Scale(30) // large logits stress stability
	p := Softmax(l)
	for r := 0; r < 5; r++ {
		var s float64
		for _, v := range p.Data[r*10 : (r+1)*10] {
			if v < 0 || math.IsNaN(float64(v)) {
				t.Fatal("invalid probability")
			}
			s += float64(v)
		}
		if math.Abs(s-1) > 1e-5 {
			t.Fatalf("row %d sums to %v", r, s)
		}
	}
}

func TestSoftmaxCEGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	logits := randT(rng, 4, 6)
	labels := []int{0, 3, 5, 2}
	_, d, _ := SoftmaxCrossEntropy(logits, labels)
	loss := func() float64 {
		l, _, _ := SoftmaxCrossEntropy(logits, labels)
		return l
	}
	assertClose(t, "ce dlogits", d, numGrad(logits, loss), 2e-2)
}

func TestSoftmaxCEWeightedGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	logits := randT(rng, 3, 4)
	labels := []int{1, 0, 2}
	weights := []float64{0.5, 2.0, 1.0}
	_, d := SoftmaxCEWeighted(logits, labels, weights)
	loss := func() float64 {
		l, _ := SoftmaxCEWeighted(logits, labels, weights)
		return l
	}
	assertClose(t, "wce dlogits", d, numGrad(logits, loss), 2e-2)
}

func TestKLDivGradientAndZero(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	logits := randT(rng, 3, 5)
	teacher := Softmax(logits)
	loss, d := KLDivSoft(logits, teacher)
	if loss > 1e-6 {
		t.Fatalf("KL(p‖p) should be ~0, got %v", loss)
	}
	if d.MaxAbs() > 1e-6 {
		t.Fatalf("KL grad at identical dists should be ~0, got %v", d.MaxAbs())
	}
	// Gradient check against a different teacher.
	teacher2 := Softmax(randT(rng, 3, 5))
	_, d2 := KLDivSoft(logits, teacher2)
	lossFn := func() float64 {
		l, _ := KLDivSoft(logits, teacher2)
		return l
	}
	assertClose(t, "kl dlogits", d2, numGrad(logits, lossFn), 2e-2)
}

func TestAccuracy(t *testing.T) {
	logits := tensor.FromSlice([]float32{
		1, 5, 2, // argmax 1
		9, 0, 1, // argmax 0
		0, 1, 8, // argmax 2
	}, 3, 3)
	if got := Accuracy(logits, []int{1, 0, 2}); got != 1 {
		t.Fatalf("Accuracy = %v, want 1", got)
	}
	if got := Accuracy(logits, []int{0, 0, 2}); math.Abs(got-2.0/3) > 1e-9 {
		t.Fatalf("Accuracy = %v, want 2/3", got)
	}
}

func TestSGDConvergesOnQuadratic(t *testing.T) {
	// Minimize ||w - target||² with SGD; must converge.
	target := []float32{1, -2, 3}
	p := NewParam("w", tensor.New(3))
	opt := NewSGD(0.1, 0.9, 0)
	for step := 0; step < 200; step++ {
		for i := range p.W.Data {
			p.Grad().Data[i] = 2 * (p.W.Data[i] - target[i])
		}
		opt.Step([]*Param{p})
	}
	for i := range target {
		if math.Abs(float64(p.W.Data[i]-target[i])) > 1e-3 {
			t.Fatalf("SGD failed to converge: w=%v", p.W.Data)
		}
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	target := []float32{0.5, -1.5}
	p := NewParam("w", tensor.New(2))
	opt := NewAdam(0.05)
	for step := 0; step < 500; step++ {
		for i := range p.W.Data {
			p.Grad().Data[i] = 2 * (p.W.Data[i] - target[i])
		}
		opt.Step([]*Param{p})
	}
	for i := range target {
		if math.Abs(float64(p.W.Data[i]-target[i])) > 1e-2 {
			t.Fatalf("Adam failed to converge: w=%v", p.W.Data)
		}
	}
}

func TestStepClearsGradients(t *testing.T) {
	p := NewParam("w", tensor.New(2))
	p.Grad().Fill(1)
	NewSGD(0.1, 0, 0).Step([]*Param{p})
	if p.Grad().MaxAbs() != 0 {
		t.Fatal("SGD.Step must zero gradients")
	}
	p.Grad().Fill(1)
	NewAdam(0.1).Step([]*Param{p})
	if p.Grad().MaxAbs() != 0 {
		t.Fatal("Adam.Step must zero gradients")
	}
}

func TestClipGradNorm(t *testing.T) {
	p := NewParam("w", tensor.New(4))
	p.Grad().Fill(3) // norm = 6
	norm := ClipGradNorm([]*Param{p}, 3)
	if math.Abs(norm-6) > 1e-6 {
		t.Fatalf("pre-clip norm = %v, want 6", norm)
	}
	var total float64
	for _, g := range p.Grad().Data {
		total += float64(g) * float64(g)
	}
	if math.Abs(math.Sqrt(total)-3) > 1e-5 {
		t.Fatalf("post-clip norm = %v, want 3", math.Sqrt(total))
	}
	// Under the limit: unchanged.
	before := p.Grad().Clone()
	ClipGradNorm([]*Param{p}, 100)
	for i := range before.Data {
		if before.Data[i] != p.Grad().Data[i] {
			t.Fatal("clip should not modify gradients under the limit")
		}
	}
}

// TestGradientIsLazy: a parameter has no gradient until something asks for
// one, and until then every consumer of gradients leaves it alone — weight
// decay included, which would otherwise move a weight no backward ever reached.
func TestGradientIsLazy(t *testing.T) {
	idle := NewParam("idle", tensor.FromSlice([]float32{1, -2}, 2))
	live := NewParam("live", tensor.FromSlice([]float32{1, -2}, 2))
	if idle.HasGrad() || live.HasGrad() {
		t.Fatal("NewParam allocated a gradient")
	}
	idle.ZeroGrad() // nothing to clear, nothing to create
	live.Grad().Fill(3)
	if !live.HasGrad() || live.Grad().Len() != 2 {
		t.Fatal("Grad did not create a gradient of the weight's shape")
	}
	params := []*Param{idle, live}
	if norm := ClipGradNorm(params, 1); math.Abs(norm-3*math.Sqrt2) > 1e-6 {
		t.Fatalf("gradient norm %v, want that of the one gradient there is", norm)
	}
	NewSGD(0.1, 0.9, 0.5).Step(params)
	NewAdam(0.1).Step(params)
	if idle.HasGrad() {
		t.Fatal("an optimizer or ClipGradNorm created a gradient")
	}
	if idle.W.Data[0] != 1 || idle.W.Data[1] != -2 {
		t.Fatalf("a parameter with no gradient moved to %v", idle.W.Data)
	}
	if live.W.Data[0] == 1 {
		t.Fatal("the parameter with a gradient did not move")
	}
}

// TestBatchNormInPlaceMatchesTrainingForward holds the inference batch norm
// to the training one at tolerance 0: same statistics, same arithmetic, with
// and without the fused h-swish, full-width parameters read through their
// first C entries, and one worker or four.
func TestBatchNormInPlaceMatchesTrainingForward(t *testing.T) {
	old := tensor.Parallelism()
	defer tensor.SetParallelism(old)
	rng := rand.New(rand.NewSource(21))
	for _, workers := range []int{1, 4} {
		tensor.SetParallelism(workers)
		for _, sh := range [][4]int{{1, 1, 1, 1}, {1, 3, 5, 7}, {3, 7, 4, 6}, {2, 70, 16, 16}} {
			x := randT(rng, sh[0], sh[1], sh[2], sh[3])
			full := sh[1] + 5 // the layer's maximum width
			gamma, beta := randT(rng, full), randT(rng, full)
			g, b := tensor.FromSlice(gamma.Data[:sh[1]], sh[1]), tensor.FromSlice(beta.Data[:sh[1]], sh[1])
			want, _ := BatchNormFwd(x, g, b, nil, nil, true, 0.1, 1e-5)
			for _, hswish := range []bool{false, true} {
				if hswish {
					want, _ = HSwishFwd(want)
				}
				got := x.Clone()
				BatchNormInPlace(got, gamma, beta, 1e-5, hswish)
				for i := range want.Data {
					if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
						t.Fatalf("workers %d shape %v hswish %v: element %d is %v, want %v",
							workers, sh, hswish, i, got.Data[i], want.Data[i])
					}
				}
			}
		}
	}
}
