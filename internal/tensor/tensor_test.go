package tensor

import (
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
)

func randTensor(rng *rand.Rand, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = rng.Float32()*2 - 1
	}
	return t
}

func maxDiff(a, b *Tensor) float64 {
	var m float64
	for i := range a.Data {
		d := math.Abs(float64(a.Data[i] - b.Data[i]))
		if d > m {
			m = d
		}
	}
	return m
}

func TestNewAndIndexing(t *testing.T) {
	x := New(2, 3, 4, 5)
	if x.Len() != 120 || x.Rank() != 4 {
		t.Fatalf("Len/Rank = %d/%d", x.Len(), x.Rank())
	}
	x.Set(7, 1, 2, 3, 4)
	if x.At(1, 2, 3, 4) != 7 {
		t.Fatal("Set/At roundtrip failed")
	}
	if x.Data[119] != 7 {
		t.Fatal("last index should be last element")
	}
}

func TestIndexPanics(t *testing.T) {
	x := New(2, 2)
	for _, idx := range [][]int{{2, 0}, {0, -1}, {0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for index %v", idx)
				}
			}()
			x.At(idx...)
		}()
	}
}

func TestCloneIndependence(t *testing.T) {
	x := New(3)
	x.Fill(1)
	y := x.Clone()
	y.Data[0] = 9
	if x.Data[0] != 1 {
		t.Fatal("Clone must deep-copy")
	}
}

func TestReshapeSharesData(t *testing.T) {
	x := New(2, 6)
	y := x.Reshape(3, 4)
	y.Data[0] = 5
	if x.Data[0] != 5 {
		t.Fatal("Reshape must alias data")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("bad reshape must panic")
		}
	}()
	x.Reshape(5, 5)
}

func TestElementwise(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3}, 3)
	b := FromSlice([]float32{10, 20, 30}, 3)
	a.Add(b)
	if a.Data[2] != 33 {
		t.Fatalf("Add: got %v", a.Data)
	}
	a.Scale(2)
	if a.Data[0] != 22 {
		t.Fatalf("Scale: got %v", a.Data)
	}
	a.AXPY(-2, b)
	if a.Data[0] != 2 || a.Data[1] != 4 || a.Data[2] != 6 {
		t.Fatalf("AXPY: got %v", a.Data)
	}
}

func TestMaxAbsSum(t *testing.T) {
	x := FromSlice([]float32{-5, 2, 3}, 3)
	if x.MaxAbs() != 5 {
		t.Fatalf("MaxAbs = %v", x.MaxAbs())
	}
	if x.Sum() != 0 {
		t.Fatalf("Sum = %v", x.Sum())
	}
}

func TestMatMulSmall(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(a, b)
	want := []float32{58, 64, 139, 154}
	for i := range want {
		if c.Data[i] != want[i] {
			t.Fatalf("MatMul = %v, want %v", c.Data, want)
		}
	}
}

func matmulRef(a, b *Tensor) *Tensor {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	c := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for p := 0; p < k; p++ {
				s += float64(a.Data[i*k+p]) * float64(b.Data[p*n+j])
			}
			c.Data[i*n+j] = float32(s)
		}
	}
	return c
}

func TestMatMulAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, dims := range [][3]int{{1, 1, 1}, {5, 7, 3}, {64, 33, 17}, {128, 64, 96}} {
		a := randTensor(rng, dims[0], dims[1])
		b := randTensor(rng, dims[1], dims[2])
		got := MatMul(a, b)
		want := matmulRef(a, b)
		if d := maxDiff(got, want); d > 1e-4 {
			t.Fatalf("dims %v: max diff %v", dims, d)
		}
	}
}

func TestMatMulTransVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randTensor(rng, 9, 13)
	b := randTensor(rng, 13, 11)
	want := MatMul(a, b)

	// C = A·Bᵀ with B stored transposed.
	bT := New(11, 13)
	for i := 0; i < 13; i++ {
		for j := 0; j < 11; j++ {
			bT.Data[j*13+i] = b.Data[i*11+j]
		}
	}
	if d := maxDiff(MatMulTransB(a, bT), want); d > 1e-4 {
		t.Fatalf("MatMulTransB diff %v", d)
	}

	// C = Aᵀ·B with A stored transposed.
	aT := New(13, 9)
	for i := 0; i < 9; i++ {
		for j := 0; j < 13; j++ {
			aT.Data[j*9+i] = a.Data[i*13+j]
		}
	}
	if d := maxDiff(MatMulTransA(aT, b), want); d > 1e-4 {
		t.Fatalf("MatMulTransA diff %v", d)
	}
}

func TestMatVec(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	x := FromSlice([]float32{5, 6}, 2)
	y := MatVec(a, x)
	if y.Data[0] != 17 || y.Data[1] != 39 {
		t.Fatalf("MatVec = %v", y.Data)
	}
}

func TestMatMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on inner-dim mismatch")
		}
	}()
	MatMul(New(2, 3), New(4, 2))
}

func TestConv2DAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []struct {
		n, c, h, w, oc, k, s, p int
	}{
		{1, 1, 5, 5, 1, 3, 1, 0},
		{2, 3, 8, 8, 4, 3, 1, 1},
		{1, 4, 9, 7, 6, 5, 2, 2},
		{2, 2, 11, 11, 3, 7, 2, 3},
		{1, 3, 6, 6, 2, 1, 1, 0},
	}
	for _, cs := range cases {
		x := randTensor(rng, cs.n, cs.c, cs.h, cs.w)
		wt := randTensor(rng, cs.oc, cs.c, cs.k, cs.k)
		bias := randTensor(rng, cs.oc)
		o := ConvOpts{Stride: cs.s, Padding: cs.p}
		got := Conv2D(x, wt, bias, o)
		want := Conv2DNaive(x, wt, bias, o)
		if !got.SameShape(want) {
			t.Fatalf("case %+v: shape %v vs %v", cs, got.Shape, want.Shape)
		}
		if d := maxDiff(got, want); d > 1e-3 {
			t.Fatalf("case %+v: conv max diff %v", cs, d)
		}
	}
}

func TestConvOutSize(t *testing.T) {
	if ConvOutSize(224, 3, 2, 1) != 112 {
		t.Fatal("224/k3s2p1 should be 112")
	}
	if ConvOutSize(5, 3, 1, 0) != 3 {
		t.Fatal("5/k3s1p0 should be 3")
	}
}

func TestDepthwiseConvMatchesGrouped(t *testing.T) {
	// Depthwise conv must equal a full conv whose weight is block-diagonal.
	rng := rand.New(rand.NewSource(3))
	n, c, h, w, k := 2, 3, 7, 7, 3
	x := randTensor(rng, n, c, h, w)
	dwW := randTensor(rng, c, 1, k, k)
	bias := randTensor(rng, c)
	got := DepthwiseConv2D(x, dwW, bias, ConvOpts{Stride: 1, Padding: 1})

	fullW := New(c, c, k, k)
	for ch := 0; ch < c; ch++ {
		for i := 0; i < k*k; i++ {
			fullW.Data[(ch*c+ch)*k*k+i] = dwW.Data[ch*k*k+i]
		}
	}
	want := Conv2DNaive(x, fullW, bias, ConvOpts{Stride: 1, Padding: 1})
	if d := maxDiff(got, want); d > 1e-4 {
		t.Fatalf("depthwise vs block-diag full conv diff %v", d)
	}
}

func TestCol2ImAdjoint(t *testing.T) {
	// <Im2Col(x), y> == <x, Col2Im(y)> — the defining adjoint property.
	rng := rand.New(rand.NewSource(4))
	n, c, h, w, k := 1, 2, 6, 6, 3
	o := ConvOpts{Stride: 2, Padding: 1}
	x := randTensor(rng, n, c, h, w)
	cols := Im2Col(x, k, k, o)
	y := randTensor(rng, cols.Shape[0], cols.Shape[1])
	lhs := 0.0
	for i := range cols.Data {
		lhs += float64(cols.Data[i]) * float64(y.Data[i])
	}
	back := Col2Im(y, n, c, h, w, k, k, o)
	rhs := 0.0
	for i := range x.Data {
		rhs += float64(x.Data[i]) * float64(back.Data[i])
	}
	if math.Abs(lhs-rhs) > 1e-3*math.Max(1, math.Abs(lhs)) {
		t.Fatalf("adjoint mismatch: %v vs %v", lhs, rhs)
	}
}

func TestAvgPoolGlobal(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4, 10, 20, 30, 40}, 1, 2, 2, 2)
	p := AvgPoolGlobal(x)
	if p.Data[0] != 2.5 || p.Data[1] != 25 {
		t.Fatalf("AvgPoolGlobal = %v", p.Data)
	}
}

func TestMaxPool2D(t *testing.T) {
	x := FromSlice([]float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 1, 4, 4)
	p := MaxPool2D(x, 2, 2)
	want := []float32{6, 8, 14, 16}
	for i := range want {
		if p.Data[i] != want[i] {
			t.Fatalf("MaxPool = %v, want %v", p.Data, want)
		}
	}
}

func TestPad2D(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4}, 1, 1, 2, 2)
	p := Pad2D(x, 1)
	if p.Shape[2] != 4 || p.Shape[3] != 4 {
		t.Fatalf("padded shape %v", p.Shape)
	}
	if p.At(0, 0, 0, 0) != 0 || p.At(0, 0, 1, 1) != 1 || p.At(0, 0, 2, 2) != 4 {
		t.Fatal("padding layout wrong")
	}
}

func TestCropPasteRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := randTensor(rng, 1, 2, 8, 8)
	dst := New(1, 2, 8, 8)
	// Cut x into 2x2 tiles and paste back; must reproduce x exactly.
	for _, ty := range []int{0, 4} {
		for _, tx := range []int{0, 4} {
			tile := CropSpatial(x, ty, tx, 4, 4)
			PasteSpatial(dst, tile, ty, tx)
		}
	}
	if d := maxDiff(x, dst); d != 0 {
		t.Fatalf("crop/paste roundtrip diff %v", d)
	}
}

func TestCropOutOfRangeReadsZero(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4}, 1, 1, 2, 2)
	c := CropSpatial(x, -1, -1, 3, 3)
	if c.At(0, 0, 0, 0) != 0 {
		t.Fatal("out-of-range crop should read zero")
	}
	if c.At(0, 0, 1, 1) != 1 {
		t.Fatal("in-range portion should copy")
	}
}

func TestBilinearResizeIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := randTensor(rng, 1, 3, 16, 16)
	y := BilinearResize(x, 16, 16)
	if d := maxDiff(x, y); d != 0 {
		t.Fatalf("identity resize changed data: %v", d)
	}
}

func TestBilinearResizeConstant(t *testing.T) {
	x := New(1, 1, 8, 8)
	x.Fill(3)
	y := BilinearResize(x, 5, 5)
	for _, v := range y.Data {
		if math.Abs(float64(v)-3) > 1e-6 {
			t.Fatalf("constant image must stay constant, got %v", v)
		}
	}
}

func TestParallelismOverride(t *testing.T) {
	old := Parallelism()
	defer SetParallelism(old)
	SetParallelism(1)
	if Parallelism() != 1 {
		t.Fatal("SetParallelism(1) not applied")
	}
	// Kernels must still be correct single-threaded.
	rng := rand.New(rand.NewSource(8))
	a := randTensor(rng, 20, 20)
	b := randTensor(rng, 20, 20)
	got := MatMul(a, b)
	want := matmulRef(a, b)
	if d := maxDiff(got, want); d > 1e-4 {
		t.Fatalf("single-thread matmul diff %v", d)
	}
	SetParallelism(0)
	if Parallelism() < 1 {
		t.Fatal("reset should restore >=1 workers")
	}
}

// TestSplitPanicReachesCaller: a panic in a kernel's chunk is raised on the
// goroutine that called the kernel, where a request's recover can catch it —
// not on a bare goroutine, where it would end the process — and every chunk
// has finished by then.
func TestSplitPanicReachesCaller(t *testing.T) {
	atParallelism(t, func(t *testing.T) {
		var ran atomic.Int64
		defer func() {
			if r := recover(); r != "kernel chunk" {
				t.Fatalf("recovered %v, want the chunk's panic", r)
			}
			if ran.Load() != 8 {
				t.Fatalf("%d of 8 items ran before the panic was raised again", ran.Load())
			}
		}()
		ParallelByCost(8, minParallelWork, func(s, e int) {
			ran.Add(int64(e - s))
			if s == 0 {
				panic("kernel chunk")
			}
		})
		t.Fatal("the panic did not reach the caller")
	})
}

func TestConv1x1FastPathMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	x := randTensor(rng, 2, 8, 9, 7)
	w := randTensor(rng, 5, 8, 1, 1)
	bias := randTensor(rng, 5)
	got := Conv2D(x, w, bias, ConvOpts{Stride: 1, Padding: 0})
	want := Conv2DNaive(x, w, bias, ConvOpts{Stride: 1, Padding: 0})
	if !got.SameShape(want) {
		t.Fatalf("shape %v vs %v", got.Shape, want.Shape)
	}
	if d := maxDiff(got, want); d > 1e-4 {
		t.Fatalf("1x1 fast path diff %v", d)
	}
	// Nil bias path.
	got2 := Conv2D(x, w, nil, ConvOpts{Stride: 1, Padding: 0})
	want2 := Conv2DNaive(x, w, nil, ConvOpts{Stride: 1, Padding: 0})
	if d := maxDiff(got2, want2); d > 1e-4 {
		t.Fatalf("1x1 fast path (nil bias) diff %v", d)
	}
	// Strided/padded 1x1 must NOT take the fast path and still be right.
	got3 := Conv2D(x, w, bias, ConvOpts{Stride: 2, Padding: 0})
	want3 := Conv2DNaive(x, w, bias, ConvOpts{Stride: 2, Padding: 0})
	if d := maxDiff(got3, want3); d > 1e-4 {
		t.Fatalf("strided 1x1 diff %v", d)
	}
}
