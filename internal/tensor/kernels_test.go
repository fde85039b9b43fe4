package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The blocked kernels are checked at tolerance 0 against the plain loops they
// replaced, kept here as references. Equality of bits, not closeness: each
// output element's summation order is the contract (DESIGN.md §4.6), so a
// blocking, an unrolling or a split across workers that moves one rounding
// fails these tests.

// conv1x1Ref is the order every 1×1 convolution has always had on the
// forward path: channels ascending from zero, bias added last.
func conv1x1Ref(x *Tensor, wd []float32, wstride, outC int, bias *Tensor) *Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	plane := h * w
	out := New(n, outC, h, w)
	for b := 0; b < n; b++ {
		for oc := 0; oc < outC; oc++ {
			for i := 0; i < plane; i++ {
				var s float32
				for ch := 0; ch < c; ch++ {
					s += x.Data[(b*c+ch)*plane+i] * wd[oc*wstride+ch]
				}
				if bias != nil {
					s += bias.Data[oc]
				}
				out.Data[(b*outC+oc)*plane+i] = s
			}
		}
	}
	return out
}

// depthwiseRef is DepthwiseConv2D as it stood before the interior/border
// split: every tap bounds-checked, ky outer, kx inner, starting from the bias.
func depthwiseRef(x, weight, bias *Tensor, o ConvOpts) *Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	kh, kw := weight.Shape[2], weight.Shape[3]
	s, p := max(o.Stride, 1), o.Padding
	oh, ow := ConvOutSize(h, kh, s, p), ConvOutSize(w, kw, s, p)
	out := New(n, c, oh, ow)
	for r := 0; r < n*c; r++ {
		ch := r % c
		var bv float32
		if bias != nil {
			bv = bias.Data[ch]
		}
		in := x.Data[r*h*w : (r+1)*h*w]
		ker := weight.Data[ch*kh*kw : (ch+1)*kh*kw]
		dst := out.Data[r*oh*ow : (r+1)*oh*ow]
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				acc := bv
				for ky := 0; ky < kh; ky++ {
					iy := oy*s - p + ky
					if iy < 0 || iy >= h {
						continue
					}
					for kx := 0; kx < kw; kx++ {
						ix := ox*s - p + kx
						if ix < 0 || ix >= w {
							continue
						}
						acc += in[iy*w+ix] * ker[ky*kw+kx]
					}
				}
				dst[oy*ow+ox] = acc
			}
		}
	}
	return out
}

// matMulTransBRef is the single-accumulator dot product per output element.
func matMulTransBRef(a, b *Tensor) *Tensor {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[0]
	c := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for p := 0; p < k; p++ {
				s += a.Data[i*k+p] * b.Data[j*k+p]
			}
			c.Data[i*n+j] = s
		}
	}
	return c
}

// sameBits reports the first element whose bit pattern differs.
func sameBits(t *testing.T, name string, got, want *Tensor) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %v, want %v", name, got.Shape, want.Shape)
	}
	for i := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("%s: element %d is %v (%#08x), want %v (%#08x)", name, i,
				got.Data[i], math.Float32bits(got.Data[i]), want.Data[i], math.Float32bits(want.Data[i]))
		}
	}
}

// atParallelism runs f with one worker and with four, so that a partition of
// the work that changed any element's sum would show.
func atParallelism(t *testing.T, f func(t *testing.T)) {
	old := Parallelism()
	defer SetParallelism(old)
	for _, p := range []int{1, 4} {
		SetParallelism(p)
		t.Run(fmt.Sprintf("workers=%d", p), f)
	}
}

func TestConv1x1BitExact(t *testing.T) {
	cases := []struct {
		n, c, h, w, outC int
		wRows, wCols     int // the full weight the outC×c block is a view of
	}{
		{1, 1, 1, 1, 1, 1, 1},
		{1, 3, 5, 7, 5, 5, 3},       // C%4 = 3, odd outC, non-square plane
		{3, 7, 4, 4, 3, 3, 7},       // batch 3, prime C
		{1, 13, 9, 5, 11, 16, 24},   // strided view narrower than the weight
		{3, 16, 8, 8, 48, 96, 16},   // the expand shape, view of 6× rows
		{1, 9, 33, 37, 2, 4, 12},    // plane > one block (1221 elements)
		{1, 5, 47, 47, 70, 70, 5},   // enough work that four workers really split
		{3, 21, 1, 1, 130, 131, 40}, // 1×1 plane (head of a tiny tile)
	}
	atParallelism(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(31))
		for _, cs := range cases {
			x := randTensor(rng, cs.n, cs.c, cs.h, cs.w)
			full := randTensor(rng, cs.wRows, cs.wCols, 1, 1)
			for _, bias := range []*Tensor{nil, randTensor(rng, cs.wRows)} {
				name := fmt.Sprintf("%+v bias=%v", cs, bias != nil)
				want := conv1x1Ref(x, full.Data, cs.wCols, cs.outC, bias)
				sameBits(t, "Conv1x1 "+name, Conv1x1(x, full, bias, cs.outC), want)
				if cs.wRows == cs.outC && cs.wCols == cs.c {
					sameBits(t, "Conv2D "+name, Conv2D(x, full, bias, ConvOpts{Stride: 1}), want)
				}
			}
		}
	})
}

func TestConv1x1KeepsSignedZeroAndNaN(t *testing.T) {
	// A zero weight is a term like any other: it must not be skipped, or a
	// NaN/Inf input would stop propagating the way the plain loop does.
	x := FromSlice([]float32{float32(math.Inf(1)), 1, -1, 2}, 1, 2, 1, 2)
	w := FromSlice([]float32{0, 1}, 1, 2, 1, 1)
	sameBits(t, "zero weight × Inf", Conv1x1(x, w, nil, 1), conv1x1Ref(x, w.Data, 2, 1, nil))
}

func TestDepthwiseBitExact(t *testing.T) {
	planes := []struct{ n, c, h, w int }{
		{1, 1, 2, 2},    // tile smaller than every kernel: no interior at all
		{1, 3, 7, 5},    // non-square, odd
		{3, 5, 8, 12},   // batch 3
		{1, 70, 10, 10}, // enough work that four workers really split
		{1, 2, 1, 9},    // a single row
	}
	atParallelism(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(32))
		for _, pl := range planes {
			x := randTensor(rng, pl.n, pl.c, pl.h, pl.w)
			for _, k := range []int{3, 5, 7} {
				wt := randTensor(rng, pl.c, 1, k, k)
				for _, stride := range []int{1, 2} {
					for _, bias := range []*Tensor{nil, randTensor(rng, pl.c)} {
						o := ConvOpts{Stride: stride, Padding: k / 2}
						name := fmt.Sprintf("%+v k=%d s=%d bias=%v", pl, k, stride, bias != nil)
						sameBits(t, name, DepthwiseConv2D(x, wt, bias, o), depthwiseRef(x, wt, bias, o))
					}
				}
			}
		}
		// Padding other than k/2, including none: the interior is then the
		// whole output, or starts off the k/2 grid.
		x := randTensor(rng, 2, 3, 9, 11)
		for _, o := range []ConvOpts{{Stride: 1, Padding: 0}, {Stride: 2, Padding: 0}, {Stride: 1, Padding: 3}, {Stride: 3, Padding: 1}} {
			wt := randTensor(rng, 3, 1, 3, 3)
			sameBits(t, fmt.Sprintf("%+v", o), DepthwiseConv2D(x, wt, nil, o), depthwiseRef(x, wt, nil, o))
		}
	})
}

func TestMatMulTransBBitExact(t *testing.T) {
	atParallelism(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(33))
		// {m, k, n}: n%4 ≠ 0 tails, a single row of a (the classifier and SE
		// shape, split by column), and enough work for four workers to split.
		for _, d := range [][3]int{{1, 1, 1}, {1, 7, 3}, {3, 27, 16}, {2, 5, 9}, {70, 13, 6}, {3, 40, 10}, {1, 960, 7}, {1, 96, 401}} {
			a := randTensor(rng, d[0], d[1])
			b := randTensor(rng, d[2], d[1])
			sameBits(t, fmt.Sprint(d), MatMulTransB(a, b), matMulTransBRef(a, b))

			// The same product against a view of a wider, taller weight.
			full := randTensor(rng, d[2]+3, d[1]+5)
			view := New(d[2], d[1])
			for j := 0; j < d[2]; j++ {
				copy(view.Data[j*d[1]:(j+1)*d[1]], full.Data[j*(d[1]+5):])
			}
			sameBits(t, fmt.Sprint("view ", d), MatMulTransBView(a, full, d[2]), matMulTransBRef(a, view))
		}
	})
}

// The two benchmarks run bench/layers.go's shapes and report the number it
// reports (tensor.conv1x1_gflops, tensor.dwconv_gflops).

func BenchmarkConv1x1(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randTensor(rng, 1, 16, 80, 80)
	w := randTensor(rng, 48, 16, 1, 1)
	flops := 2.0 * 48 * 16 * 80 * 80
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Conv2D(x, w, nil, ConvOpts{Stride: 1})
	}
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

func BenchmarkDepthwise(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randTensor(rng, 1, 48, 80, 80)
	w := randTensor(rng, 48, 1, 3, 3)
	flops := 2.0 * 48 * 9 * 40 * 40
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DepthwiseConv2D(x, w, nil, ConvOpts{Stride: 2, Padding: 1})
	}
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}
