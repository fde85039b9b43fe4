package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"murmuration/internal/testutil"
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

// avgPoolRef is one float32 chain per plane, first element to last, then one
// divide.
func avgPoolRef(x *Tensor) *Tensor {
	plane := x.Shape[2] * x.Shape[3]
	out := New(x.Shape[0], x.Shape[1])
	for r := range out.Data {
		var s float32
		for _, v := range x.Data[r*plane : (r+1)*plane] {
			s += v
		}
		out.Data[r] = s / float32(plane)
	}
	return out
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
		// Square planes from all border to mostly interior: above and below
		// the interior rows the middle columns run through the interior
		// kernels with the kernel rows that are inside.
		{1, 3, 5, 5},
		{1, 3, 7, 7},
		{2, 2, 20, 20},
		{1, 2, 2, 20}, // no interior row at k ≥ 5, yet columns with every kx tap
		{1, 2, 3, 33}, // likewise, wide enough for the vector kernel
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
		for _, d := range [][3]int{{1, 1, 1}, {1, 7, 3}, {3, 27, 16}, {2, 5, 9}, {70, 13, 6}, {3, 40, 10}, {1, 960, 7}, {1, 96, 401}, {8, 36, 12}, {5, 12, 48}, {1, 61, 37}, {2, 8, 8}} {
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

func TestAvgPoolAndResizeBitExact(t *testing.T) {
	atParallelism(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(34))
		// Planes of 1…70 elements, plane counts that are not multiples of
		// eight, batches 1…8, and enough planes that four workers split.
		for _, d := range [][4]int{{1, 1, 1, 1}, {1, 3, 1, 7}, {2, 5, 3, 3}, {8, 36, 3, 3}, {3, 37, 5, 5}, {1, 48, 6, 6}, {1, 13, 7, 10}, {5, 16, 8, 8}, {1, 960, 5, 5}} {
			x := randTensor(rng, d[0], d[1], d[2], d[3])
			sameBits(t, fmt.Sprint("AvgPoolGlobal ", d), AvgPoolGlobal(x), avgPoolRef(x))
		}
		for _, d := range []struct{ n, c, h, w, oh, ow int }{{1, 3, 224, 224, 160, 160}, {8, 3, 24, 24, 32, 32}, {3, 3, 32, 32, 24, 24}, {1, 1, 5, 9, 7, 3}, {2, 70, 4, 4, 9, 9}, {1, 2, 3, 2, 1, 1}} {
			x := randTensor(rng, d.n, d.c, d.h, d.w)
			sameBits(t, fmt.Sprintf("BilinearResize %+v", d), BilinearResize(x, d.oh, d.ow), bilinearRef(x, d.oh, d.ow))
		}
	})
}

// ---------------------------------------------------------------------------
// Assembly against the portable loops
// ---------------------------------------------------------------------------
//
// Every vector kernel is run beside the portable function it stands in for,
// by name, and must leave the same bits. The portable loops are compiled on
// every platform (they finish the tails), so the comparison needs no switch:
// without the assembly the *Vec entry points compute nothing and the tests
// compare the portable loops with themselves.
//
// Sources live in guarded memory (testutil.GuardedFloats): canary NaNs below
// them, an inaccessible page right behind their last element, so a read one
// element too far faults and a read one element too early poisons the result.
// Destinations are sub-slices with canaries on both sides, checked after.

var (
	canary   = math.Float32frombits(0x7fc0babe)
	specials = []float32{
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		float32(math.Copysign(0, -1)), 0,
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		math.Float32frombits(0x007fffff), // largest denormal
		math.MaxFloat32, -math.MaxFloat32,
	}
)

const canaries = 9 // more than one register wide

// source returns n random values in [-1, 1) in guarded memory, about one in
// `every` of them replaced by a special (every = 0: none).
func source(tb testing.TB, rng *rand.Rand, n, every int) []float32 {
	buf := testutil.GuardedFloats(tb, canaries+n)
	for i := range buf {
		buf[i] = canary
	}
	x := buf[canaries:]
	for i := range x {
		x[i] = rng.Float32()*2 - 1
		if every > 0 && rng.Intn(every) == 0 {
			x[i] = specials[rng.Intn(len(specials))]
		}
	}
	return x
}

// dest returns a buffer of canaries and the n-element window in its middle.
func dest(n int) (buf, window []float32) {
	buf = make([]float32, n+2*canaries)
	for i := range buf {
		buf[i] = canary
	}
	return buf, buf[canaries : canaries+n]
}

func isCanary(v float32) bool { return math.Float32bits(v) == math.Float32bits(canary) }

// checkCanaries fails when a kernel wrote outside the window of buf.
func checkCanaries(tb testing.TB, name string, buf []float32) {
	tb.Helper()
	for i, v := range buf {
		if (i < canaries || i >= len(buf)-canaries) && !isCanary(v) {
			tb.Fatalf("%s: wrote %v at %d, outside its %d-element destination", name, v, i-canaries, len(buf)-2*canaries)
		}
	}
}

// sameSlice is sameBits for slices, except that a NaN matches any NaN: when
// two NaNs meet in a multiply or an add, the one whose payload survives is
// the first operand's, and the compiler commutes those as register allocation
// suits — between two Go functions as much as between Go and assembly. Which
// elements are NaN is pinned; their payloads are not part of the contract.
func sameSlice(tb testing.TB, name string, got, want []float32) {
	tb.Helper()
	if len(got) != len(want) {
		tb.Fatalf("%s: %d elements, want %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != got[i] && want[i] != want[i] {
			continue
		}
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			tb.Fatalf("%s: element %d is %v (%#08x), want %v (%#08x)", name, i,
				got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// planeSizes hit every tail of the 1×1 kernel: below one register, exactly
// one, one over, the 32-wide main loop with and without 8-wide leftovers, and
// one under and over the 1024-element work item.
var planeSizes = []struct{ h, w int }{{1, 1}, {2, 2}, {1, 7}, {2, 4}, {3, 3}, {5, 5}, {10, 10}, {31, 33}, {25, 41}, {40, 40}}

// checkConv1x1Kernels runs the pair and the row kernel over rows [lo, lo+n)
// of a c-channel image and compares each with its portable loop.
func checkConv1x1Kernels(tb testing.TB, name string, src []float32, plane, lo, n int, w0, w1 []float32) {
	tb.Helper()
	// The destinations go in full of canaries, which are NaNs: neither the
	// vector kernel nor the portable loop may read what a destination held.
	buf0, got0 := dest(n)
	buf1, got1 := dest(n)
	done := conv1x1PairVec(got0, got1, src, plane, lo, w0, w1)
	if HasAVX2() && n >= 8 && done != n {
		tb.Fatalf("%s: pair kernel computed %d of %d elements", name, done, n)
	}
	if done < n {
		conv1x1Pair(got0[done:], got1[done:], src, plane, lo+done, w0, w1)
	}
	want0, want1 := make([]float32, n), make([]float32, n)
	conv1x1Pair(want0, want1, src, plane, lo, w0, w1)
	sameSlice(tb, name+" pair row 0", got0, want0)
	sameSlice(tb, name+" pair row 1", got1, want1)
	checkCanaries(tb, name+" pair row 0", buf0)
	checkCanaries(tb, name+" pair row 1", buf1)

	buf0, got0 = dest(n)
	done = conv1x1RowVec(got0, src, plane, lo, w1)
	if done < n {
		conv1x1Row(got0[done:], src, plane, lo+done, w1)
	}
	want1 = make([]float32, n)
	conv1x1Row(want1, src, plane, lo, w1)
	sameSlice(tb, name+" row", got0, want1)
	checkCanaries(tb, name+" row", buf0)
}

func TestConv1x1KernelsMatchPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, every := range []int{0, 11} {
		for _, ps := range planeSizes {
			plane := ps.h * ps.w
			for _, c := range []int{1, 3, 4, 5, 13} {
				src := source(t, rng, c*plane, every)
				w0, w1 := source(t, rng, c, 2*every), source(t, rng, c, 2*every)
				// The whole plane, which ends at the end of the source's
				// allocation, and a window strictly inside it.
				checkConv1x1Kernels(t, fmt.Sprintf("plane %d c %d specials 1/%d", plane, c, every), src, plane, 0, plane, w0, w1)
				if plane > 12 {
					checkConv1x1Kernels(t, fmt.Sprintf("plane %d[3:%d] c %d specials 1/%d", plane, plane-2, c, every), src, plane, 3, plane-5, w0, w1)
				}
			}
		}
	}
}

// checkDepthwiseInterior runs the interior kernel on one h×w plane and
// compares every interior row with the portable loops; everything outside
// the interior rectangle must be left alone.
func checkDepthwiseInterior(tb testing.TB, name string, in []float32, h, w int, ker []float32, k, s int, bv float32) {
	tb.Helper()
	p := k / 2
	oh, ow := ConvOutSize(h, k, s, p), ConvOutSize(w, k, s, p)
	oyLo, oyHi := interiorRange(h, k, s, p, oh)
	oxLo, oxHi := interiorRange(w, k, s, p, ow)
	if oyLo >= oyHi || oxLo >= oxHi {
		return
	}
	rows, cols := oyHi-oyLo, oxHi-oxLo
	buf, got := dest(oh * ow)
	vec := dwInteriorVec(got[oyLo*ow+oxLo:], ow, in[(oyLo*s-p)*w+oxLo*s-p:], w, rows, cols, ker, k, k, s, bv)
	if !vec {
		if HasAVX2() && cols >= 8 {
			tb.Fatalf("%s: the interior kernel declined a %dx%d interior", name, rows, cols)
		}
		return
	}
	want := make([]float32, cols)
	for oy := 0; oy < oh; oy++ {
		row := got[oy*ow : (oy+1)*ow]
		for ox, v := range row {
			if inside := oy >= oyLo && oy < oyHi && ox >= oxLo && ox < oxHi; !inside && !isCanary(v) {
				tb.Fatalf("%s: wrote %v at (%d,%d), outside the interior [%d,%d)x[%d,%d)", name, v, oy, ox, oyLo, oyHi, oxLo, oxHi)
			}
		}
		if oy < oyLo || oy >= oyHi {
			continue
		}
		dwInterior(want, in[(oy*s-p)*w+oxLo*s-p:], w, ker, k, k, s, bv)
		sameSlice(tb, fmt.Sprintf("%s row %d", name, oy), row[oxLo:oxHi], want)
		if k == 3 {
			dwInterior3(want, in[(oy*s-p)*w+oxLo*s-p:], w, ker, s, bv)
			sameSlice(tb, fmt.Sprintf("%s row %d (unrolled)", name, oy), row[oxLo:oxHi], want)
		}
	}
	checkCanaries(tb, name, buf)
}

func TestDepthwiseInteriorMatchesPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	// Widths that leave interiors of 7 (no register), 8, 9, 15–17 and 39
	// columns at some kernel and stride; heights down to a single interior row.
	planes := []struct{ h, w int }{{3, 9}, {5, 10}, {7, 11}, {4, 17}, {9, 18}, {6, 19}, {12, 24}, {10, 34}, {8, 41}, {5, 80}}
	for _, every := range []int{0, 13} {
		for _, pl := range planes {
			for _, k := range []int{3, 5, 7} {
				for _, s := range []int{1, 2} {
					in := source(t, rng, pl.h*pl.w, every)
					ker := source(t, rng, k*k, 4*every)
					for _, bv := range []float32{0, rng.Float32()} {
						checkDepthwiseInterior(t, fmt.Sprintf("%dx%d k=%d s=%d bias=%v specials 1/%d", pl.h, pl.w, k, s, bv, every),
							in, pl.h, pl.w, ker, k, s, bv)
					}
				}
			}
		}
	}
}

// checkDepthwiseSides runs the side-column kernel on one h×w plane and
// compares the side columns of every interior row with dwBorder; everything
// else in the destination must be left alone.
func checkDepthwiseSides(tb testing.TB, name string, in []float32, h, w int, ker []float32, k, s int, bv float32) {
	tb.Helper()
	p := k / 2
	oh, ow := ConvOutSize(h, k, s, p), ConvOutSize(w, k, s, p)
	oyLo, oyHi := interiorRange(h, k, s, p, oh)
	oxLo, oxHi := interiorRange(w, k, s, p, ow)
	if oyLo >= oyHi || oxLo >= oxHi {
		return
	}
	buf, got := dest(oh * ow)
	if !dwSidesVec(got, ow, in, w, ker, k, k, s, p, oyLo, oyHi, oxLo, oxHi, bv) {
		if HasAVX2() && oyHi-oyLo >= 8 && w >= 8 {
			tb.Fatalf("%s: the side kernel declined %d interior rows of a %d-wide plane", name, oyHi-oyLo, w)
		}
		return
	}
	want := make([]float32, ow)
	for oy := 0; oy < oh; oy++ {
		row := got[oy*ow : (oy+1)*ow]
		interior := oy >= oyLo && oy < oyHi
		for ox, v := range row {
			if side := interior && (ox < oxLo || ox >= oxHi); !side && !isCanary(v) {
				tb.Fatalf("%s: wrote %v at (%d,%d), not a side column [0,%d) or [%d,%d) of rows [%d,%d)", name, v, oy, ox, oxLo, oxHi, ow, oyLo, oyHi)
			}
		}
		if !interior {
			continue
		}
		dwBorder(want, 0, oxLo, in, h, w, ker, k, k, oy, s, p, bv)
		dwBorder(want, oxHi, ow, in, h, w, ker, k, k, oy, s, p, bv)
		sameSlice(tb, fmt.Sprintf("%s row %d left", name, oy), row[:oxLo], want[:oxLo])
		sameSlice(tb, fmt.Sprintf("%s row %d right", name, oy), row[oxHi:], want[oxHi:])
	}
	checkCanaries(tb, name, buf)
}

func TestDepthwiseSidesMatchPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	// Interior rows from 7 (declined) through 8, 9 and 15–17 (the last eight
	// overlap the ones before) to 40; widths from one block (left and right
	// blocks the same eight columns) upward, odd and even.
	planes := []struct{ h, w int }{{9, 8}, {10, 10}, {11, 9}, {12, 24}, {14, 8}, {17, 11}, {19, 33}, {25, 12}, {36, 17}, {40, 40}, {20, 70}}
	for _, every := range []int{0, 13} {
		for _, pl := range planes {
			for _, k := range []int{3, 5, 7} {
				for _, s := range []int{1, 2} {
					in := source(t, rng, pl.h*pl.w, every)
					ker := source(t, rng, k*k, 4*every)
					for _, bv := range []float32{0, rng.Float32()} {
						checkDepthwiseSides(t, fmt.Sprintf("%dx%d k=%d s=%d bias=%v specials 1/%d", pl.h, pl.w, k, s, bv, every),
							in, pl.h, pl.w, ker, k, s, bv)
					}
				}
			}
		}
	}
}

// checkDotRows runs the dot-product kernel for cols rows of b (bstride apart)
// against a and holds it, carried to the end by dotRows, to dotRows alone.
func checkDotRows(tb testing.TB, name string, a, b []float32, bstride, cols int) {
	tb.Helper()
	buf, got := dest(cols)
	clear(got) // MatMulTransB's sums start in a fresh tensor
	done, terms := dotRowsVec(got, a, b, bstride)
	if HasAVX2() && cols >= 8 && len(a) >= 8 && (done != min(cols&^7, 16) || terms != len(a)&^7) {
		tb.Fatalf("%s: the kernel took %d columns and %d terms of %d and %d", name, done, terms, cols, len(a))
	}
	dotRows(got[:done], a, b, bstride, terms)
	if done < cols {
		dotRows(got[done:], a, b[done*bstride:], bstride, 0)
	}
	want := make([]float32, cols)
	dotRows(want, a, b, bstride, 0)
	sameSlice(tb, name, got, want)
	checkCanaries(tb, name, buf)
}

// checkSumRows holds the row-sum kernel, finished by the plain loop, to the
// plain loop over eight rows of n elements, stride apart.
func checkSumRows(tb testing.TB, name string, x []float32, stride, n int) {
	tb.Helper()
	buf, got := dest(8)
	clear(got)
	done := sumRowsVec(got, x, stride, n)
	if HasAVX2() && done != n&^7 {
		tb.Fatalf("%s: the kernel summed %d of %d elements", name, done, n)
	}
	want := make([]float32, 8)
	for j := range want {
		for _, v := range x[j*stride+done:][:n-done] {
			got[j] += v
		}
		for _, v := range x[j*stride:][:n] {
			want[j] += v
		}
	}
	sameSlice(tb, name, got, want)
	checkCanaries(tb, name, buf)
}

func TestRowReductionsMatchPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	for _, every := range []int{0, 9} {
		for k := 1; k <= 70; k += 1 + k/12 {
			for _, pad := range []int{0, 5} { // a weight row wider than k
				bstride := k + pad
				for _, cols := range []int{1, 3, 7, 8, 9, 15, 16, 17, 23, 37} {
					// b ends with its last row's k-th element, not with a
					// whole stride: the view of a wider weight's last rows.
					b := source(t, rng, (cols-1)*bstride+k, every)
					a := source(t, rng, k, 2*every)
					checkDotRows(t, fmt.Sprintf("k=%d stride=%d cols=%d specials 1/%d", k, bstride, cols, every), a, b, bstride, cols)
				}
				x := source(t, rng, 7*bstride+k, every)
				checkSumRows(t, fmt.Sprintf("n=%d stride=%d specials 1/%d", k, bstride, every), x, bstride, k)
			}
		}
	}
}

// bilinearRef is BilinearResize as it stood before the per-axis tables: every
// index and weight worked out again at every pixel.
func bilinearRef(x *Tensor, outH, outW int) *Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	out := New(n, c, outH, outW)
	sy, sx := float32(h)/float32(outH), float32(w)/float32(outW)
	for r := 0; r < n*c; r++ {
		src, dst := x.Data[r*h*w:][:h*w], out.Data[r*outH*outW:][:outH*outW]
		for oy := 0; oy < outH; oy++ {
			fy := (float32(oy)+0.5)*sy - 0.5
			y0 := int(fy)
			if fy < 0 {
				fy, y0 = 0, 0
			}
			y1 := min(y0+1, h-1)
			wy := fy - float32(y0)
			for ox := 0; ox < outW; ox++ {
				fx := (float32(ox)+0.5)*sx - 0.5
				x0 := int(fx)
				if fx < 0 {
					fx, x0 = 0, 0
				}
				x1 := min(x0+1, w-1)
				wx := fx - float32(x0)
				v00, v01, v10, v11 := src[y0*w+x0], src[y0*w+x1], src[y1*w+x0], src[y1*w+x1]
				top := v00 + (v01-v00)*wx
				bot := v10 + (v11-v10)*wx
				dst[oy*outW+ox] = top + (bot-top)*wy
			}
		}
	}
	return out
}

// checkResizeRow holds the gathering row kernel to resizeRow on one pair of
// input rows resized to outW.
func checkResizeRow(tb testing.TB, name string, r0, r1 []float32, outW int, wy float32) {
	tb.Helper()
	var axes ResizeAxes
	cols, _ := axes.tables(1, len(r0), 1, outW)
	buf, got := dest(outW)
	if !resizeRowVec(got, r0, r1, cols, wy) {
		if HasAVX2() && outW >= 8 {
			tb.Fatalf("%s: the row kernel declined %d outputs", name, outW)
		}
		return
	}
	want := make([]float32, outW)
	resizeRow(want, r0, r1, cols, wy)
	sameSlice(tb, name, got, want)
	checkCanaries(tb, name, buf)
}

// checkStride2 holds the de-interleaving copy, finished by the plain loop, to
// the plain loop; src ends with the last element kept.
func checkStride2(tb testing.TB, name string, src []float32) {
	tb.Helper()
	n := (len(src) + 1) / 2
	buf, got := dest(n)
	done := stride2Vec(got, src)
	if HasAVX2() && done != (n-1)&^7 {
		tb.Fatalf("%s: the kernel copied %d of %d elements", name, done, n)
	}
	want := make([]float32, n)
	for i := range want {
		want[i] = src[2*i]
		if i >= done {
			got[i] = src[2*i]
		}
	}
	sameSlice(tb, name, got, want)
	checkCanaries(tb, name, buf)
}

func TestResizeAndStrideKernelsMatchPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	for _, every := range []int{0, 7} {
		for _, w := range []int{1, 2, 5, 8, 24, 32, 33, 70} {
			for _, outW := range []int{1, 7, 8, 9, 15, 16, 17, 24, 32, 40, 70} {
				r0, r1 := source(t, rng, w, every), source(t, rng, w, every)
				for _, wy := range []float32{0, 0.25, rng.Float32()} {
					checkResizeRow(t, fmt.Sprintf("%d->%d wy=%v specials 1/%d", w, outW, wy, every), r0, r1, outW, wy)
				}
			}
		}
		for n := 1; n <= 70; n++ {
			checkStride2(t, fmt.Sprintf("n=%d specials 1/%d", n, every), source(t, rng, 2*n-1, every))
		}
	}
}

func TestMaxAbsMatchesPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	fill := func(x []float32, v float32) []float32 {
		for i := range x {
			x[i] = v
		}
		return x
	}
	// The last length takes more than one bounded assembly call.
	for _, n := range []int{0, 1, 7, 8, 9, 31, 32, 33, 100, 1025, 1<<16 + 9} {
		cases := map[string][]float32{
			"random":   source(t, rng, n, 0),
			"specials": source(t, rng, n, 5),
			"all NaN":  fill(source(t, rng, n, 0), float32(math.NaN())),
			"all -0":   fill(source(t, rng, n, 0), float32(math.Copysign(0, -1))),
			"all -Inf": fill(source(t, rng, n, 0), float32(math.Inf(-1))),
		}
		if n > 0 {
			// The largest magnitude negative, and last: in the tail when
			// there is one.
			x := source(t, rng, n, 0)
			x[n-1] = -7
			cases["largest last"] = x
		}
		// The maximum with nothing but NaNs after it, at a position that
		// lands in each accumulator of the kernel in turn: a comparison that
		// let a NaN displace the running maximum would lose it.
		for k := n / 3; k < n/3+32 && k < n; k += 8 {
			x := source(t, rng, n, 0)
			x[k] = 7
			fill(x[k+1:], float32(math.NaN()))
			cases[fmt.Sprintf("NaNs after the maximum at %d", k)] = x
		}
		for name, x := range cases {
			got, want := FromSlice(x, n).MaxAbs(), maxAbs(0, x)
			if math.Float32bits(got) != math.Float32bits(want) {
				t.Fatalf("n=%d %s: MaxAbs %v (%#08x), portable %v (%#08x)", n, name, got, math.Float32bits(got), want, math.Float32bits(want))
			}
		}
	}
}

// fakeQuantCases are tensors whose round trip leaves the beaten path: no
// magnitude at all, a NaN or an infinity among ordinary values (an infinite
// maximum makes the scale infinite and every product 0·Inf), only NaNs, a
// maximum so small the scale underflows to zero, and values that sit exactly
// on a rounding boundary.
func fakeQuantCases(tb testing.TB, rng *rand.Rand, n int) map[string][]float32 {
	set := func(x []float32, at int, v float32) []float32 {
		if len(x) > 0 {
			x[at%len(x)] = v
		}
		return x
	}
	all := func(v float32) []float32 {
		x := source(tb, rng, n, 0)
		for i := range x {
			x[i] = v
		}
		return x
	}
	halves := source(tb, rng, n, 0)
	for i := range halves {
		halves[i] = (float32(i%255) - 127 + 0.5) / 127
	}
	set(halves, 0, 1)
	tiny := source(tb, rng, n, 0)
	for i := range tiny {
		tiny[i] *= math.SmallestNonzeroFloat32 * 3
	}
	return map[string][]float32{
		"random":       source(tb, rng, n, 0),
		"specials":     source(tb, rng, n, 7),
		"all zero":     all(0),
		"all -0":       all(float32(math.Copysign(0, -1))),
		"all NaN":      all(float32(math.NaN())),
		"one NaN":      set(source(tb, rng, n, 0), n/2, float32(math.NaN())),
		"one Inf":      set(source(tb, rng, n, 0), n/3, float32(math.Inf(1))),
		"one -Inf":     set(source(tb, rng, n, 0), n-1, float32(math.Inf(-1))),
		"NaN and Inf":  set(set(source(tb, rng, n, 0), 1, float32(math.NaN())), 0, float32(math.Inf(-1))),
		"half-way":     halves,
		"denormal max": tiny,
	}
}

func TestFakeQuantizeMatchesQuantizeDequantize(t *testing.T) {
	atParallelism(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(44))
		for _, n := range []int{1, 7, 8, 9, 100, 1025, fakeQuantBlock + 3, 5*fakeQuantBlock + 13} {
			for name, x := range fakeQuantCases(t, rng, n) {
				for _, bits := range []Bitwidth{Bits8, Bits16, Bits32} {
					in := FromSlice(x, n)
					got, want := FakeQuantize(in, bits), Quantize(in, bits).Dequantize()
					sameBits(t, fmt.Sprintf("n=%d %s at %d bits", n, name, bits), got, want)
					if len(got.Data) > 0 && &got.Data[0] == &x[0] {
						t.Fatalf("n=%d %s at %d bits: FakeQuantize returned its input", n, name, bits)
					}
				}
			}
		}
	})
}

// checkFakeQuantKernel compares the vector pass with the portable one at a
// given scale, destination canaried.
func checkFakeQuantKernel(tb testing.TB, name string, src []float32, inv, scale float32, bits Bitwidth) {
	tb.Helper()
	buf, got := dest(len(src))
	done := fakeQuantVec(got, src, inv, scale, bits)
	fakeQuantRange(got[done:], src[done:], inv, scale, bits)
	want := make([]float32, len(src))
	fakeQuantRange(want, src, inv, scale, bits)
	sameSlice(tb, name, got, want)
	checkCanaries(tb, name, buf)
}

func TestFakeQuantKernelMatchesPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for _, n := range []int{1, 7, 8, 9, 100, 1025} {
		for name, x := range fakeQuantCases(t, rng, n) {
			for _, bits := range []Bitwidth{Bits8, Bits16} {
				// The scale FakeQuantize would use, and scales it never
				// would: codes far out of range, an infinite inverse.
				m := maxAbs(0, x)
				for _, scale := range []float32{m / float32(bits.maxCode()), 1e-3, 0, float32(math.Inf(1))} {
					checkFakeQuantKernel(t, fmt.Sprintf("n=%d %s at %d bits, scale %v", n, name, bits, scale), x, 1/scale, scale, bits)
				}
			}
		}
	}
}

// conv2DRef is the sum DESIGN.md §4.6 specifies for a k×k convolution, as the
// im2col-and-matmul route Conv2D used to take computed it: every tap in
// (channel, ky, kx) order from zero, a tap in the padding multiplied in as a
// zero rather than skipped, the bias added last.
func conv2DRef(x, weight, bias *Tensor, o ConvOpts) *Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	outC, kh, kw := weight.Shape[0], weight.Shape[2], weight.Shape[3]
	s, p := max(o.Stride, 1), o.Padding
	oh, ow := ConvOutSize(h, kh, s, p), ConvOutSize(w, kw, s, p)
	out := New(n, outC, oh, ow)
	for b := 0; b < n; b++ {
		for oc := 0; oc < outC; oc++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					var acc float32
					for ch := 0; ch < c; ch++ {
						for ky := 0; ky < kh; ky++ {
							for kx := 0; kx < kw; kx++ {
								var v float32
								if iy, ix := oy*s-p+ky, ox*s-p+kx; iy >= 0 && iy < h && ix >= 0 && ix < w {
									v = x.Data[((b*c+ch)*h+iy)*w+ix]
								}
								acc += v * weight.Data[((oc*c+ch)*kh+ky)*kw+kx]
							}
						}
					}
					// The old route added a zero for a missing bias; Conv2D adds
					// nothing. A sum that starts from +0 is never −0, so the two
					// cannot differ, and this test holds them to it.
					var bv float32
					if bias != nil {
						bv = bias.Data[oc]
					}
					out.Data[((b*outC+oc)*oh+oy)*ow+ox] = acc + bv
				}
			}
		}
	}
	return out
}

// intoDest is a destination for an Into kernel, (n,c,h,w): full of canaries —
// NaNs, so a kernel that reads its destination or skips part of it shows —
// with more canaries either side for checkCanaries.
func intoDest(n, c, h, w int) (buf []float32, dst *Tensor) {
	buf, window := dest(n * c * h * w)
	return buf, FromSlice(window, n, c, h, w)
}

// sameInto holds an Into kernel to its allocating form: run on a poisoned,
// canaried destination it must leave the allocating form's bits and nothing
// outside the destination.
func sameInto(tb testing.TB, name string, want *Tensor, into func(dst *Tensor)) {
	tb.Helper()
	buf, dst := intoDest(want.Shape[0], want.Shape[1], want.Shape[2], want.Shape[3])
	into(dst)
	sameSlice(tb, name+" into a poisoned destination", dst.Data, want.Data)
	checkCanaries(tb, name, buf)
}

// TestKernelsCarrySpecialValues holds the public kernels, assembly and tails
// and border together, to the plain reference loops on inputs strewn with
// NaNs, infinities, signed zeros and denormals, with one worker and with four
// — and each kernel's Into form, on a destination full of NaNs, to the
// allocating form (the destination rule, conv.go). Every shape runs once
// without specials too: there every expected value is a number, so an element
// an Into kernel left unwritten cannot hide behind "a NaN matches any NaN".
func TestKernelsCarrySpecialValues(t *testing.T) {
	atParallelism(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(46))
		for _, every := range []int{17, 0} {
			for _, ps := range planeSizes {
				for _, d := range []struct{ n, c, outC, wRows, wCols int }{{1, 3, 5, 5, 3}, {3, 7, 2, 4, 9}, {1, 13, 11, 16, 24}} {
					x := FromSlice(source(t, rng, d.n*d.c*ps.h*ps.w, every), d.n, d.c, ps.h, ps.w)
					full := FromSlice(source(t, rng, d.wRows*d.wCols, 2*every), d.wRows, d.wCols, 1, 1)
					for _, bias := range []*Tensor{nil, randTensor(rng, d.wRows)} {
						name := fmt.Sprintf("Conv1x1 %dx%d %+v bias=%v specials 1/%d", ps.h, ps.w, d, bias != nil, every)
						got := Conv1x1(x, full, bias, d.outC)
						sameSlice(t, name, got.Data, conv1x1Ref(x, full.Data, d.wCols, d.outC, bias).Data)
						sameInto(t, name, got, func(dst *Tensor) { Conv1x1Into(dst, x, full, bias, d.outC) })
					}
				}
			}
			for _, pl := range []struct{ n, c, h, w int }{{1, 3, 2, 2}, {1, 2, 9, 10}, {3, 5, 12, 19}, {1, 70, 10, 24}, {2, 3, 3, 3}, {1, 2, 17, 8}, {2, 2, 24, 9}} {
				x := FromSlice(source(t, rng, pl.n*pl.c*pl.h*pl.w, every), pl.n, pl.c, pl.h, pl.w)
				for _, k := range []int{3, 5, 7} {
					wt := FromSlice(source(t, rng, pl.c*k*k, 2*every), pl.c, 1, k, k)
					for _, stride := range []int{1, 2} {
						o := ConvOpts{Stride: stride, Padding: k / 2}
						name := fmt.Sprintf("DepthwiseConv2D %+v k=%d s=%d specials 1/%d", pl, k, stride, every)
						bias := randTensor(rng, pl.c)
						got := DepthwiseConv2D(x, wt, bias, o)
						sameSlice(t, name, got.Data, depthwiseRef(x, wt, bias, o).Data)
						sameInto(t, name, got, func(dst *Tensor) { DepthwiseConv2DInto(dst, x, wt, bias, o) })
					}
				}
			}
			// The k×k convolution: planar columns, then the 1×1 kernel. Odd
			// sizes, so strides leave a remainder and every tap meets the
			// padding somewhere; the columns go in poisoned as well.
			for _, d := range []struct{ n, c, h, w, outC int }{{1, 3, 9, 11, 4}, {3, 2, 13, 7, 5}, {1, 1, 5, 5, 1}, {1, 2, 1, 2, 3}, {1, 3, 33, 35, 16}} {
				x := FromSlice(source(t, rng, d.n*d.c*d.h*d.w, every), d.n, d.c, d.h, d.w)
				for _, k := range []int{3, 5, 7} {
					wt := FromSlice(source(t, rng, d.outC*d.c*k*k, 2*every), d.outC, d.c, k, k)
					for _, stride := range []int{1, 2} {
						for _, bias := range []*Tensor{nil, randTensor(rng, d.outC)} {
							o := ConvOpts{Stride: stride, Padding: k / 2}
							name := fmt.Sprintf("Conv2D %+v k=%d s=%d bias=%v specials 1/%d", d, k, stride, bias != nil, every)
							got := Conv2D(x, wt, bias, o)
							sameSlice(t, name, got.Data, conv2DRef(x, wt, bias, o).Data)
							sameInto(t, name, got, func(dst *Tensor) {
								cbuf, cols := intoDest(d.n, d.c*k*k, dst.Shape[2], dst.Shape[3])
								Conv2DInto(dst, cols, x, wt, bias, o)
								checkCanaries(t, name+" columns", cbuf)
							})
						}
					}
				}
			}
			// The row reductions: the classifier and SE products against a
			// view of a wider, taller weight, and the plane averages.
			for _, d := range [][3]int{{1, 7, 3}, {2, 36, 9}, {3, 48, 37}, {1, 61, 16}, {8, 12, 4}} {
				a := FromSlice(source(t, rng, d[0]*d[1], every), d[0], d[1])
				full := FromSlice(source(t, rng, (d[2]+2)*(d[1]+5), 2*every), d[2]+2, d[1]+5)
				view := New(d[2], d[1])
				for j := 0; j < d[2]; j++ {
					copy(view.Data[j*d[1]:(j+1)*d[1]], full.Data[j*(d[1]+5):])
				}
				sameSlice(t, fmt.Sprintf("MatMulTransBView %v specials 1/%d", d, every), MatMulTransBView(a, full, d[2]).Data, matMulTransBRef(a, view).Data)
			}
			for _, d := range [][4]int{{1, 3, 1, 1}, {2, 5, 3, 3}, {3, 36, 3, 3}, {1, 37, 5, 7}, {8, 12, 6, 6}, {1, 70, 10, 24}} {
				x := FromSlice(source(t, rng, d[0]*d[1]*d[2]*d[3], every), d[0], d[1], d[2], d[3])
				sameSlice(t, fmt.Sprintf("AvgPoolGlobal %v specials 1/%d", d, every), AvgPoolGlobal(x).Data, avgPoolRef(x).Data)
			}
			// The copies and the elementwise passes.
			for _, d := range []struct{ n, c, h, w, oh, ow int }{{1, 3, 9, 11, 5, 7}, {2, 1, 6, 6, 6, 6}, {1, 2, 7, 5, 16, 12}, {8, 3, 24, 24, 32, 32}, {2, 3, 32, 32, 24, 24}, {1, 1, 1, 1, 9, 9}, {1, 2, 33, 70, 21, 37}} {
				x := FromSlice(source(t, rng, d.n*d.c*d.h*d.w, every), d.n, d.c, d.h, d.w)
				name := fmt.Sprintf("BilinearResize %+v specials 1/%d", d, every)
				if d.oh != d.h || d.ow != d.w { // at x's own size it is a copy
					sameSlice(t, name, BilinearResize(x, d.oh, d.ow).Data, bilinearRef(x, d.oh, d.ow).Data)
				}
				sameInto(t, name, BilinearResize(x, d.oh, d.ow), func(dst *Tensor) { BilinearResizeInto(dst, x, nil) })
				for _, bits := range []Bitwidth{Bits8, Bits16, Bits32} {
					name := fmt.Sprintf("FakeQuantize %+v at %d bits specials 1/%d", d, bits, every)
					sameInto(t, name, FakeQuantize(x, bits), func(dst *Tensor) { FakeQuantizeInto(dst, x, bits) })
					q := Quantize(x, bits)
					sameInto(t, "De"+name[4:], q.Dequantize(), q.DequantizeInto)
				}
			}
			zeros := New(1, 2, 3, 3) // no magnitude: every code is zero, and must be written
			sameInto(t, "FakeQuantize of zeros", FakeQuantize(zeros, Bits8), func(dst *Tensor) { FakeQuantizeInto(dst, zeros, Bits8) })
		}
	})
}

// FuzzKernelsMatchPortable draws a kernel, its shape and its contents from
// the fuzz input and holds the vector kernel to the portable loop. Contents
// are raw bit patterns, so every NaN payload, denormal and infinity is fair.
func FuzzKernelsMatchPortable(f *testing.F) {
	f.Add([]byte{0, 9, 3, 1, 0x00, 0x00, 0x80, 0x3f, 0x00, 0x00, 0xc0, 0x7f})
	f.Add([]byte{1, 17, 5, 3, 1, 0xff, 0xff, 0x7f, 0x7f, 0x01, 0x00, 0x00, 0x80})
	f.Add([]byte{2, 40, 0, 0, 0x00, 0x00, 0x80, 0xff, 0xab, 0xcd, 0xef, 0x7f})
	f.Add([]byte{3, 33, 8, 0, 0x00, 0x00, 0xfe, 0x42, 0x00, 0x00, 0x00, 0x3f})
	f.Add([]byte{4, 12, 6, 4, 0x00, 0x00, 0x80, 0x7f, 0x00, 0x00, 0x00, 0x80, 0x00, 0x00, 0x80, 0x3f})
	f.Add([]byte{5, 20, 11, 4, 0x00, 0x00, 0x80, 0x7f, 0x00, 0x00, 0x00, 0x80, 0x00, 0x00, 0x80, 0x3f})
	f.Add([]byte{6, 36, 9, 2, 0x00, 0x00, 0xc0, 0x7f, 0x00, 0x00, 0x80, 0x3f, 0x01, 0x00, 0x00, 0x00})
	f.Add([]byte{7, 25, 3, 0, 0xff, 0xff, 0x7f, 0x7f, 0x00, 0x00, 0x80, 0xff})
	f.Add([]byte{8, 24, 32, 1, 0x00, 0x00, 0x80, 0x7f, 0x00, 0x00, 0x00, 0x3f})
	f.Add([]byte{9, 17, 0, 0, 0x00, 0x00, 0x80, 0x3f, 0x00, 0x00, 0xc0, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		// Ten kernels, 0–4 at the numbers they had when there were five (so
		// the corpus keeps its meaning), 5–9 drawn twice as often.
		kernel, a, b, c := int(data[0])%15, int(data[1]), int(data[2]), int(data[3])
		if kernel >= 10 {
			kernel -= 5
		}
		bits := data[4:]
		next := 0
		// fill draws n values from the input's bit patterns, round and round.
		fill := func(n int) []float32 {
			x := source(t, rand.New(rand.NewSource(1)), n, 0)
			for i := range x {
				var u uint32
				for sh := 0; sh < 32 && len(bits) > 0; sh += 8 {
					u |= uint32(bits[next%len(bits)]) << sh
					next++
				}
				x[i] = math.Float32frombits(u)
			}
			return x
		}
		switch kernel {
		case 0:
			plane, ch := 1+a+256*(b%5), 1+c%9
			lo := b % min(plane, 7)
			checkConv1x1Kernels(t, "fuzz", fill(ch*plane), plane, lo, plane-lo, fill(ch), fill(ch))
		case 1:
			k, s := 3+2*(c%3), 1+c/3%2
			h, w := k+b%6, k+a%90
			checkDepthwiseInterior(t, "fuzz", fill(h*w), h, w, fill(k*k), k, s, fill(1)[0])
		case 2:
			x := fill(a + 256*b)
			if got, want := FromSlice(x, len(x)).MaxAbs(), maxAbs(0, x); math.Float32bits(got) != math.Float32bits(want) {
				t.Fatalf("MaxAbs %v (%#08x), portable %v (%#08x)", got, math.Float32bits(got), want, math.Float32bits(want))
			}
		case 3:
			x := fill(1 + a + 256*(b%8))
			bw := []Bitwidth{Bits8, Bits16}[c%2]
			sameBits(t, "FakeQuantize", FakeQuantize(FromSlice(x, len(x)), bw), Quantize(FromSlice(x, len(x)), bw).Dequantize())
			scale := fill(1)[0]
			checkFakeQuantKernel(t, "fuzz", x, 1/scale, scale, bw)
		case 4:
			// The k×k convolution, columns and all, against the plain sum, and
			// its Into form on poisoned memory.
			k, s, ch := 3+2*(c%3), 1+c/3%2, 1+c/6%3
			h, w := 1+b%9, 1+a%40
			x, wt := FromSlice(fill(ch*h*w), 1, ch, h, w), FromSlice(fill(2*ch*k*k), 2, ch, k, k)
			bias := FromSlice(fill(2), 2)
			o := ConvOpts{Stride: s, Padding: k / 2}
			got := Conv2D(x, wt, bias, o)
			sameSlice(t, "Conv2D", got.Data, conv2DRef(x, wt, bias, o).Data)
			sameInto(t, "Conv2D", got, func(dst *Tensor) {
				_, cols := intoDest(1, ch*k*k, dst.Shape[2], dst.Shape[3])
				Conv2DInto(dst, cols, x, wt, bias, o)
			})
		case 5:
			k, s := 3+2*(c%3), 1+c/3%2
			h, w := k+b%40, k+a%40
			checkDepthwiseSides(t, "fuzz", fill(h*w), h, w, fill(k*k), k, s, fill(1)[0])
		case 6:
			k, cols, pad := 1+a%70, 1+b%37, c%7
			checkDotRows(t, "fuzz", fill(k), fill((cols-1)*(k+pad)+k), k+pad, cols)
		case 7:
			n, pad := 1+a%70, c%7
			checkSumRows(t, "fuzz", fill(7*(n+pad)+n), n+pad, n)
		case 8:
			w, outW := 1+a%70, 1+b%70
			checkResizeRow(t, "fuzz", fill(w), fill(w), outW, fill(1)[0])
		case 9:
			checkStride2(t, "fuzz", fill(1+2*(a%70)))
		}
	})
}

// The two benchmarks run bench/layers.go's shapes and report the number it
// reports (tensor.conv1x1_gflops, tensor.dwconv_gflops), once as built and
// once with the portable loops doing all the work, so the ratio between the
// assembly and its fallback is one command.

func benchKernel(b *testing.B, flops float64, f func()) {
	// go test's -cpu sets GOMAXPROCS per run; the worker count was read at init.
	defer SetParallelism(Parallelism())
	SetParallelism(runtime.GOMAXPROCS(0))
	run := func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f()
		}
		b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
	}
	b.Run("as-built", run)
	b.Run("portable", func(b *testing.B) { withoutAssembly(func() { run(b) }) })
}

func BenchmarkConv1x1(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randTensor(rng, 1, 16, 80, 80)
	w := randTensor(rng, 48, 16, 1, 1)
	benchKernel(b, 2.0*48*16*80*80, func() { Conv2D(x, w, nil, ConvOpts{Stride: 1}) })
}

func BenchmarkDepthwise(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randTensor(rng, 1, 48, 80, 80)
	w := randTensor(rng, 48, 1, 3, 3)
	benchKernel(b, 2.0*48*9*40*40, func() { DepthwiseConv2D(x, w, nil, ConvOpts{Stride: 2, Padding: 1}) })
}
