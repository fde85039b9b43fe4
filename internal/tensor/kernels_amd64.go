//go:build !purego

package tensor

// useAVX2 selects the assembly kernels of kernels_amd64.s: set once, from
// CPUID, before anything can run them. Without AVX2 — or on another
// architecture, or under the purego build tag — every *Vec function below
// reports that it did nothing and the portable Go loops do all the work; they
// also finish whatever tail a kernel leaves, so there is one implementation
// per path and the assembly is checked against it bit for bit
// (kernels_test.go).
var useAVX2 = cpuHasAVX2()

// HasAVX2 reports whether this process runs the AVX2 kernels. internal/nn
// asks, so that its one assembly loop follows the same selection; nothing
// can set it.
func HasAVX2() bool { return useAVX2 }

func cpuHasAVX2() bool

//go:noescape
func conv1x1PairAVX2(d0, d1 *float32, n int, x *float32, stride int, w0, w1 *float32, c int)

//go:noescape
func conv1x1RowAVX2(d0 *float32, n int, x *float32, stride int, w0 *float32, c int)

//go:noescape
func dwInteriorS1AVX2(dst *float32, dstStride int, in *float32, inStride int, rows, cols int, ker *float32, kh, kw int, bias float32)

//go:noescape
func dwInteriorS2AVX2(dst *float32, dstStride int, in *float32, inStride int, rows, cols int, ker *float32, kh, kw int, bias float32)

//go:noescape
func dwInterior3S1AVX2(dst *float32, dstStride int, in *float32, inStride int, rows, cols int, ker *float32, bias float32)

//go:noescape
func dwInterior3S2AVX2(dst *float32, dstStride int, in *float32, inStride int, rows, cols int, ker *float32, bias float32)

//go:noescape
func maxAbsAVX2(x *float32, n int) float32

//go:noescape
func fakeQuantAVX2(dst, src *float32, n int, inv, scale, qmax float32)

// The assembly indexes without bounds checks, so each wrapper first touches
// the last element the kernel will: a caller's mistake is an index panic
// here, not a stray read or write there.

// conv1x1PairVec is conv1x1Pair for rows of at least one register: it returns
// how many leading elements of d0 and d1 it computed — all of them or none —
// and leaves the rest to conv1x1Pair.
func conv1x1PairVec(d0, d1, src []float32, plane, lo int, w0, w1 []float32) int {
	n, c := len(d0), len(w0)
	if !useAVX2 || n < 8 || c == 0 {
		return 0
	}
	_, _, _ = d1[n-1], w1[c-1], src[(c-1)*plane+lo+n-1]
	conv1x1PairAVX2(&d0[0], &d1[0], n, &src[lo], plane, &w0[0], &w1[0], c)
	return n
}

// conv1x1RowVec is conv1x1PairVec for the last output row of an odd count.
func conv1x1RowVec(d0, src []float32, plane, lo int, w0 []float32) int {
	n, c := len(d0), len(w0)
	if !useAVX2 || n < 8 || c == 0 {
		return 0
	}
	_ = src[(c-1)*plane+lo+n-1]
	conv1x1RowAVX2(&d0[0], n, &src[lo], plane, &w0[0], c)
	return n
}

// dwInteriorVec computes the rows×cols interior rectangle whose first output
// is dst[0] and whose first tap is in[0] — dwInterior over each row — and
// reports whether it did: all of the rectangle or none of it.
func dwInteriorVec(dst []float32, ow int, in []float32, w, rows, cols int, ker []float32, kh, kw, s int, bv float32) bool {
	if !useAVX2 || rows < 1 || cols < 8 || s > 2 || kw < s {
		return false
	}
	_, _, _ = dst[(rows-1)*ow+cols-1], in[((rows-1)*s+kh-1)*w+(cols-1)*s+kw-1], ker[kh*kw-1]
	switch k3 := kh == 3 && kw == 3; {
	case k3 && s == 1:
		dwInterior3S1AVX2(&dst[0], ow, &in[0], w, rows, cols, &ker[0], bv)
	case k3:
		dwInterior3S2AVX2(&dst[0], ow, &in[0], w, rows, cols, &ker[0], bv)
	case s == 1:
		dwInteriorS1AVX2(&dst[0], ow, &in[0], w, rows, cols, &ker[0], kh, kw, bv)
	default:
		dwInteriorS2AVX2(&dst[0], ow, &in[0], w, rows, cols, &ker[0], kh, kw, bv)
	}
	return true
}

// maxAbsChunk bounds one assembly call: assembly is not preempted
// asynchronously, so no call runs for more than a few microseconds.
const maxAbsChunk = 1 << 16

// maxAbsVec returns the largest |x[i]| over the leading whole registers of x
// and how many elements that covered.
func maxAbsVec(x []float32) (m float32, n int) {
	if !useAVX2 {
		return 0, 0
	}
	for len(x)-n >= 8 {
		k := min((len(x)-n)&^7, maxAbsChunk)
		m = max(m, maxAbsAVX2(&x[n], k))
		n += k
	}
	return m, n
}

// fakeQuantVec is fakeQuantRange for the leading whole registers of src; it
// returns how many elements it wrote.
func fakeQuantVec(dst, src []float32, inv, scale float32, bits Bitwidth) int {
	n := len(src) &^ 7
	if !useAVX2 || n == 0 {
		return 0
	}
	_ = dst[n-1]
	fakeQuantAVX2(&dst[0], &src[0], n, inv, scale, float32(bits.maxCode()))
	return n
}
