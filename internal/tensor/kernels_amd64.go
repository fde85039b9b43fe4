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
func dwSidesAVX2(dst *float32, dstStride int, in *float32, lanePitch, rowPitch int, ker *float32, kh, kw int, cols *[3][4]int, ncols int, bias float32)

//go:noescape
func dotRowsAVX2(c, a *float32, blocks int, b *float32, bstride, chains int)

//go:noescape
func sumRowsAVX2(dst, x *float32, stride, blocks int)

//go:noescape
func resizeRowAVX2(dst *float32, n int, r0, r1 *float32, lo, hi *int32, frac *float32, wy float32)

//go:noescape
func stride2AVX2(dst, src *float32, n int)

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

// dwSidesVec computes the side columns [0, oxLo) and [oxHi, ow) of the
// interior rows [oyLo, oyHi) of one plane — dwBorder over each of them — and
// reports whether it did: all of them or none. It takes eight rows a call, the
// last eight overlapping the ones before when the count is not a multiple of
// eight (the same outputs computed the same way twice), and the taps of a
// side's columns from the eight input columns at that edge of the plane.
func dwSidesVec(out []float32, ow int, in []float32, w int, ker []float32, kh, kw, s, p, oyLo, oyHi, oxLo, oxHi int, bv float32) bool {
	if !useAVX2 || oyHi-oyLo < 8 || w < 8 || oxLo > 3 || ow-oxHi > 3 {
		return false
	}
	// side describes output columns [ox0, ox1) against input columns
	// [x0, x0+8): per column {ox, first block column, first kernel column,
	// taps}, or ok = false when a tap falls outside the block.
	side := func(ox0, ox1, x0 int) (cols [3][4]int, ok bool) {
		for ox := ox0; ox < ox1; ox++ {
			ix0 := ox*s - p
			kx0 := max(0, -ix0)
			kx1 := max(min(kw, w-ix0), kx0)
			if kx1 > kx0 && (ix0+kx0 < x0 || ix0+kx1 > x0+8) {
				return cols, false
			}
			cols[ox-ox0] = [4]int{ox, ix0 + kx0 - x0, kx0, kx1 - kx0}
		}
		return cols, true
	}
	left, okL := side(0, oxLo, 0)
	right, okR := side(oxHi, ow, w-8)
	if !okL || !okR {
		return false
	}
	_, _, _ = out[(oyHi-1)*ow+ow-1], in[((oyHi-1)*s-p+kh-1)*w+w-1], ker[kh*kw-1]
	for oy := oyLo; oy < oyHi; oy += 8 {
		oy = min(oy, oyHi-8)
		top := (oy*s - p) * w
		if oxLo > 0 {
			dwSidesAVX2(&out[oy*ow], ow, &in[top], s*w, w, &ker[0], kh, kw, &left, oxLo, bv)
		}
		if oxHi < ow {
			dwSidesAVX2(&out[oy*ow], ow, &in[top+w-8], s*w, w, &ker[0], kh, kw, &right, ow-oxHi, bv)
		}
	}
	return true
}

// dotRowsVec starts the dot products c[j] = Σ_p a[p]·b[j·bstride+p]: for the
// leading cols columns of c — whole groups of eight, at most sixteen — it
// stores the sum over the leading terms terms of a, whole blocks of eight, and
// returns both counts. dotRows carries every column on from there.
func dotRowsVec(c, a, b []float32, bstride int) (cols, terms int) {
	chains, blocks := min(len(c)/8, 2), len(a)/8
	if !useAVX2 || chains == 0 || blocks == 0 {
		return 0, 0
	}
	_ = b[(8*chains-1)*bstride+8*blocks-1]
	dotRowsAVX2(&c[0], &a[0], blocks, &b[0], bstride, chains)
	return 8 * chains, 8 * blocks
}

// sumRowsVec starts the sums of eight rows of x, stride apart and n long: it
// stores in dst the sum of each row's leading whole blocks of eight elements
// and returns how many elements that covered.
func sumRowsVec(dst, x []float32, stride, n int) int {
	blocks := n / 8
	if !useAVX2 || len(dst) != 8 || blocks == 0 {
		return 0
	}
	_ = x[7*stride+8*blocks-1]
	sumRowsAVX2(&dst[0], &x[0], stride, blocks)
	return 8 * blocks
}

// resizeRowVec is resizeRow for a row of at least one register: it reports
// whether it computed the row — all of it or none.
func resizeRowVec(dst, r0, r1 []float32, cols resizeTaps, wy float32) bool {
	n := len(dst)
	if !useAVX2 || n < 8 {
		return false
	}
	_, _, _ = cols.lo[n-1], cols.hi[n-1], cols.frac[n-1]
	resizeRowAVX2(&dst[0], n, &r0[0], &r1[0], &cols.lo[0], &cols.hi[0], &cols.frac[0], wy)
	return true
}

// stride2Vec copies src[2i] to dst[i] for the leading whole registers of dst
// that leave at least one element after them — the kernel reads one element
// past the last it keeps, and that one must be src's own — and returns how
// many elements it wrote.
func stride2Vec(dst, src []float32) int {
	n := (len(dst) - 1) &^ 7
	if !useAVX2 || n <= 0 {
		return 0
	}
	_ = src[2*n]
	stride2AVX2(&dst[0], &src[0], n)
	return n
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
