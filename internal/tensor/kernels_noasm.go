//go:build !amd64 || purego

package tensor

// Without the assembly (another architecture, or the purego build tag) the
// vector entry points compute nothing and the portable loops do all the work.

// HasAVX2 reports whether this process runs the AVX2 kernels: never, here.
func HasAVX2() bool { return false }

func conv1x1PairVec(d0, d1, src []float32, plane, lo int, w0, w1 []float32) int { return 0 }

func conv1x1RowVec(d0, src []float32, plane, lo int, w0 []float32) int { return 0 }

func dwInteriorVec(dst []float32, ow int, in []float32, w, rows, cols int, ker []float32, kh, kw, s int, bv float32) bool {
	return false
}

func dwSidesVec(out []float32, ow int, in []float32, w int, ker []float32, kh, kw, s, p, oyLo, oyHi, oxLo, oxHi int, bv float32) bool {
	return false
}

func dotRowsVec(c, a, b []float32, bstride int) (cols, terms int) { return 0, 0 }

func sumRowsVec(dst, x []float32, stride, n int) int { return 0 }

func resizeRowVec(dst, r0, r1 []float32, cols resizeTaps, wy float32) bool { return false }

func stride2Vec(dst, src []float32) int { return 0 }

func maxAbsVec(x []float32) (m float32, n int) { return 0, 0 }

func fakeQuantVec(dst, src []float32, inv, scale float32, bits Bitwidth) int { return 0 }
