//go:build !purego

package nn

import "murmuration/internal/tensor"

//go:noescape
func bnApplyAVX2(row *float32, n int, mean, invStd, gamma, beta float32, hswish bool)

//go:noescape
func bnSumsAVX2(sums *[statsWidth]float64, rows *[4]*float32, stride, blocks, groups int)

//go:noescape
func bnSquaresAVX2(sums *[statsWidth]float64, rows *[4]*float32, stride, blocks, groups int, means *[4][8]float32)

//go:noescape
func scaleAVX2(row *float32, n int, gate float32)

// scaleVec multiplies the leading whole registers of row by g and returns how
// many elements that was.
func scaleVec(row []float32, g float32) int {
	n := len(row) &^ 7
	if !tensor.HasAVX2() || n == 0 {
		return 0
	}
	scaleAVX2(&row[0], n, g)
	return n
}

// bnApplyVec is bnApply for the leading whole registers of row; it returns
// how many elements it normalized, a multiple of 8. It follows
// internal/tensor's selection of the assembly kernels.
func bnApplyVec(row []float32, mean, invStd, g, b float32, hswish bool) int {
	n := len(row) &^ 7
	if !tensor.HasAVX2() || n == 0 {
		return 0
	}
	bnApplyAVX2(&row[0], n, mean, invStd, g, b, hswish)
	return n
}

// batchStatsVec is batchStats4 for the leading whole groups of four of the
// k ≤ statsWidth channels of x starting at c0, every group walked together:
// it returns how many channels it filled in, a multiple of 4. The kernels
// take the whole 8-element blocks of each plane and the Go loops below the
// elements after them, before the next image — each channel's sum keeps its
// one order. One call of a kernel covers one image's planes.
func batchStatsVec(x *tensor.Tensor, c0, k int, mean, variance *[statsWidth]float32) int {
	n, c := x.Shape[0], x.Shape[1]
	plane := x.Shape[2] * x.Shape[3]
	groups, blocks := k/4, plane/8
	if !tensor.HasAVX2() || groups == 0 || blocks == 0 {
		return 0
	}
	k = 4 * groups
	cnt := float64(n * plane)
	// image returns the k channel planes of image bi, the first of each group
	// in rows.
	var rows [4]*float32
	image := func(bi int) []float32 {
		img := x.Data[(bi*c+c0)*plane:][:k*plane]
		for g := 0; g < groups; g++ {
			rows[g] = &img[4*g*plane]
		}
		return img
	}
	var sums, squares [statsWidth]float64
	for bi := 0; bi < n; bi++ {
		img := image(bi)
		bnSumsAVX2(&sums, &rows, plane, blocks, groups)
		for j := 0; j < k; j++ {
			for _, v := range img[j*plane+8*blocks : (j+1)*plane] {
				sums[j] += float64(v)
			}
		}
	}
	var means [4][8]float32
	for j := 0; j < k; j++ {
		mean[j] = float32(sums[j] / cnt)
		means[j/4][j%4], means[j/4][j%4+4] = mean[j], mean[j]
	}
	for bi := 0; bi < n; bi++ {
		img := image(bi)
		bnSquaresAVX2(&squares, &rows, plane, blocks, groups, &means)
		for j := 0; j < k; j++ {
			m := mean[j]
			for _, v := range img[j*plane+8*blocks : (j+1)*plane] {
				d := float64(v - m)
				squares[j] += d * d
			}
		}
	}
	for j := 0; j < k; j++ {
		variance[j] = float32(squares[j] / cnt)
	}
	return k
}
