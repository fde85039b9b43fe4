//go:build !purego

package nn

import "murmuration/internal/tensor"

//go:noescape
func bnApplyAVX2(row *float32, n int, mean, invStd, gamma, beta float32, hswish bool)

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
