//go:build !amd64 || purego

package nn

// bnApplyVec normalizes nothing without the assembly: bnApply does the row.
func bnApplyVec(row []float32, mean, invStd, g, b float32, hswish bool) int { return 0 }
