//go:build !amd64 || purego

package nn

import "murmuration/internal/tensor"

// bnApplyVec normalizes nothing without the assembly: bnApply does the row.
func bnApplyVec(row []float32, mean, invStd, g, b float32, hswish bool) int { return 0 }

// batchStatsVec takes no channel without the assembly: batchStats4 does them.
func batchStatsVec(x *tensor.Tensor, c0, k int, mean, variance *[statsWidth]float32) int { return 0 }

// scaleVec scales nothing without the assembly: the caller's loop does the row.
func scaleVec(row []float32, g float32) int { return 0 }
