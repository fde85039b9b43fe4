//go:build !unix

package testutil

import "testing"

// GuardedFloats returns n float32s that are the whole of their allocation;
// without mmap there is no guard page behind them.
func GuardedFloats(tb testing.TB, n int) []float32 { return make([]float32, n) }
