//go:build !purego

package tensor

// withoutAssembly runs f with the vector kernels declining all work, so a
// benchmark can time the portable loops on the same host in the same run.
// Not for tests that run in parallel: it writes the selectors.
func withoutAssembly(f func()) {
	defer func(avx2, avx512 bool) { useAVX2, useAVX512 = avx2, avx512 }(useAVX2, useAVX512)
	useAVX2, useAVX512 = false, false
	f()
}

// withoutAVX512 runs f with the 1×1 convolution's tile at its AVX2 width.
func withoutAVX512(f func()) {
	defer func(old bool) { useAVX512 = old }(useAVX512)
	useAVX512 = false
	f()
}

// hasAVX512 reports whether this process runs the 512-bit tile.
func hasAVX512() bool { return useAVX512 }
