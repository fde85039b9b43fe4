//go:build !purego

package tensor

// withoutAssembly runs f with the vector kernels declining all work, so a
// benchmark can time the portable loops on the same host in the same run.
// Not for tests that run in parallel: it writes the selector.
func withoutAssembly(f func()) {
	defer func(old bool) { useAVX2 = old }(useAVX2)
	useAVX2 = false
	f()
}
