//go:build !amd64 || purego

package tensor

// withoutAssembly runs f; this build has no assembly to switch off.
func withoutAssembly(f func()) { f() }

// withoutAVX512 runs f; this build has no assembly to switch off.
func withoutAVX512(f func()) { f() }

// hasAVX512 reports whether this process runs the 512-bit tile: never, here.
func hasAVX512() bool { return false }
