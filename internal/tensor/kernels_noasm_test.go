//go:build !amd64 || purego

package tensor

// withoutAssembly runs f; this build has no assembly to switch off.
func withoutAssembly(f func()) { f() }
