//go:build unix

package testutil

import (
	"syscall"
	"testing"
	"unsafe"
)

// GuardedFloats returns n float32s whose last element is the last four bytes
// before an inaccessible page: a kernel that reads or writes one element past
// the slice dies on the spot instead of touching a neighbouring allocation.
// The memory is released when the test ends.
func GuardedFloats(tb testing.TB, n int) []float32 {
	tb.Helper()
	if n == 0 {
		return nil
	}
	page := syscall.Getpagesize()
	size := (n*4 + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, size+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		tb.Fatalf("mmap: %v", err)
	}
	tb.Cleanup(func() { _ = syscall.Munmap(mem) }) // nothing to do about a failed unmap at test end
	if err := syscall.Mprotect(mem[size:], syscall.PROT_NONE); err != nil {
		tb.Fatalf("mprotect: %v", err)
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(&mem[size-n*4])), n)
}
