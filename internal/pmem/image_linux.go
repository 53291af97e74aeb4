package pmem

import (
	"fmt"
	"syscall"
)

// mapImage returns a zeroed image of n bytes in an anonymous private
// mapping, outside the Go heap: the kernel hands out zero pages on first
// touch, so the image costs the pages written, not n, the collector does not
// count it toward its goal, and nothing zeroes it up front. Huge pages are
// advised to keep the DIMM-sized range cheap in TLB entries; the kernel may
// ignore the advice.
func mapImage(n int) ([]byte, error) {
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANONYMOUS)
	if err != nil {
		return nil, fmt.Errorf("pmem: map %d bytes: %w", n, err)
	}
	syscall.Madvise(b, syscall.MADV_HUGEPAGE) //nolint:errcheck // advice only
	return b, nil
}

// unmapImage releases an image mapImage returned. Every slice into it is
// invalid afterwards: a load through one faults.
func unmapImage(b []byte) error {
	if err := syscall.Munmap(b); err != nil {
		return fmt.Errorf("pmem: unmap: %w", err)
	}
	return nil
}
