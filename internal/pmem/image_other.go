//go:build !linux

package pmem

// mapImage returns a zeroed image of n bytes. Off linux it lives in the Go
// heap, as it did before the image moved into a mapping.
func mapImage(n int) ([]byte, error) { return make([]byte, n), nil }

// unmapImage releases an image mapImage returned: the collector does it.
func unmapImage([]byte) error { return nil }
