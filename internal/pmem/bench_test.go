package pmem

import (
	"testing"

	"openembedding/internal/device"
)

// benchArena is an arena of the benchmark's record size (a 152-byte
// payload) with n records written once, so the timed loop touches mapped
// pages in a scattered order, as evictions do.
func benchArena(b *testing.B, n int) (*Arena, []uint32) {
	b.Helper()
	const payload = 152
	slots := 3 << 18
	a, err := NewArena(NewDevice(ArenaLayout(payload, slots), device.NewTimedPMem(nil)), payload, slots)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, payload)
	ids := make([]uint32, n)
	for i := range ids {
		if ids[i], err = a.Alloc(); err != nil {
			b.Fatal(err)
		}
		if err = a.WriteRecordVerified(ids[i], uint64(i), 1, buf); err != nil {
			b.Fatal(err)
		}
	}
	return a, ids
}

// BenchmarkWriteRecordVerified is the arena rung of the ladder: one
// verified record write per op, slots visited with a prime stride.
func BenchmarkWriteRecordVerified(b *testing.B) {
	const n = 1 << 15
	a, ids := benchArena(b, n)
	buf := make([]byte, a.PayloadBytes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i * 7919 % n
		if err := a.WriteRecordVerified(ids[j], uint64(j), 2, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadPayloadVerified is the read side of the arena rung: one
// CRC-verified payload read per op, same scattered order.
func BenchmarkReadPayloadVerified(b *testing.B) {
	const n = 1 << 15
	a, ids := benchArena(b, n)
	buf := make([]byte, a.PayloadBytes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i * 7919 % n
		if err := a.ReadPayloadVerified(ids[j], uint64(j), buf); err != nil {
			b.Fatal(err)
		}
	}
}
