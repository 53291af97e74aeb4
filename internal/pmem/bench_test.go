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
	dev := NewDevice(ArenaLayout(payload, slots), device.NewTimedPMem(nil))
	b.Cleanup(func() { dev.Close() })
	a, err := NewArena(dev, payload, slots)
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

// coldArena is a 2^18-record arena written once (a ~46 MB image and as much
// again durable, past every cache level) plus 64 lists of 4096 random records
// over it: what one shard pull reads and one maintenance round writes back in
// the cold engine workload.
func coldArena(b *testing.B) (*Arena, [][]ReadRec) {
	b.Helper()
	const n = 1 << 18
	a, ids := benchArena(b, n)
	x := uint64(20261004)
	lists := make([][]ReadRec, 64)
	for i := range lists {
		lists[i] = make([]ReadRec, 4096)
		for j := range lists[i] {
			x = x*6364136223846793005 + 1442695040888963407
			k := (x >> 33) % n
			lists[i][j] = ReadRec{Slot: ids[k], Key: k}
		}
	}
	return a, lists
}

// BenchmarkReadScattered is the batched twin of BenchmarkReadPayloadVerified:
// one scattered verified read of 4096 random records of a cold arena per op,
// reported per record. The single-record rung cannot overlap one record's
// misses with the next one's; this one does.
func BenchmarkReadScattered(b *testing.B) {
	a, lists := coldArena(b)
	var sum byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recs := lists[i%len(lists)]
		if n, err := a.ReadScatteredVerified(recs, func(_ int, p []byte) { sum += p[0] }); err != nil || n != len(recs) {
			b.Fatal(n, err)
		}
	}
	touchSink.Add(uint32(sum))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/4096, "ns/record")
}

// BenchmarkWriteBatch is the batched twin of BenchmarkWriteRecordVerified:
// one verified group commit of 4096 records to random slots of a cold arena
// per op, reported per record.
func BenchmarkWriteBatch(b *testing.B) {
	a, lists := coldArena(b)
	row := make([]float32, a.PayloadBytes()/4)
	recs := make([]WriteRec, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, r := range lists[i%len(lists)] {
			recs[j] = WriteRec{Slot: r.Slot, Key: r.Key, Version: int64(i) + 2, Row: row, Old: NoSlot}
		}
		if n, err := a.WriteBatch(recs, true); err != nil || n != len(recs) {
			b.Fatal(n, err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/4096, "ns/record")
}
