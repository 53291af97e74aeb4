// Package device defines calibrated timing models for the storage and
// network hardware the paper evaluates on: DRAM, Intel Optane PMem, flash
// SSD (Table I) and the 30 Gb cloud intranet.
//
// A Model converts an access size into a virtual-time cost
// (latency + bytes/bandwidth). Engines charge these costs to a
// simclock.Meter; the epoch simulator turns the charged totals into phase
// times. The default constants are the paper's own measurements (Table I),
// which is what makes the reproduction's relative shapes trustworthy even
// though no physical PMem DIMM is present.
package device

import (
	"time"

	"openembedding/internal/simclock"
)

// Model is the timing model of one device: fixed per-access latency plus a
// bandwidth term proportional to the transfer size.
type Model struct {
	// Name identifies the device in reports ("DRAM", "PMem", "FlashSSD").
	Name string
	// ReadLatency is the fixed cost of one read access.
	ReadLatency time.Duration
	// WriteLatency is the fixed cost of one write access.
	WriteLatency time.Duration
	// ReadBandwidth is the sustained read rate in bytes per second.
	ReadBandwidth float64
	// WriteBandwidth is the sustained write rate in bytes per second.
	WriteBandwidth float64
}

const gib = 1024 * 1024 * 1024

// DRAM returns the paper's Table I DRAM model:
// 115/79 GB/s read/write bandwidth, 81/86 ns read/write latency.
func DRAM() Model {
	return Model{
		Name:           "DRAM",
		ReadLatency:    81 * time.Nanosecond,
		WriteLatency:   86 * time.Nanosecond,
		ReadBandwidth:  115 * gib,
		WriteBandwidth: 79 * gib,
	}
}

// PMem returns the paper's Table I Optane PMem model:
// 39/14 GB/s read/write bandwidth, 305/94 ns read/write latency.
// (Write latency is low because stores land in the DIMM's write-combining
// buffer; persistence cost shows up as bandwidth, exactly as on Optane.)
func PMem() Model {
	return Model{
		Name:           "PMem",
		ReadLatency:    305 * time.Nanosecond,
		WriteLatency:   94 * time.Nanosecond,
		ReadBandwidth:  39 * gib,
		WriteBandwidth: 14 * gib,
	}
}

// FlashSSD returns the paper's Table I flash SSD model:
// 2.5/1.5 GB/s read/write bandwidth, >10 µs access latency.
func FlashSSD() Model {
	return Model{
		Name:           "FlashSSD",
		ReadLatency:    12 * time.Microsecond,
		WriteLatency:   15 * time.Microsecond,
		ReadBandwidth:  2.5 * gib,
		WriteBandwidth: 1.5 * gib,
	}
}

// Network30Gb returns the evaluation cluster's 30 Gb intranet as a device
// model: ~10 µs RPC latency and 30 Gb/s of bandwidth in each direction.
func Network30Gb() Model {
	return Model{
		Name:           "Net30Gb",
		ReadLatency:    10 * time.Microsecond,
		WriteLatency:   10 * time.Microsecond,
		ReadBandwidth:  30.0 / 8 * gib,
		WriteBandwidth: 30.0 / 8 * gib,
	}
}

// ReadCost returns the virtual cost of reading n bytes in one access.
func (m Model) ReadCost(n int) time.Duration {
	return m.ReadLatency + bwCost(n, m.ReadBandwidth)
}

// WriteCost returns the virtual cost of writing n bytes in one access.
func (m Model) WriteCost(n int) time.Duration {
	return m.WriteLatency + bwCost(n, m.WriteBandwidth)
}

// StreamReadCost returns the cost of reading n bytes as a long sequential
// stream: one access latency amortized over the whole transfer.
func (m Model) StreamReadCost(n int64) time.Duration {
	return m.ReadLatency + bwCost64(n, m.ReadBandwidth)
}

// StreamWriteCost returns the cost of writing n bytes as a long sequential
// stream.
func (m Model) StreamWriteCost(n int64) time.Duration {
	return m.WriteLatency + bwCost64(n, m.WriteBandwidth)
}

func bwCost(n int, bw float64) time.Duration { return bwCost64(int64(n), bw) }

func bwCost64(n int64, bw float64) time.Duration {
	if n <= 0 || bw <= 0 {
		return 0
	}
	return time.Duration(float64(n) / bw * float64(time.Second))
}

// EffectiveReadBandwidth reports the model's achieved bytes/second for
// back-to-back accesses of the given size (latency included). It is what
// the Table I bench prints.
func (m Model) EffectiveReadBandwidth(accessSize int) float64 {
	c := m.ReadCost(accessSize)
	if c <= 0 {
		return 0
	}
	return float64(accessSize) / c.Seconds()
}

// Timed couples a Model with the meter categories its accesses charge,
// so call sites need a single line per access.
type Timed struct {
	Model    Model
	Meter    *simclock.Meter
	ReadCat  simclock.Category
	WriteCat simclock.Category
}

// NewTimedDRAM builds a Timed DRAM device charging to m.
func NewTimedDRAM(m *simclock.Meter) *Timed {
	return &Timed{Model: DRAM(), Meter: m, ReadCat: simclock.DRAMRead, WriteCat: simclock.DRAMWrite}
}

// NewTimedPMem builds a Timed PMem device charging to m.
func NewTimedPMem(m *simclock.Meter) *Timed {
	return &Timed{Model: PMem(), Meter: m, ReadCat: simclock.PMemRead, WriteCat: simclock.PMemWrite}
}

// NewTimedSSD builds a Timed flash SSD charging to m.
func NewTimedSSD(m *simclock.Meter) *Timed {
	return &Timed{Model: FlashSSD(), Meter: m, ReadCat: simclock.SSDRead, WriteCat: simclock.SSDWrite}
}

// ChargeRead records the cost of one n-byte read.
func (t *Timed) ChargeRead(n int) {
	if t == nil {
		return
	}
	t.Meter.Charge(t.ReadCat, t.Model.ReadCost(n))
}

// ChargeWrite records the cost of one n-byte write.
func (t *Timed) ChargeWrite(n int) {
	if t == nil {
		return
	}
	t.Meter.Charge(t.WriteCat, t.Model.WriteCost(n))
}

// ChargeReadN records the cost of count independent n-byte reads in one
// atomic meter update. The cost model is nonlinear (latency + bytes/bw), so
// the batch charges count × ReadCost(n) — bit-identical in both virtual
// time and op count to count individual ChargeRead calls, never
// ReadCost(count×n). Hot paths that resolve a whole run of records use this
// to keep the meter off their inner loop.
func (t *Timed) ChargeReadN(n int, count int64) {
	if t == nil || count <= 0 {
		return
	}
	t.Meter.ChargeN(t.ReadCat, time.Duration(count)*t.Model.ReadCost(n), count)
}

// ChargeWriteN records the cost of count independent n-byte writes in one
// atomic meter update (count × WriteCost(n), as ChargeReadN).
func (t *Timed) ChargeWriteN(n int, count int64) {
	if t == nil || count <= 0 {
		return
	}
	t.Meter.ChargeN(t.WriteCat, time.Duration(count)*t.Model.WriteCost(n), count)
}

// ChargeStreamRead records the cost of an n-byte sequential read stream.
func (t *Timed) ChargeStreamRead(n int64) {
	if t == nil {
		return
	}
	t.Meter.Charge(t.ReadCat, t.Model.StreamReadCost(n))
}

// ChargeStreamWrite records the cost of an n-byte sequential write stream.
func (t *Timed) ChargeStreamWrite(n int64) {
	if t == nil {
		return
	}
	t.Meter.Charge(t.WriteCat, t.Model.StreamWriteCost(n))
}
