// Package checkpoint implements the comparison checkpointing scheme of the
// paper's evaluation: incremental (delta) checkpointing in the style of
// CheckFreq [11] / Check-N-Run [6], where each checkpoint synchronously
// dumps the entries dirtied since the previous checkpoint to a checkpoint
// device (SSD or PMem). The DRAM-PS and Ori-Cache baselines use it; the
// proposed engine replaces it with the batch-aware scheme in internal/core.
//
// Checkpoint files are ordinary files: a base/delta chain named by batch
// ID, plus the virtual-time cost of writing the same bytes to the chosen
// checkpoint device (the paper uses PMem as the checkpoint device for all
// baselines, and SSD in the Fig. 14 recovery comparison).
package checkpoint

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"openembedding/internal/device"
	"openembedding/internal/obs"
)

// Errors returned by the checkpoint package.
var (
	// ErrCorrupt indicates a checkpoint file that fails validation.
	ErrCorrupt = errors.New("checkpoint: corrupt file")
	// ErrNoCheckpoint indicates an empty checkpoint directory.
	ErrNoCheckpoint = errors.New("checkpoint: no checkpoint found")
)

var fileMagic = [8]byte{'O', 'E', 'C', 'K', 'P', 'T', 'v', '1'}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Entry is one embedding entry in a checkpoint: weights plus optimizer
// state, exactly as the engine holds them.
type Entry struct {
	Key     uint64
	Payload []float32
}

// Writer writes delta checkpoint files into a directory and charges their
// size to a checkpoint device model.
type Writer struct {
	dir    string
	device *device.Timed // cost model of the checkpoint device (may be nil)

	// metrics (nil, and free, without a registry)
	reg        *obs.Registry
	writeNS    *obs.Histogram
	bytesOut   *obs.Counter
	deltasDone *obs.Counter
}

// NewWriter creates (if needed) the checkpoint directory. reg, when set,
// receives delta-write metrics: ckpt_write_ns (wall time of one synchronous
// delta dump — the training pause of the incremental baselines),
// ckpt_bytes_written, and ckpt_deltas_written.
func NewWriter(dir string, dev *device.Timed, reg *obs.Registry) (*Writer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return &Writer{
		dir:        dir,
		device:     dev,
		reg:        reg,
		writeNS:    reg.Histogram("ckpt_write_ns"),
		bytesOut:   reg.Counter("ckpt_bytes_written"),
		deltasDone: reg.Counter("ckpt_deltas_written"),
	}, nil
}

// deltaName formats the file name for a delta covering up to batch.
func deltaName(batch int64) string { return fmt.Sprintf("delta-%016d.ckpt", batch) }

// WriteDelta synchronously persists the given entries as the delta for
// batch. The call blocks for the duration of the file write — synchronous
// checkpointing pauses training (Sec. II-A) — and charges the written bytes
// as a sequential stream to the checkpoint device.
//
// oevet:charge stream-write
func (w *Writer) WriteDelta(batch int64, entries []Entry) error {
	start := w.reg.Now()
	path := filepath.Join(w.dir, deltaName(batch))
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	h := crc32.New(crcTable)
	out := io.MultiWriter(bw, h)

	// hdr[24:32] is a flags word: always zero, and ReadDelta rejects any
	// other value.
	var hdr [32]byte
	copy(hdr[:8], fileMagic[:])
	binary.LittleEndian.PutUint64(hdr[8:], uint64(batch))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(len(entries)))
	if _, err := out.Write(hdr[:]); err != nil {
		f.Close()
		return fmt.Errorf("checkpoint: %w", err)
	}
	var total int64 = int64(len(hdr))
	scratch := make([]byte, 0, 1024)
	for _, e := range entries {
		need := 8 + 4 + 4*len(e.Payload)
		if cap(scratch) < need {
			scratch = make([]byte, 0, need)
		}
		buf := scratch[:need]
		binary.LittleEndian.PutUint64(buf[0:], e.Key)
		binary.LittleEndian.PutUint32(buf[8:], uint32(len(e.Payload)))
		for i, v := range e.Payload {
			binary.LittleEndian.PutUint32(buf[12+4*i:], floatBits(v))
		}
		if _, err := out.Write(buf); err != nil {
			f.Close()
			return fmt.Errorf("checkpoint: %w", err)
		}
		total += int64(need)
	}
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], h.Sum32())
	if _, err := bw.Write(tail[:]); err != nil {
		f.Close()
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	w.device.ChargeStreamWrite(total + 4)
	w.writeNS.Observe(w.reg.Now() - start)
	w.bytesOut.Add(total + 4)
	w.deltasDone.Add(1)
	return nil
}

// List returns the delta batch IDs present in dir, ascending.
func List(dir string) ([]int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	var batches []int64
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, "delta-") || !strings.HasSuffix(name, ".ckpt") {
			continue
		}
		n, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimPrefix(name, "delta-"), ".ckpt"), 10, 64)
		if err != nil {
			continue
		}
		batches = append(batches, n)
	}
	sort.Slice(batches, func(i, j int) bool { return batches[i] < batches[j] })
	return batches, nil
}

// ReadDelta loads one delta file, charging its size as a sequential stream
// read from the checkpoint device (what dominates DRAM-PS recovery,
// Sec. VI-E).
//
// oevet:charge stream-read
func ReadDelta(dir string, batch int64, dev *device.Timed) ([]Entry, error) {
	raw, err := os.ReadFile(filepath.Join(dir, deltaName(batch)))
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	dev.ChargeStreamRead(int64(len(raw)))
	if len(raw) < 36 || string(raw[:8]) != string(fileMagic[:]) {
		return nil, fmt.Errorf("%w: bad header", ErrCorrupt)
	}
	body, tail := raw[:len(raw)-4], raw[len(raw)-4:]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(tail) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	if got := int64(binary.LittleEndian.Uint64(raw[8:])); got != batch {
		return nil, fmt.Errorf("%w: batch %d in file named %d", ErrCorrupt, got, batch)
	}
	if flags := binary.LittleEndian.Uint64(raw[24:]); flags != 0 {
		return nil, fmt.Errorf("%w: flags %#x", ErrCorrupt, flags)
	}
	// Every entry takes at least its 12-byte key and length, so a count
	// the body cannot hold is corrupt — rejected before it sizes anything.
	count := binary.LittleEndian.Uint64(raw[16:])
	if count > uint64(len(body)-32)/12 {
		return nil, fmt.Errorf("%w: %d entries in a %d-byte body", ErrCorrupt, count, len(body))
	}
	entries := make([]Entry, 0, count)
	off := 32
	for i := uint64(0); i < count; i++ {
		if off+12 > len(body) {
			return nil, fmt.Errorf("%w: truncated entry", ErrCorrupt)
		}
		key := binary.LittleEndian.Uint64(body[off:])
		n := int(binary.LittleEndian.Uint32(body[off+8:]))
		off += 12
		if off+4*n > len(body) {
			return nil, fmt.Errorf("%w: truncated payload", ErrCorrupt)
		}
		payload := make([]float32, n)
		for j := 0; j < n; j++ {
			payload[j] = floatFromBits(binary.LittleEndian.Uint32(body[off+4*j:]))
		}
		off += 4 * n
		entries = append(entries, Entry{Key: key, Payload: payload})
	}
	return entries, nil
}

// Restore replays the full delta chain up to and including maxBatch
// (or everything when maxBatch < 0), returning the newest payload per key
// and the newest batch restored.
func Restore(dir string, maxBatch int64, dev *device.Timed) (map[uint64][]float32, int64, error) {
	batches, err := List(dir)
	if err != nil {
		return nil, -1, err
	}
	state := make(map[uint64][]float32)
	newest := int64(-1)
	for _, b := range batches {
		if maxBatch >= 0 && b > maxBatch {
			break
		}
		entries, err := ReadDelta(dir, b, dev)
		if err != nil {
			return nil, -1, err
		}
		for _, e := range entries {
			state[e.Key] = e.Payload
		}
		newest = b
	}
	if newest < 0 {
		return nil, -1, ErrNoCheckpoint
	}
	return state, newest, nil
}

func floatBits(f float32) uint32 { return math.Float32bits(f) }

func floatFromBits(u uint32) float32 { return math.Float32frombits(u) }
