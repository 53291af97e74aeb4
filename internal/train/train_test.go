package train

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"openembedding/internal/core"
	"openembedding/internal/device"
	"openembedding/internal/model"
	"openembedding/internal/optim"
	"openembedding/internal/pmem"
	"openembedding/internal/psengine"
	"openembedding/internal/simclock"
	"openembedding/internal/workload"
)

func newOEEngine(t *testing.T, dim, capacity, cacheEntries int) *core.Engine {
	t.Helper()
	cfg := psengine.Config{
		Dim:          dim,
		Optimizer:    optim.NewAdaGrad(0.05),
		Capacity:     capacity,
		CacheEntries: cacheEntries,
		Meter:        simclock.NewMeter(),
	}.WithDefaults()
	payload := pmem.FloatBytes(cfg.EntryFloats())
	slots := capacity * 3
	dev := pmem.NewDevice(pmem.ArenaLayout(payload, slots), device.NewTimedPMem(cfg.Meter))
	arena, err := pmem.NewArena(dev, payload, slots)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.New(cfg, arena)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	return eng
}

func trainerConfig(workers int) Config {
	return Config{
		Workers:   workers,
		BatchSize: 64,
		Model: model.DeepFMConfig{
			Fields: workload.CriteoNumSparse,
			Dim:    8,
			Dense:  workload.CriteoNumDense,
			Hidden: []int{16},
			LR:     0.02,
			Seed:   1,
		},
		DataSeed: 100,
		Data: func(seed int64) *workload.CriteoSynthetic {
			return workload.NewCriteo(workload.CriteoConfig{Scale: 0.0002, Seed: 5, StreamSeed: seed})
		},
	}
}

// TestEndToEndTrainingLearns runs real DeepFM training through the PMem-OE
// engine and expects the log loss to improve over the stream.
func TestEndToEndTrainingLearns(t *testing.T) {
	eng := newOEEngine(t, 8, 1<<18, 4096)
	tr, err := New(trainerConfig(2), Local{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := tr.Run(30)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Steps) != 30 {
		t.Fatalf("ran %d steps", len(stats.Steps))
	}
	head := avgLoss(stats.Steps[:5])
	tail := avgLoss(stats.Steps[25:])
	if tail >= head {
		t.Fatalf("loss did not improve: first-5 %.4f, last-5 %.4f", head, tail)
	}
	st := eng.Stats()
	if st.Entries == 0 || st.Hits+st.Misses == 0 {
		t.Fatalf("engine unused: %+v", st)
	}
}

func avgLoss(steps []StepStats) float64 {
	var s float64
	for _, st := range steps {
		s += st.Loss
	}
	return s / float64(len(steps))
}

// TestCheckpointDuringTraining verifies periodic checkpoints complete while
// training continues.
func TestCheckpointDuringTraining(t *testing.T) {
	eng := newOEEngine(t, 8, 1<<18, 2048)
	cfg := trainerConfig(1)
	cfg.CheckpointEvery = 5
	tr, err := New(cfg, Local{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := tr.Run(12)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Checkpoints != 2 {
		t.Fatalf("requested %d checkpoints, want 2", stats.Checkpoints)
	}
	done, err := Local{Engine: eng}.CompletedCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	if done < 4 {
		t.Fatalf("completed checkpoint %d, want >= 4", done)
	}
}

// TestResumeFromCheckpointBatchIDs verifies StartBatch continues the batch
// numbering after recovery.
func TestResumeFromCheckpointBatchIDs(t *testing.T) {
	eng := newOEEngine(t, 8, 1<<18, 2048)
	cfg := trainerConfig(1)
	cfg.StartBatch = 7
	tr, err := New(cfg, Local{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := tr.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Steps[0].Batch != 7 || stats.Steps[2].Batch != 9 {
		t.Fatalf("batches = %v", stats.Steps)
	}
}

func TestTrainerValidation(t *testing.T) {
	if _, err := New(Config{}, Local{}); err == nil {
		t.Fatal("missing data source accepted")
	}
}

// TestNewRejectsModelWiderThanData: a model that reads more sparse fields
// or dense features than a sample carries, or one NewDeepFM cannot build,
// is an error from New — not a panic in a worker goroutine at the first
// batch, which would take the whole process down with it.
func TestNewRejectsModelWiderThanData(t *testing.T) {
	for name, edit := range map[string]func(*model.DeepFMConfig){
		"fields":      func(m *model.DeepFMConfig) { m.Fields = workload.CriteoNumSparse + 1 },
		"dense":       func(m *model.DeepFMConfig) { m.Dense = workload.CriteoNumDense + 1 },
		"no fields":   func(m *model.DeepFMConfig) { m.Fields = 0 },
		"no dim":      func(m *model.DeepFMConfig) { m.Dim = 0 },
		"neg dense":   func(m *model.DeepFMConfig) { m.Dense = -1 },
		"zero hidden": func(m *model.DeepFMConfig) { m.Hidden = []int{16, 0} },
	} {
		t.Run(name, func(t *testing.T) {
			cfg := trainerConfig(1)
			edit(&cfg.Model)
			var err error
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Fatalf("New panicked: %v", p)
					}
				}()
				_, err = New(cfg, Local{})
			}()
			if err == nil {
				t.Fatalf("New accepted %+v", cfg.Model)
			}
		})
	}
}

// recordingPS notes every key list the trainer hands it, and checks at
// EndBatch that none of them changed while the batch was in flight (bench's
// psTimer replays sampled calls' keys up to then).
type recordingPS struct {
	Local
	mu     sync.Mutex
	pulls  map[int64][][]uint64
	pushes map[int64][][]uint64
	live   [][]uint64 // the slices handed over in this batch, and copies
	copies [][]uint64
	bad    []string
}

func (r *recordingPS) note(calls map[int64][][]uint64, batch int64, keys []uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := append([]uint64(nil), keys...)
	calls[batch] = append(calls[batch], c)
	r.live, r.copies = append(r.live, keys), append(r.copies, c)
}

func (r *recordingPS) Pull(batch int64, keys []uint64, dst []float32) error {
	r.note(r.pulls, batch, keys)
	return r.Local.Pull(batch, keys, dst)
}

func (r *recordingPS) Push(batch int64, keys []uint64, grads []float32) error {
	r.note(r.pushes, batch, keys)
	return r.Local.Push(batch, keys, grads)
}

func (r *recordingPS) EndBatch(batch int64) error {
	for i, keys := range r.live {
		if !slices.Equal(keys, r.copies[i]) {
			r.bad = append(r.bad, fmt.Sprintf("batch %d: call %d's keys changed before EndBatch", batch, i))
		}
	}
	r.live, r.copies = r.live[:0], r.copies[:0]
	return r.Local.EndBatch(batch)
}

// TestPullsUniqueKeysInOrder pins what the trainer puts on the wire: every
// worker pulls and pushes exactly workload.UniqueKeys of its samples, in
// that order, over all 26 sparse fields even when the model reads fewer,
// so the bytes a node sees (and faultinject's occurrence numbering) stay
// those of the keys alone — and it hands the lists over untouched until
// the batch's EndBatch.
func TestPullsUniqueKeysInOrder(t *testing.T) {
	const workers, steps = 2, 4
	for _, fields := range []int{workload.CriteoNumSparse, 20} {
		t.Run(fmt.Sprint("fields=", fields), func(t *testing.T) {
			cfg := trainerConfig(workers)
			cfg.Model.Fields = fields
			rec := &recordingPS{
				Local: Local{Engine: newOEEngine(t, 8, 1<<18, 4096)},
				pulls: map[int64][][]uint64{}, pushes: map[int64][][]uint64{},
			}
			tr, err := New(cfg, rec)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tr.Run(steps); err != nil {
				t.Fatal(err)
			}
			for _, msg := range rec.bad {
				t.Error(msg)
			}
			var want [workers][][]uint64
			for w := range want {
				data := cfg.Data(cfg.DataSeed + int64(w))
				for b := 0; b < steps; b++ {
					want[w] = append(want[w], workload.UniqueKeys(data.NextBatch(cfg.BatchSize)))
				}
			}
			for b := 0; b < steps; b++ {
				for name, calls := range map[string][][]uint64{"pull": rec.pulls[int64(b)], "push": rec.pushes[int64(b)]} {
					if len(calls) != workers {
						t.Fatalf("batch %d: %d %ss, want %d", b, len(calls), name, workers)
					}
					// Workers call concurrently: match each worker's list to one call.
					for w := range want {
						if !slices.ContainsFunc(calls, func(keys []uint64) bool { return slices.Equal(keys, want[w][b]) }) {
							t.Fatalf("batch %d: no %s carries worker %d's UniqueKeys (%d keys)", b, name, w, len(want[w][b]))
						}
					}
				}
			}
		})
	}
}
