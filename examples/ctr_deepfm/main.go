// ctr_deepfm trains a real DeepFM click-through-rate model on a synthetic
// Criteo-schema stream through the full OpenEmbedding stack: sparse
// features live in the PMem-backed parameter server, the dense model runs
// data-parallel across simulated GPU workers, and periodic batch-aware
// checkpoints complete with no training pause.
//
// Watch the log loss fall and the AUC climb above 0.5 — the functional
// path is real end to end.
package main

import (
	"fmt"
	"log"

	"openembedding"
	"openembedding/internal/model"
	"openembedding/internal/train"
	"openembedding/internal/workload"
)

func main() {
	const (
		dim     = 8
		workers = 2
		steps   = 250
	)
	gen := func(seed int64) *workload.CriteoSynthetic {
		return workload.NewCriteo(workload.CriteoConfig{Scale: 0.0005, Seed: 11, StreamSeed: seed})
	}
	tableSize := gen(0).Keys()

	ps, err := openembedding.Open(openembedding.Config{
		Dim:          dim,
		Capacity:     tableSize + 1,
		CacheEntries: 8192,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer ps.Close()
	fmt.Printf("embedding table: %d entries x dim %d (%.1f MB sparse state on PMem)\n",
		tableSize, dim, float64(tableSize*dim*2*4)/(1<<20))

	trainer, err := train.New(train.Config{
		Workers:   workers,
		BatchSize: 256,
		Model: model.DeepFMConfig{
			Fields: workload.CriteoNumSparse,
			Dim:    dim,
			Dense:  workload.CriteoNumDense,
			Hidden: []int{32, 16},
			LR:     0.05,
			Seed:   1,
		},
		DataSeed:        7,
		Data:            gen,
		CheckpointEvery: 80,
	}, train.Local{Engine: ps.Engine()})
	if err != nil {
		log.Fatal(err)
	}

	stats, err := trainer.Run(steps)
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < len(stats.Steps); i += 50 {
		fmt.Printf("batch %3d  logloss %.4f\n", stats.Steps[i].Batch, stats.Steps[i].Loss)
	}
	fmt.Printf("batch %3d  logloss %.4f (final)\n",
		stats.Steps[len(stats.Steps)-1].Batch, stats.FinalLoss)

	// Evaluate AUC on held-out samples using worker 0's dense model and
	// embeddings pulled from the PS.
	auc, err := evaluateAUC(ps, trainer, gen(999), 2000) // same labeler, fresh stream
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nheld-out AUC: %.3f (0.5 = random)\n", auc)
	fmt.Printf("checkpoints requested: %d, completed through batch %d\n",
		stats.Checkpoints, ps.CompletedCheckpoint())
	st := ps.Stats()
	fmt.Printf("PS: %d entries, %.1f%% cache miss rate, %d PMem writes\n",
		st.Entries, st.MissRate()*100, st.PMemWrites)
}

func evaluateAUC(ps *openembedding.Server, tr *train.Trainer, data *workload.CriteoSynthetic, n int) (float64, error) {
	m := tr.Model()
	cfg := m.Config()
	samples := data.FillBatch(make([]workload.Sample, n))
	// The trainer's deduplication rule: slots[ex*Fields+f] is the index
	// into keys of sample ex's field f.
	keys, slots := workload.IndexKeys(samples, cfg.Fields, map[uint64]int32{}, nil, nil)
	weights := make([]float32, len(keys)*ps.Dim())
	if err := ps.Pull(1_000_000, keys, weights); err != nil {
		return 0, err
	}
	ps.EndPullPhase(1_000_000)
	if err := ps.EndBatch(1_000_000); err != nil {
		return 0, err
	}

	emb := make([]float32, n*cfg.Fields*cfg.Dim)
	dense := make([]float32, n*cfg.Dense)
	labels := make([]float32, n)
	for s, j := range slots {
		copy(emb[s*cfg.Dim:(s+1)*cfg.Dim], weights[int(j)*cfg.Dim:(int(j)+1)*cfg.Dim])
	}
	for ex, s := range samples {
		copy(dense[ex*cfg.Dense:(ex+1)*cfg.Dense], s.Dense[:cfg.Dense])
		labels[ex] = s.Label
	}
	preds, err := m.Predict(emb, dense, n)
	if err != nil {
		return 0, err
	}
	return model.AUC(preds, labels), nil
}
