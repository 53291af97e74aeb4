package train

import (
	"fmt"

	"openembedding/internal/checkpoint"
	"openembedding/internal/device"
)

// Dense-model checkpointing completes the paper's "Proposed Checkpoint"
// (Table IV): the sparse features use the engine's batch-aware scheme,
// while the dense model — identical on every worker after each batch's
// allreduce — is dumped from any single worker, which is why its cost does
// not grow with the GPU count (Sec. VI-D2).

// denseKey tags the single dense-parameter record inside a checkpoint
// delta file.
const denseKey = ^uint64(0)

// SaveDense writes the trainer's dense parameters as the dense checkpoint
// for batch into dir. dev models the checkpoint device (nil is free).
func (tr *Trainer) SaveDense(dir string, batch int64, dev *device.Timed) error {
	w, err := checkpoint.NewWriter(dir, dev, nil)
	if err != nil {
		return err
	}
	params := tr.Model().Params()
	return w.WriteDelta(batch, []checkpoint.Entry{{Key: denseKey, Payload: params}})
}

// RestoreDense loads the newest dense checkpoint at or before maxBatch
// (all of them when maxBatch < 0) and returns the parameters and the batch
// they captured.
func RestoreDense(dir string, maxBatch int64, dev *device.Timed) ([]float32, int64, error) {
	state, batch, err := checkpoint.Restore(dir, maxBatch, dev)
	if err != nil {
		return nil, -1, err
	}
	params, ok := state[denseKey]
	if !ok {
		return nil, -1, fmt.Errorf("train: checkpoint at batch %d has no dense record", batch)
	}
	return params, batch, nil
}

// LoadDense overwrites every worker replica's dense parameters (the
// broadcast that follows recovery).
func (tr *Trainer) LoadDense(params []float32) error {
	for _, w := range tr.workers {
		if err := w.model.SetParams(params); err != nil {
			return err
		}
	}
	return nil
}
