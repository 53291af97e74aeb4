// Package train implements synchronous data-parallel DLRM training
// (Sec. II-A): every worker pulls its batch's embedding entries, the dense
// model runs forward/backward, gradients are pushed back, and a barrier
// separates batches. Dense parameters are kept in sync across workers by
// averaging after every batch (the Horovod allreduce of the paper's setup).
//
// The trainer drives any parameter server that speaks the batch protocol —
// a local engine (psengine.Engine via Local) or a TCP cluster
// (cluster.Client) — which is exactly how the examples exercise the full
// stack with a real DeepFM.
package train

import (
	"fmt"
	"slices"
	"sync"

	"openembedding/internal/model"
	"openembedding/internal/obs"
	"openembedding/internal/psengine"
	"openembedding/internal/vec"
	"openembedding/internal/workload"
)

// ParamServer is the trainer's view of the embedding store.
type ParamServer interface {
	Pull(batch int64, keys []uint64, dst []float32) error
	Push(batch int64, keys []uint64, grads []float32) error
	EndPullPhase(batch int64) error
	EndBatch(batch int64) error
	RequestCheckpoint(batch int64) error
	CompletedCheckpoint() (int64, error)
}

// Local adapts a psengine.Engine to the ParamServer interface.
type Local struct{ Engine psengine.Engine }

// Pull implements ParamServer.
func (l Local) Pull(batch int64, keys []uint64, dst []float32) error {
	return l.Engine.Pull(batch, keys, dst)
}

// Push implements ParamServer.
func (l Local) Push(batch int64, keys []uint64, grads []float32) error {
	return l.Engine.Push(batch, keys, grads)
}

// EndPullPhase implements ParamServer.
func (l Local) EndPullPhase(batch int64) error {
	l.Engine.EndPullPhase(batch)
	return nil
}

// EndBatch implements ParamServer.
func (l Local) EndBatch(batch int64) error { return l.Engine.EndBatch(batch) }

// RequestCheckpoint implements ParamServer.
func (l Local) RequestCheckpoint(batch int64) error { return l.Engine.RequestCheckpoint(batch) }

// CompletedCheckpoint implements ParamServer. Like the RPC server's
// completed-checkpoint request, it first waits for every checkpoint the
// engine has queued, so one call answers "is batch b durable?".
func (l Local) CompletedCheckpoint() (int64, error) {
	if err := l.Engine.WaitCheckpoints(); err != nil {
		return -1, err
	}
	return l.Engine.CompletedCheckpoint(), nil
}

// Recoverer is the recovery half of a fault-tolerant ParamServer
// (implemented by cluster.Client). After a Recoverable request failure the
// trainer queries the committed checkpoint, calls Recover(commit) to roll
// every node back to it, rewinds its own dense model and data streams, and
// replays from commit+1 (DESIGN.md §10). A Run against a Recoverer always
// recovers; for a remote cluster the nodes must retain two checkpoints
// (ps.Node's default).
type Recoverer interface {
	Recover(commit int64) error
	Recoverable(err error) bool
}

// maxReplays bounds the rollback + replay recoveries a Run performs without
// the cluster-wide commit advancing: a failure that recurs however often the
// run replays stops the run, while failures spread over a long run, with
// checkpoints committing between them, never run out of replays.
const maxReplays = 40

// Config configures a training run.
type Config struct {
	// Workers is the number of data-parallel workers (the paper's GPUs).
	Workers int
	// BatchSize is the per-worker samples per step (the paper's default
	// global batch is 4096).
	BatchSize int
	// Model configures the dense DeepFM part; Fields/Dim must match the
	// data and the PS engine dimension.
	Model model.DeepFMConfig
	// DataSeed seeds each worker's data stream (worker w uses DataSeed+w).
	DataSeed int64
	// Data builds a per-worker sample stream.
	Data func(seed int64) *workload.CriteoSynthetic
	// CheckpointEvery requests a checkpoint every N batches (0 disables).
	CheckpointEvery int
	// DenseCheckpointDir, when set, also dumps the dense model at every
	// checkpoint (worker 0's copy — all replicas are identical after the
	// allreduce), completing the paper's "Proposed Checkpoint".
	DenseCheckpointDir string
	// StartBatch is the first batch ID (checkpoint+1 when resuming).
	StartBatch int64
	// BatchStart, when set, is called just before each batch's pull phase
	// with the batch ID — the hook where a chaos harness fires its node
	// crash schedule. Replayed batches invoke it again; a harness that must
	// act once per batch dedupes by ID.
	BatchStart func(batch int64)
	// Obs, when set, receives per-batch wall-clock metrics: train_batch_ns
	// and the train_pull_ns / train_compute_ns / train_push_ns phase
	// histograms, each timed by the train.batch span or its
	// pull/compute/push child.
	Obs *obs.Registry
}

// Trainer runs synchronous training against a parameter server.
type Trainer struct {
	cfg     Config
	ps      ParamServer
	workers []*worker

	// snaps holds dense-parameter snapshots keyed by committed batch (and
	// StartBatch-1 for the initial state) when the parameter server is a
	// Recoverer; a rewind restores the snapshot of the rollback target.
	snaps map[int64][]float32

	// sum and peer are the allreduce's buffers: the parameter sum, and the
	// replica being added to it.
	sum, peer []float32

	// wg counts the workers still running the phase fanOut handed them.
	wg sync.WaitGroup

	// metrics (nil, and free, without Config.Obs)
	batchNS   *obs.Histogram
	pullNS    *obs.Histogram
	computeNS *obs.Histogram
	pushNS    *obs.Histogram
}

type worker struct {
	id    int
	model *model.DeepFM
	data  *workload.CriteoSynthetic
	// jobs carries a Run's phases to the worker's goroutine, which lives as
	// long as the Run.
	jobs chan job

	// The batch in flight. Every buffer is reused by the next batch, which
	// starts after this one's EndBatch has returned: keys, weights and
	// grads, which Pull and Push are handed, are not written before then
	// (DESIGN.md §19).
	samples []workload.Sample
	index   workload.KeyIndex
	keys    []uint64  // workload.UniqueKeys(samples)
	slots   []int32   // per (sample, model field): the key's index in keys
	weights []float32 // pulled rows, one per key
	emb     []float32 // the model's inputs, gathered from weights
	dense   []float32
	labels  []float32
	embGrad []float32 // the model's embedding gradient, per (sample, field)
	grads   []float32 // embGrad summed per key, for the push
	loss    float64
	err     error
}

// job is one phase of one batch, which every worker runs at once.
type job struct {
	run   func(w *worker, tr *Trainer, batch int64) error
	batch int64
}

// New builds a trainer. Every worker starts from identical dense
// parameters (same model seed), as a broadcast would ensure. A model that
// reads more sparse fields or dense features than a sample carries is
// rejected, as is one NewDeepFM cannot build.
func New(cfg Config, ps ParamServer) (*Trainer, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 256
	}
	if cfg.Data == nil {
		return nil, fmt.Errorf("train: Data source required")
	}
	if err := cfg.Model.Check(); err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	if cfg.Model.Fields > workload.CriteoNumSparse || cfg.Model.Dense > workload.CriteoNumDense {
		return nil, fmt.Errorf("train: model reads %d sparse fields and %d dense features; a sample has %d and %d",
			cfg.Model.Fields, cfg.Model.Dense, workload.CriteoNumSparse, workload.CriteoNumDense)
	}
	tr := &Trainer{cfg: cfg, ps: ps}
	tr.batchNS = cfg.Obs.Histogram("train_batch_ns") // nil registry: nil, free metrics
	tr.pullNS = cfg.Obs.Histogram("train_pull_ns")
	tr.computeNS = cfg.Obs.Histogram("train_compute_ns")
	tr.pushNS = cfg.Obs.Histogram("train_push_ns")
	// Every per-batch buffer is sized for the most distinct keys a batch
	// can have, so no batch grows one: a step allocates nothing.
	keys := cfg.BatchSize * workload.CriteoNumSparse
	for w := 0; w < cfg.Workers; w++ {
		tr.workers = append(tr.workers, &worker{
			id:      w,
			model:   model.NewDeepFM(cfg.Model),
			data:    cfg.Data(cfg.DataSeed + int64(w)),
			samples: make([]workload.Sample, cfg.BatchSize),
			keys:    make([]uint64, 0, keys),
			slots:   make([]int32, 0, cfg.BatchSize*cfg.Model.Fields),
			weights: make([]float32, 0, keys*cfg.Model.Dim),
			grads:   make([]float32, 0, keys*cfg.Model.Dim),
		})
	}
	return tr, nil
}

// StepStats reports one global batch.
type StepStats struct {
	Batch int64
	// Loss is the mean training log loss across workers.
	Loss float64
}

// EpochStats summarizes a Run.
type EpochStats struct {
	Steps       []StepStats
	FinalLoss   float64
	Checkpoints int64
}

// Run executes steps synchronous batches and returns per-step statistics.
//
// Against a Recoverer ParamServer, a recoverable batch failure (node crash,
// epoch fence, exhausted transport retries) triggers the replay protocol
// instead of aborting: the trainer rolls the cluster back to the committed
// checkpoint, restores its dense snapshot, rewinds every worker's data
// stream, truncates the recorded steps, and re-executes from the batch after
// the commit. Replayed batches recompute bit-identically — same samples,
// same dense state, same embedding state — so a chaos run converges to the
// exact state of a fault-free run. Every requested checkpoint is then also
// gated to completion before training continues, so the cluster-wide commit
// is always a batch the trainer holds a dense snapshot for. Any other
// ParamServer, and any other error, aborts the run at the first failure.
func (tr *Trainer) Run(steps int) (EpochStats, error) {
	var out EpochStats
	cfg := tr.cfg

	rec, _ := tr.ps.(Recoverer)
	if rec != nil {
		tr.snaps = map[int64][]float32{}
		tr.snapshotDense(cfg.StartBatch - 1)
	}

	tr.startWorkers()
	defer tr.stopWorkers()

	// replays counts the recoveries made since the commit advanced to at.
	replays, at := 0, cfg.StartBatch-1
	for s := 0; s < steps; {
		batch := cfg.StartBatch + int64(s)
		if cfg.BatchStart != nil {
			cfg.BatchStart(batch)
		}
		err := tr.runBatch(&out, batch)
		if err == nil {
			s++
			continue
		}
		if rec == nil || !rec.Recoverable(err) {
			return out, err
		}
		commit, rerr := tr.ps.CompletedCheckpoint()
		if rerr != nil {
			//oevet:errwrap-ok the superseded recoverable error is cited as context; the live commit query failure is wrapped
			return out, fmt.Errorf("train: replay (after %v): locating commit: %w", err, rerr)
		}
		if commit > at {
			replays, at = 0, commit
		}
		if replays == maxReplays {
			return out, err
		}
		replays++
		if rerr := tr.rewind(rec, commit, &out); rerr != nil {
			//oevet:errwrap-ok the superseded recoverable error is cited as context; the live rewind failure is wrapped
			return out, fmt.Errorf("train: replay %d (after %v): %w", replays, err, rerr)
		}
		s = int(commit + 1 - cfg.StartBatch)
	}
	return out, nil
}

// startWorkers gives every worker a goroutine for the Run, and stopWorkers
// ends them. A batch hands its phases to them over their channels, so it
// starts no goroutine and allocates nothing to fan out.
func (tr *Trainer) startWorkers() {
	for _, w := range tr.workers {
		w.jobs = make(chan job, 1)
		go tr.work(w, w.jobs)
	}
}

func (tr *Trainer) stopWorkers() {
	for _, w := range tr.workers {
		close(w.jobs)
	}
}

// work runs w's jobs until its channel is closed.
func (tr *Trainer) work(w *worker, jobs <-chan job) {
	for j := range jobs {
		w.err = j.run(w, tr, j.batch)
		tr.wg.Done()
	}
}

// fanOut runs one phase of batch on every worker at once and returns the
// first worker's error.
//
// oevet:hotpath
func (tr *Trainer) fanOut(batch int64, run func(w *worker, tr *Trainer, batch int64) error) error {
	tr.wg.Add(len(tr.workers))
	for _, w := range tr.workers {
		w.jobs <- job{run, batch}
	}
	tr.wg.Wait()
	return tr.workerErr()
}

// runBatch executes one synchronous batch end to end: pull, compute,
// allreduce, push, seal, and (when due) checkpoint request — gated to
// completion against a Recoverer. Any error leaves the batch incomplete;
// the caller either aborts or rolls back and replays.
func (tr *Trainer) runBatch(out *EpochStats, batch int64) error {
	cfg := &tr.cfg
	bsp := cfg.Obs.Start("train.batch", "train", 0, batch)
	psp := cfg.Obs.Start("train.pull", "train", 0, batch)

	// Pull phase: all workers in parallel (the paper's burst).
	if err := tr.fanOut(batch, (*worker).pull); err != nil {
		return err
	}
	if err := tr.ps.EndPullPhase(batch); err != nil {
		return err
	}
	tr.pullNS.Observe(psp.EndArg("workers", int64(len(tr.workers))))
	csp := cfg.Obs.Start("train.compute", "train", 0, batch)

	// Compute phase: dense forward/backward per worker, gradients
	// aggregated per unique key.
	if err := tr.fanOut(batch, (*worker).compute); err != nil {
		return err
	}

	// Dense allreduce: average parameters across workers.
	tr.allreduce()
	tr.computeNS.Observe(csp.End())
	usp := cfg.Obs.Start("train.push", "train", 0, batch)

	// Push phase: all workers in parallel.
	if err := tr.fanOut(batch, (*worker).push); err != nil {
		return err
	}
	var stepLoss float64
	for _, w := range tr.workers {
		stepLoss += w.loss
	}
	stepLoss /= float64(len(tr.workers))

	if err := tr.ps.EndBatch(batch); err != nil {
		return err
	}
	tr.pushNS.Observe(usp.End())
	// Sealed, so the step counts even if the checkpoint request fails: a
	// replay keeps it when the batch is the commit, and truncates it if not.
	out.Steps = append(out.Steps, StepStats{Batch: batch, Loss: stepLoss})
	out.FinalLoss = stepLoss
	if cfg.CheckpointEvery > 0 && int(batch-cfg.StartBatch+1)%cfg.CheckpointEvery == 0 {
		if tr.snaps != nil {
			// Snapshot BEFORE requesting: a request whose reply is lost, or a
			// failure mid-gate, can still make this batch the commit, and the
			// rewind needs its dense state.
			tr.snapshotDense(batch)
		}
		if err := tr.ps.RequestCheckpoint(batch); err != nil {
			return err
		}
		if tr.snaps != nil {
			// The gate: one read waits for the checkpoint on every node.
			done, err := tr.ps.CompletedCheckpoint()
			if err != nil {
				return err
			}
			if done < batch {
				return fmt.Errorf("train: checkpoint %d not durable after the wait (at %d)", batch, done)
			}
		}
		if cfg.DenseCheckpointDir != "" {
			if err := tr.SaveDense(cfg.DenseCheckpointDir, batch, nil); err != nil {
				return err
			}
		}
		out.Checkpoints++
	}
	tr.batchNS.Observe(bsp.End())
	return nil
}

// workerErr returns the first worker's error of the phase just run.
func (tr *Trainer) workerErr() error {
	for _, w := range tr.workers {
		if w.err != nil {
			return w.err
		}
	}
	return nil
}

// pull draws the worker's next batch into its sample buffer, indexes its
// keys and pulls their rows.
//
// oevet:hotpath
func (w *worker) pull(tr *Trainer, batch int64) error {
	cfg := &tr.cfg
	w.data.FillBatch(w.samples)
	w.keys, w.slots = w.index.Index(w.samples, cfg.Model.Fields, w.keys, w.slots) //oevet:alloc-ok New sized keys and slots for the most a batch can hold
	w.weights = resize(w.weights, len(w.keys)*cfg.Model.Dim)
	return tr.ps.Pull(batch, w.keys, w.weights)
}

// compute runs the dense model's step on the pulled rows and sums its
// embedding gradient per key.
//
// oevet:hotpath
func (w *worker) compute(tr *Trainer, _ int64) error {
	m := &tr.cfg.Model
	w.gather(m.Fields, m.Dim, m.Dense)
	var err error
	w.loss, err = w.model.Step(w.emb, w.dense, w.labels, w.embGrad) //oevet:alloc-ok Step formats an error only for inputs of the wrong shape
	if err == nil {
		w.scatter(m.Dim)
	}
	return err
}

// push sends the summed gradients of the worker's keys.
//
// oevet:hotpath
func (w *worker) push(tr *Trainer, batch int64) error {
	return tr.ps.Push(batch, w.keys, w.grads)
}

// gather lays the batch out as the model's inputs — each (sample, field)'s
// pulled row, the dense features and the labels — and sizes the buffer
// Step writes the embedding gradient into.
//
// oevet:hotpath
func (w *worker) gather(fields, dim, nDense int) {
	n := len(w.samples)
	w.emb = resize(w.emb, n*fields*dim)
	w.embGrad = resize(w.embGrad, n*fields*dim)
	w.dense = resize(w.dense, n*nDense)
	w.labels = resize(w.labels, n)
	for s, j := range w.slots {
		copy(w.emb[s*dim:(s+1)*dim], w.weights[int(j)*dim:(int(j)+1)*dim])
	}
	for ex := range w.samples {
		sm := &w.samples[ex]
		copy(w.dense[ex*nDense:(ex+1)*nDense], sm.Dense[:nDense])
		w.labels[ex] = sm.Label
	}
}

// scatter sums the embedding gradient per key, in (sample, field) order.
//
// oevet:hotpath
func (w *worker) scatter(dim int) {
	w.grads = resize(w.grads, len(w.keys)*dim)
	clear(w.grads)
	for s, j := range w.slots {
		vec.Add(w.grads[int(j)*dim:(int(j)+1)*dim], w.embGrad[s*dim:(s+1)*dim])
	}
}

// resize returns buf with length n, reusing its array when it is big
// enough; what it holds is stale.
func resize(buf []float32, n int) []float32 {
	return slices.Grow(buf[:0], n)[:n]
}

// snapshotDense records the current dense parameters (all replicas are
// identical at a batch boundary) under the given batch ID, keeping only
// the snapshots a future rollback can still target: the commit is always
// one of the two newest gated checkpoints, or the predecessor state before
// any checkpoint committed.
func (tr *Trainer) snapshotDense(batch int64) {
	tr.snaps[batch] = tr.workers[0].model.Params()
	for len(tr.snaps) > 3 {
		oldest := int64(1<<63 - 1)
		for b := range tr.snaps {
			if b < oldest {
				oldest = b
			}
		}
		delete(tr.snaps, oldest)
	}
}

// rewind runs the worker half of the recovery protocol after a recoverable
// batch failure: roll every node back to the cluster-wide committed
// checkpoint commit, restore the matching dense snapshot on every worker,
// rebuild each worker's data stream and skip the batches already committed
// (re-drawn into the worker's sample buffer), and truncate the recorded
// steps.
func (tr *Trainer) rewind(rec Recoverer, commit int64, out *EpochStats) error {
	cfg := tr.cfg
	if commit < cfg.StartBatch-1 {
		return fmt.Errorf("commit %d is before the run's start batch %d", commit, cfg.StartBatch)
	}
	snap, ok := tr.snaps[commit]
	if !ok {
		return fmt.Errorf("no dense snapshot for commit %d", commit)
	}
	if err := rec.Recover(commit); err != nil {
		return err
	}
	consumed := int(commit - cfg.StartBatch + 1)
	for _, w := range tr.workers {
		// SetParams only fails on length mismatch, impossible here.
		_ = w.model.SetParams(snap)
		w.data = cfg.Data(cfg.DataSeed + int64(w.id))
		for b := 0; b < consumed; b++ {
			w.data.FillBatch(w.samples)
		}
	}
	for len(out.Steps) > 0 && out.Steps[len(out.Steps)-1].Batch > commit {
		out.Steps = out.Steps[:len(out.Steps)-1]
	}
	if n := len(out.Steps); n > 0 {
		out.FinalLoss = out.Steps[n-1].Loss
	} else {
		out.FinalLoss = 0
	}
	return nil
}

// allreduce averages every worker's dense parameters — the synchronous
// data-parallel guarantee that all replicas stay identical.
func (tr *Trainer) allreduce() {
	if len(tr.workers) == 1 {
		return
	}
	sum := tr.workers[0].model.AppendParams(tr.sum[:0])
	for _, w := range tr.workers[1:] {
		tr.peer = w.model.AppendParams(tr.peer[:0])
		vec.Add(sum, tr.peer)
	}
	inv := float32(1) / float32(len(tr.workers))
	for i := range sum {
		sum[i] *= inv
	}
	for _, w := range tr.workers {
		// SetParams only fails on length mismatch, impossible here.
		_ = w.model.SetParams(sum)
	}
	tr.sum = sum
}

// Model returns worker 0's dense model (all replicas are identical after
// each batch).
func (tr *Trainer) Model() *model.DeepFM { return tr.workers[0].model }
