// fault_tolerance demonstrates the batch-aware checkpoint end to end: train
// for a while, let a checkpoint complete as a side effect of cache
// maintenance, lose power mid-epoch, recover from PMem, verify the model
// state is exactly the checkpointed batch, and resume training.
//
// The PMem image lives in a temp file, so the "power failure" also kills
// the process state: recovery reads only what was durably flushed.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"

	"openembedding"
)

const (
	dim      = 8
	capacity = 4096
	cacheSz  = 64 // small cache: heavy PMem traffic, the interesting case
)

func main() {
	dir, err := os.MkdirTemp("", "oe-fault")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	image := filepath.Join(dir, "shard.img")

	cfg := openembedding.Config{
		Dim: dim, Capacity: capacity, CacheEntries: cacheSz,
		Optimizer: "sgd", LearningRate: 0.1, PMemPath: image,
	}
	ps, err := openembedding.Open(cfg)
	if err != nil {
		log.Fatal(err)
	}

	rng := rand.New(rand.NewSource(1))
	oracle := map[int64]map[uint64][]float32{} // batch -> key -> weights

	trainBatch := func(batch int64) {
		keys := []uint64{1, 2, uint64(3 + rng.Intn(200))}
		weights := make([]float32, len(keys)*dim)
		grads := make([]float32, len(keys)*dim)
		for i := range grads {
			grads[i] = float32(rng.NormFloat64())
		}
		must(ps.Pull(batch, keys, weights))
		ps.EndPullPhase(batch)
		must(ps.Push(batch, keys, grads))
		must(ps.EndBatch(batch))
	}
	snapshot := func(batch int64) {
		keys := []uint64{1, 2}
		weights := make([]float32, len(keys)*dim)
		must(ps.Pull(batch+1, keys, weights))
		ps.EndPullPhase(batch + 1)
		must(ps.EndBatch(batch + 1))
		snap := map[uint64][]float32{}
		for i, k := range keys {
			snap[k] = append([]float32(nil), weights[i*dim:(i+1)*dim]...)
		}
		oracle[batch] = snap
	}

	fmt.Println("training batches 0-9 ...")
	for b := int64(0); b < 10; b++ {
		trainBatch(b)
	}
	fmt.Println("requesting checkpoint at batch 9 (cheap: just enqueues)")
	must(ps.RequestCheckpoint(9))
	snapshot(9) // remember the state the checkpoint must capture

	fmt.Println("training batches 12-19 (checkpoint completes in the background) ...")
	for b := int64(12); b < 20; b++ {
		trainBatch(b)
	}
	fmt.Printf("completed checkpoint: %d\n", ps.CompletedCheckpoint())

	fmt.Println("\n*** POWER FAILURE *** (unflushed DRAM and PMem store buffers lost)")
	ps.SimulateCrash()
	if err := ps.Pull(20, []uint64{1}, make([]float32, dim)); err == nil {
		log.Fatal("a crashed server answered a pull")
	}
	must(ps.Save()) // the durable image is what a DAX-mapped file would hold

	fmt.Println("restarting from the PMem image ...")
	ps, err = openembedding.Open(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer ps.Close()
	fmt.Printf("recovered to checkpoint batch %d\n", ps.RecoveredBatch)

	// Verify: keys 1 and 2 must hold exactly their batch-9 state; the
	// post-checkpoint updates (batches 12-19) are gone, atomically.
	keys := []uint64{1, 2}
	weights := make([]float32, len(keys)*dim)
	must(ps.Pull(ps.RecoveredBatch+1, keys, weights))
	ps.EndPullPhase(ps.RecoveredBatch + 1)
	must(ps.EndBatch(ps.RecoveredBatch + 1))
	want := oracle[9]
	for i, k := range keys {
		got := weights[i*dim : (i+1)*dim]
		for d := range got {
			if got[d] != want[k][d] {
				log.Fatalf("MISMATCH key %d[%d]: recovered %v, checkpoint state %v", k, d, got[d], want[k][d])
			}
		}
	}
	fmt.Println("state verified: recovered weights == checkpoint-9 state, post-checkpoint updates discarded")

	fmt.Println("resuming training at batch", ps.RecoveredBatch+2)
	for b := ps.RecoveredBatch + 2; b < ps.RecoveredBatch+6; b++ {
		trainBatch(b)
	}
	fmt.Println("resumed OK")
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
