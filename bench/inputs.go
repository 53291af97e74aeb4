package main

import (
	"math/rand"
	"time"

	"openembedding/internal/workload"
)

// Geometry shared by the workloads. Every embedding is 16 floats; a gather
// is the README's 26 tables x 128 samples of one-key bags.
const (
	dim = 16

	serveTables  = 26
	serveSamples = 128
	serveBags    = serveTables * serveSamples // 3328 keys per request
	serveKeys    = 1 << 16
	crowdHot     = 4096
	crowdShare   = 0.9
	// Requests are pre-generated into a pool each client cycles through;
	// the flash crowd jumps to a fresh hot set every gatherRotate requests
	// of the pool, by request index, so the sequence is the same whatever
	// the speed of the system under test.
	gatherPool   = 512
	gatherRotate = 128

	coldKeyspace = 1 << 18
	coldDraws    = 4096
	batchPool    = 128 // pre-generated key sets each batch loader cycles through
	batchRotate  = 32  // writer batches per flash-crowd window
	mixedDraws   = 2048

	trainWorkers   = 2
	trainBatchSize = 512
	trainScale     = 0.01
)

// gatherInputs generates one client's pool of gather requests.
func gatherInputs(seed int64, client int) [][]uint64 {
	fc := workload.NewFlashCrowd(serveKeys, crowdHot, crowdShare, time.Second, uint64(seed)+uint64(client)<<32)
	pool := make([][]uint64, gatherPool)
	for i := range pool {
		fc.Advance(time.Duration(i/gatherRotate) * time.Second)
		keys := make([]uint64, serveBags)
		for j := range keys {
			keys[j] = fc.Sample()
		}
		pool[i] = keys
	}
	return pool
}

// bagOffsets are the offsets of n one-key bags.
func bagOffsets(n int) []uint32 {
	offs := make([]uint32, n+1)
	for i := range offs {
		offs[i] = uint32(i)
	}
	return offs
}

// coldInputs generates one loader's pool of deduplicated uniform key sets
// over a key space 16x the engine's cache.
func coldInputs(seed int64, loader int) [][]uint64 {
	s := workload.NewUniformKeys(coldKeyspace, seed*7919+int64(loader))
	pool := make([][]uint64, batchPool)
	for i := range pool {
		pool[i] = workload.Batch(s, coldDraws)
	}
	return pool
}

// writerInputs generates the mixed workload's writer batches from the same
// flash crowd the reader draws its gathers from.
func writerInputs(seed int64) [][]uint64 {
	fc := workload.NewFlashCrowd(serveKeys, crowdHot, crowdShare, time.Second, uint64(seed))
	pool := make([][]uint64, batchPool)
	for i := range pool {
		fc.Advance(time.Duration(i/batchRotate) * time.Second)
		pool[i] = workload.Batch(fc, mixedDraws)
	}
	return pool
}

// gradInputs generates a gradient buffer large enough for any batch.
func gradInputs(seed int64, keys int) []float32 {
	rng := rand.New(rand.NewSource(seed ^ 0x67726164))
	g := make([]float32, keys*dim)
	for i := range g {
		g[i] = (rng.Float32() - 0.5) * 0.02
	}
	return g
}

// trainData is the trainer's sample source: every worker shares the label
// model (seed) and draws its own feature stream.
func trainData(seed int64) func(stream int64) *workload.CriteoSynthetic {
	return func(stream int64) *workload.CriteoSynthetic {
		return workload.NewCriteo(workload.CriteoConfig{Scale: trainScale, Seed: seed, StreamSeed: stream})
	}
}

// trainDataSeed is worker 0's stream seed; worker w uses trainDataSeed+w.
func trainDataSeed(seed int64) int64 { return seed*1000 + 1 }
