// distributed runs a 3-node OpenEmbedding cluster over TCP in one process:
// embedding entries are hash-partitioned across the nodes (Sec. IV), and a
// synchronous training loop drives pulls, pushes and a cluster-wide
// checkpoint through the partitioned client. One shard then loses power and
// is restarted in place; the client rolls the cluster back to its committed
// checkpoint, replays the lost batches, and the example checks that the
// replayed weights are bit-identical to the ones the crash destroyed
// (Sec. V-C).
//
// In production each node would be its own oeps process (see cmd/oeps);
// here they share a process for a self-contained demo — the bytes still
// cross real TCP sockets.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"openembedding"
)

const dim = 8

func main() {
	// Start three shards.
	var shards []*openembedding.Server
	var addrs []string
	for i := 0; i < 3; i++ {
		shard, err := openembedding.Open(openembedding.Config{
			Dim: dim, Capacity: 10_000, CacheEntries: 512,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer shard.Close()
		node, err := shard.ListenAndServe("127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		shards = append(shards, shard)
		addrs = append(addrs, node.Addr())
		fmt.Printf("shard %d serving on %s\n", i, node.Addr())
	}

	cl, err := openembedding.Dial(dim, addrs...)
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()

	// trainBatch draws the batch's keys and gradients from the batch ID
	// alone, so a replay after a rollback trains exactly what was lost.
	trainBatch := func(batch int64) error {
		rng := rand.New(rand.NewSource(2 + batch))
		// A skewed key mix: hot keys 0-2 plus a random tail.
		seen := map[uint64]bool{}
		var keys []uint64
		for _, k := range []uint64{0, 1, 2, uint64(rng.Intn(5000)), uint64(rng.Intn(5000)), uint64(rng.Intn(5000))} {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
		weights := make([]float32, len(keys)*dim)
		grads := make([]float32, len(keys)*dim)
		if err := cl.Pull(batch, keys, weights); err != nil { // fans out to the owning nodes
			return err
		}
		if err := cl.EndPullPhase(batch); err != nil {
			return err
		}
		for i := range grads {
			grads[i] = float32(rng.NormFloat64()) * 0.1
		}
		if err := cl.Push(batch, keys, grads); err != nil {
			return err
		}
		return cl.EndBatch(batch)
	}
	// hotRows reads the hot keys in a batch of their own that trains nothing.
	hotRows := func(batch int64) []float32 {
		keys := []uint64{0, 1, 2}
		weights := make([]float32, len(keys)*dim)
		must(cl.Pull(batch, keys, weights))
		must(cl.EndPullPhase(batch))
		must(cl.EndBatch(batch))
		return weights
	}

	const ckptBatch, lastBatch = 19, 24
	for batch := int64(0); batch <= ckptBatch; batch++ {
		must(trainBatch(batch))
	}
	// Cluster-wide checkpoint: each shard checkpoints independently; the
	// cluster's durable progress is the minimum across shards. Reading it
	// waits for each shard to finish the checkpoint.
	must(cl.RequestCheckpoint(ckptBatch))
	commit, err := cl.CompletedCheckpoint()
	must(err)
	if commit < ckptBatch {
		log.Fatalf("cluster checkpoint at %d, want %d", commit, ckptBatch)
	}
	st, err := cl.Stats()
	must(err)
	fmt.Printf("\ncluster: %d entries across %d shards, %d hits / %d misses\n",
		st.Entries, len(addrs), st.Hits, st.Misses)
	fmt.Printf("cluster-wide completed checkpoint: batch %d\n", commit)

	for batch := commit + 1; batch <= lastBatch; batch++ {
		must(trainBatch(batch))
	}
	want := hotRows(lastBatch + 1)

	fmt.Printf("\n*** shard 1 loses power *** (batches %d-%d were never checkpointed)\n", commit+1, lastBatch)
	shards[1].SimulateCrash()
	if err := trainBatch(lastBatch + 2); err == nil || !cl.Recoverable(err) {
		log.Fatalf("batch against a crashed shard: %v, want a recoverable error", err)
	}
	recovered, err := shards[1].Recover() // same address, bumped epoch
	must(err)
	fmt.Printf("shard 1 restarted from its PMem image at checkpoint batch %d\n", recovered)
	commit, err = cl.CompletedCheckpoint()
	must(err)
	must(cl.Recover(commit)) // every shard back to the commit, every connection re-fenced
	fmt.Printf("cluster rolled back to batch %d, replaying %d-%d ...\n", commit, commit+1, lastBatch)
	for batch := commit + 1; batch <= lastBatch; batch++ {
		must(trainBatch(batch))
	}
	got := hotRows(lastBatch + 1)
	for i := range want {
		if got[i] != want[i] {
			log.Fatalf("MISMATCH hot weight [%d]: replayed %v, before the crash %v", i, got[i], want[i])
		}
	}
	rep, err := cl.Scrub()
	must(err)
	if rep.Corrupt != 0 {
		log.Fatalf("scrub after recovery: %+v", rep)
	}
	fmt.Printf("state verified: replayed weights == pre-crash weights, bit for bit; scrub passed %d records\n", rep.Scanned)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
