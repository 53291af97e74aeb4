// Command oectl talks to running oeps nodes.
//
//	oectl -nodes 127.0.0.1:7070,127.0.0.1:7071 stats
//	oectl -nodes ... -obs http://127.0.0.1:7071 stats
//	oectl -nodes ... -dim 64 pull 12 34 56
//	oectl -nodes ... checkpoint 41
//	oectl -nodes ... completed
//	oectl -nodes ... -dim 64 drive 4 256
//	oectl -nodes ... scrub
//	oectl -nodes ... ping
//	oectl -nodes ... ring
//	oectl -nodes ... join 41 127.0.0.1:7073
//	oectl -nodes ... leave 41 2
//	oectl -nodes ... -dim 64 serve-bench -duration 10s -conns 8
//
// ping probes every node with the health RPC and prints its epoch,
// round-trip time and whether it serves bag reads. ring samples the
// consistent-hash placement and prints each node's key share at the
// current ownership epoch.
//
// join <batch> <addr> live-migrates the joining node's ring share to it
// (checkpoint copy, delta replay, verify, epoch flip) and prints the
// migration counters; batch is the last sealed batch, and the cluster
// must be quiesced (no concurrent training) for the duration. leave
// <batch> <node> is the inverse: it drains the leaving node's share to
// the survivors and retires it.
//
// drive [batches [keys]] runs the synchronous batch protocol
// (pull/end-pull/push/end-batch, tiny constant gradients) so a live
// cluster has real persisted state to inspect with stats, checkpoint and
// scrub — a smoke/load driver, not a trainer.
//
// serve-bench fires a flash-crowd embedding-bag workload at nodes started
// with `oeps -serve`: each request gathers -tables × -batch bags of -bag
// keys drawn from a rotating Zipf-like hot set (internal/workload
// FlashCrowd), and the tool prints achieved QPS and client-side p50/p99
// latency. With -obs it additionally scrapes the node's serve_* counters
// to show how many keys were served lock-free from the snapshot versus
// the locked fallback paths.
//
// With -obs pointing at a node's -debug-addr, stats additionally scrapes
// /metrics.json and pretty-prints the node's latency percentiles (pull,
// push, miss service, RPC RTT), byte counters and checkpoint stalls; scrub
// additionally prints that node's lifetime integrity counters (records
// scanned/healed by scrubs, corrupt serves, recovery fallbacks).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"openembedding/internal/cluster"
	"openembedding/internal/obs"
	"openembedding/internal/rpc"
	"openembedding/internal/workload"
)

func main() {
	var (
		nodes  = flag.String("nodes", "127.0.0.1:7070", "comma-separated node addresses")
		dim    = flag.Int("dim", 64, "embedding dimension (for pull)")
		obsURL = flag.String("obs", "", "observability base URL of one node (its oeps -debug-addr); stats scrapes <url>/metrics.json")
	)
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "oectl: need a command: ping|ring|join|leave|stats|pull|checkpoint|completed|drive|scrub|serve-bench")
		os.Exit(2)
	}
	addrs := strings.Split(*nodes, ",")

	switch args[0] {
	case "ping":
		if unreachable := pingNodes(os.Stdout, addrs); len(unreachable) > 0 {
			fmt.Printf("%d/%d nodes unreachable: %s\n", len(unreachable), len(addrs), strings.Join(unreachable, ", "))
			os.Exit(1)
		}
		fmt.Printf("all %d node(s) reachable\n", len(addrs))
	case "ring":
		cl := dial(*dim, addrs)
		defer cl.Close()
		const sample = 100_000
		counts := make([]int, cl.Nodes())
		for k := uint64(0); k < sample; k++ {
			counts[cl.Owner(k)]++
		}
		fmt.Printf("placement epoch=%d nodes=%d (%d-key sample)\n", cl.Epoch(), cl.Nodes(), sample)
		for i, a := range addrs {
			fmt.Printf("node %d %-21s %5.1f%% of keys\n", i, a, 100*float64(counts[i])/sample)
		}
	case "join":
		if len(args) != 3 {
			log.Fatal("oectl: join needs <last-sealed-batch> <addr>")
		}
		batch, err := strconv.ParseInt(args[1], 10, 64)
		if err != nil {
			log.Fatalf("oectl: bad batch %q", args[1])
		}
		reg := obs.NewRegistry()
		cl, err := cluster.DialOpts(*dim, addrs, cluster.Options{Obs: reg})
		if err != nil {
			log.Fatalf("oectl: %v", err)
		}
		defer cl.Close()
		start := time.Now()
		if err := cl.Join(batch, args[2]); err != nil {
			log.Fatalf("oectl: join: %v", err)
		}
		fmt.Printf("joined %s: cluster now %d node(s) at epoch %d\n", args[2], cl.Nodes(), cl.Epoch())
		printMigrationCounters(reg, time.Since(start))
	case "leave":
		if len(args) != 3 {
			log.Fatal("oectl: leave needs <last-sealed-batch> <node-index>")
		}
		batch, err := strconv.ParseInt(args[1], 10, 64)
		if err != nil {
			log.Fatalf("oectl: bad batch %q", args[1])
		}
		node, err := strconv.Atoi(args[2])
		if err != nil {
			log.Fatalf("oectl: bad node index %q", args[2])
		}
		reg := obs.NewRegistry()
		cl, err := cluster.DialOpts(*dim, addrs, cluster.Options{Obs: reg})
		if err != nil {
			log.Fatalf("oectl: %v", err)
		}
		defer cl.Close()
		start := time.Now()
		if err := cl.Leave(batch, node); err != nil {
			log.Fatalf("oectl: leave: %v", err)
		}
		fmt.Printf("node %d left: cluster now %d node(s) at epoch %d\n", node, cl.Nodes(), cl.Epoch())
		printMigrationCounters(reg, time.Since(start))
	case "stats":
		cl := dial(*dim, addrs)
		defer cl.Close()
		st, err := cl.Stats()
		if err != nil {
			log.Fatalf("oectl: %v", err)
		}
		fmt.Printf("entries=%d cached=%d hits=%d misses=%d (miss rate %.2f%%)\n",
			st.Entries, st.CachedEntries, st.Hits, st.Misses, st.MissRate()*100)
		fmt.Printf("pmem reads=%d writes=%d evictions=%d checkpoints=%d\n",
			st.PMemReads, st.PMemWrites, st.Evictions, st.CheckpointsDone)
		if *obsURL != "" {
			fmt.Println()
			if err := scrapeObs(*obsURL); err != nil {
				log.Fatalf("oectl: obs scrape: %v", err)
			}
		}
	case "pull":
		if len(args) < 2 {
			log.Fatal("oectl: pull needs keys")
		}
		keys := make([]uint64, 0, len(args)-1)
		for _, a := range args[1:] {
			k, err := strconv.ParseUint(a, 10, 64)
			if err != nil {
				log.Fatalf("oectl: bad key %q", a)
			}
			keys = append(keys, k)
		}
		cl := dial(*dim, addrs)
		defer cl.Close()
		dst := make([]float32, len(keys)**dim)
		if err := cl.Pull(0, keys, dst); err != nil {
			log.Fatalf("oectl: %v", err)
		}
		for i, k := range keys {
			fmt.Printf("%d: %v\n", k, dst[i**dim:(i+1)**dim])
		}
	case "checkpoint":
		if len(args) != 2 {
			log.Fatal("oectl: checkpoint needs a batch id")
		}
		batch, err := strconv.ParseInt(args[1], 10, 64)
		if err != nil {
			log.Fatalf("oectl: bad batch %q", args[1])
		}
		cl := dial(*dim, addrs)
		defer cl.Close()
		if err := cl.RequestCheckpoint(batch); err != nil {
			log.Fatalf("oectl: %v", err)
		}
		fmt.Printf("checkpoint %d requested\n", batch)
	case "completed":
		cl := dial(*dim, addrs)
		defer cl.Close()
		v, err := cl.CompletedCheckpoint()
		if err != nil {
			log.Fatalf("oectl: %v", err)
		}
		fmt.Printf("completed checkpoint: %d\n", v)
	case "drive":
		batches, keyN := 3, 64
		var err error
		if len(args) > 1 {
			if batches, err = strconv.Atoi(args[1]); err != nil || batches < 1 {
				log.Fatalf("oectl: bad batch count %q", args[1])
			}
		}
		if len(args) > 2 {
			if keyN, err = strconv.Atoi(args[2]); err != nil || keyN < 1 {
				log.Fatalf("oectl: bad key count %q", args[2])
			}
		}
		cl := dial(*dim, addrs)
		defer cl.Close()
		keys := make([]uint64, keyN)
		for i := range keys {
			keys[i] = uint64(i + 1)
		}
		buf := make([]float32, keyN**dim)
		for b := int64(0); b < int64(batches); b++ {
			if err := cl.Pull(b, keys, buf); err != nil {
				log.Fatalf("oectl: drive batch %d pull: %v", b, err)
			}
			if err := cl.EndPullPhase(b); err != nil {
				log.Fatalf("oectl: drive batch %d: %v", b, err)
			}
			for i := range buf {
				buf[i] = 0.1
			}
			if err := cl.Push(b, keys, buf); err != nil {
				log.Fatalf("oectl: drive batch %d push: %v", b, err)
			}
			if err := cl.EndBatch(b); err != nil {
				log.Fatalf("oectl: drive batch %d: %v", b, err)
			}
		}
		fmt.Printf("drove %d batch(es) of %d key(s) across %d node(s)\n", batches, keyN, len(addrs))
	case "scrub":
		cl := dial(*dim, addrs)
		defer cl.Close()
		rep, err := cl.Scrub()
		if err != nil {
			log.Fatalf("oectl: %v", err)
		}
		fmt.Printf("scrubbed %d node(s): scanned=%d corrupt=%d repaired=%d restored=%d fenced=%d quarantined=%d\n",
			len(addrs), rep.Scanned, rep.Corrupt, rep.Repaired, rep.Restored, rep.Fenced, rep.Quarantined)
		if rep.Restored+rep.Fenced > 0 {
			fmt.Println("state regressed on at least one node (restored/fenced entries): its epoch is fenced — workers must re-adopt the epoch and replay, as after a crash")
		} else if rep.Corrupt > 0 {
			fmt.Println("all corruption repaired in place; no state loss, epochs unchanged")
		} else {
			fmt.Println("all records verified clean")
		}
		if *obsURL != "" {
			fmt.Println()
			if err := scrapeIntegrity(*obsURL); err != nil {
				log.Fatalf("oectl: obs scrape: %v", err)
			}
		}
	case "serve-bench":
		serveBench(*dim, addrs, *obsURL, args[1:])
	default:
		log.Fatalf("oectl: unknown command %q", args[0])
	}
}

// pingNodes probes every address once and writes one row per node: its
// epoch, round-trip time and serving status, or UNREACHABLE with the cause.
// Short deadlines and a single attempt: a dead or gray-failed node should
// print its row in seconds, not hold the sweep for the default 30s timeout
// times three attempts. It returns the unreachable nodes.
func pingNodes(w io.Writer, addrs []string) (unreachable []string) {
	opts := rpc.Options{
		Timeout:     3 * time.Second,
		MaxAttempts: 1,
	}
	for i, a := range addrs {
		// A refused or timed-out connect is deferred to the first request,
		// so both causes surface from PingInfo; the dial itself only fails
		// on a server that rejects the handshake.
		c, err := rpc.DialOpts(a, opts)
		var h rpc.NodeHealth
		if err == nil {
			h, err = c.PingInfo()
			c.Close()
		}
		if err != nil {
			fmt.Fprintf(w, "%-21s UNREACHABLE (%v)\n", a, err)
			unreachable = append(unreachable, fmt.Sprintf("node %d (%s)", i, a))
			continue
		}
		serving := "training-only"
		if h.Serving {
			serving = "serving"
		}
		fmt.Fprintf(w, "%-21s ok    epoch=%d rtt=%s %s\n", a, h.Epoch, h.RTT.Round(time.Microsecond), serving)
	}
	return unreachable
}

// serveBench drives the flash-crowd bag-gather workload and reports
// throughput and client-observed latency percentiles.
func serveBench(dim int, addrs []string, obsURL string, args []string) {
	fs := flag.NewFlagSet("serve-bench", flag.ExitOnError)
	var (
		dur      = fs.Duration("duration", 10*time.Second, "how long to drive load")
		conns    = fs.Int("conns", 4, "concurrent client connections")
		tables   = fs.Int("tables", 26, "sparse fields per request (embedding tables)")
		batch    = fs.Int("batch", 128, "samples per request")
		bagSize  = fs.Int("bag", 1, "keys per bag")
		keyspace = fs.Int("keys", 1<<20, "key-space size")
		hot      = fs.Int("hot", 4096, "flash-crowd hot-set size")
		hotShare = fs.Float64("hot-share", 0.9, "fraction of draws hitting the hot set")
		rotate   = fs.Duration("rotate", 5*time.Second, "hot-set rotation period")
		seed     = fs.Uint64("seed", 42, "workload seed")
		mean     = fs.Bool("mean", false, "mean-pool bags instead of sum")
	)
	fs.Parse(args) //nolint:errcheck // ExitOnError
	bags := *tables * *batch
	keysPer := bags * *bagSize

	type workerOut struct {
		reqs int
		lats []time.Duration
		err  error
	}
	outs := make([]workerOut, *conns)
	var wg sync.WaitGroup
	deadline := time.Now().Add(*dur)
	for w := 0; w < *conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl, err := cluster.Dial(dim, addrs)
			if err != nil {
				outs[w].err = err
				return
			}
			defer cl.Close()
			// Per-worker seed: the crowd itself is shared (same seed,
			// window), but draw sequences must differ or every worker
			// requests identical bags.
			fc := workload.NewFlashCrowd(*keyspace, *hot, *hotShare, *rotate, *seed+uint64(w)<<32)
			offsets := make([]uint32, bags+1)
			for b := range offsets {
				offsets[b] = uint32(b * *bagSize)
			}
			keys := make([]uint64, keysPer)
			out := make([]float32, bags*dim)
			start := time.Now()
			for {
				now := time.Since(start)
				if time.Now().After(deadline) {
					return
				}
				fc.Advance(now)
				for i := range keys {
					keys[i] = fc.Sample()
				}
				t0 := time.Now()
				if err := cl.PullBags(*mean, offsets, keys, out); err != nil {
					outs[w].err = err
					return
				}
				outs[w].reqs++
				outs[w].lats = append(outs[w].lats, time.Since(t0))
			}
		}(w)
	}
	wg.Wait()

	var reqs int
	var lats []time.Duration
	for _, o := range outs {
		if o.err != nil {
			log.Fatalf("oectl: serve-bench: %v", o.err)
		}
		reqs += o.reqs
		lats = append(lats, o.lats...)
	}
	if reqs == 0 {
		log.Fatal("oectl: serve-bench: no requests completed")
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pct := func(p float64) time.Duration {
		i := int(p * float64(len(lats)-1))
		return lats[i]
	}
	qps := float64(reqs) / dur.Seconds()
	fmt.Printf("serve-bench: %d conn(s) × %s against %d node(s): %d tables × %d samples × %d key(s)/bag (%d keys/req)\n",
		*conns, dur, len(addrs), *tables, *batch, *bagSize, keysPer)
	fmt.Printf("requests=%d QPS=%.0f bags/s=%.0f keys/s=%.0f\n",
		reqs, qps, qps*float64(bags), qps*float64(keysPer))
	fmt.Printf("request latency p50=%s p99=%s max=%s\n",
		pct(0.50).Round(time.Microsecond), pct(0.99).Round(time.Microsecond), lats[len(lats)-1].Round(time.Microsecond))
	if obsURL != "" {
		fmt.Println()
		if err := scrapeServe(obsURL); err != nil {
			log.Fatalf("oectl: obs scrape: %v", err)
		}
	}
}

// printMigrationCounters prints the cluster_* migration counters a join or
// leave recorded in this process's registry (the coordinator is the
// counting side; a trainer's -obs endpoint exposes the same names).
func printMigrationCounters(reg *obs.Registry, wall time.Duration) {
	for _, name := range []string{"cluster_migrations", "cluster_migrated_keys"} {
		fmt.Printf("%-26s %d\n", name, reg.Counter(name).Value())
	}
	fmt.Printf("%-26s %s\n", "wall time", wall.Round(time.Millisecond))
}

// scrapeServe fetches <base>/metrics.json and prints the node's serving
// counters, including the lock-free snapshot hit rate.
func scrapeServe(base string) error {
	snap, err := fetchSnapshot(base)
	if err != nil {
		return err
	}
	fmt.Printf("node serving counters (%s):\n", base)
	for _, name := range []string{
		"serve_requests", "serve_keys", "serve_snap_hits",
		"serve_dram_fallback", "serve_pmem_fallback", "serve_init_served",
		"serve_refreshes",
	} {
		fmt.Printf("%-26s %d\n", name, snap.Counters[name])
	}
	if keys := snap.Counters["serve_keys"]; keys > 0 {
		fmt.Printf("%-26s %.2f%%\n", "snapshot hit rate", 100*float64(snap.Counters["serve_snap_hits"])/float64(keys))
	}
	return nil
}

// scrapeObs fetches <base>/metrics.json and pretty-prints it.
func scrapeObs(base string) error {
	snap, err := fetchSnapshot(base)
	if err != nil {
		return err
	}
	fmt.Printf("node observability (%s):\n", base)
	return snap.WriteSummary(os.Stdout)
}

// scrapeIntegrity fetches <base>/metrics.json and prints only the node's
// lifetime data-integrity counters (the scrub section of oectl scrub -obs).
func scrapeIntegrity(base string) error {
	snap, err := fetchSnapshot(base)
	if err != nil {
		return err
	}
	fmt.Printf("node integrity counters (%s):\n", base)
	for _, name := range []string{
		"engine_scrub_scanned", "engine_scrub_corrupt", "engine_scrub_repaired",
		"engine_scrub_restored", "engine_scrub_fenced",
		"engine_corrupt_serve", "engine_recover_fallback",
	} {
		fmt.Printf("%-26s %d\n", name, snap.Counters[name])
	}
	return nil
}

func fetchSnapshot(base string) (obs.Snapshot, error) {
	url := strings.TrimSuffix(base, "/") + "/metrics.json"
	resp, err := http.Get(url)
	if err != nil {
		return obs.Snapshot{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return obs.Snapshot{}, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return obs.Snapshot{}, fmt.Errorf("decode %s: %w", url, err)
	}
	return snap, nil
}

func dial(dim int, addrs []string) *cluster.Client {
	cl, err := cluster.Dial(dim, addrs)
	if err != nil {
		log.Fatalf("oectl: %v", err)
	}
	return cl
}
