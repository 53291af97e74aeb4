// Command oeps runs one OpenEmbedding parameter-server node: a storage
// engine (PMem-OE by default, or any baseline) served over TCP.
//
//	oeps -addr :7070 -engine pmem-oe -dim 64 -capacity 1048576 \
//	     -cache 131072 -pmem-image /var/lib/oeps/shard0.img \
//	     -debug-addr :7071
//
// With -serve (pmem-oe only), the node also answers online-inference
// bag-gather requests (MsgPullBag) over the engine's lock-free snapshot
// path, refreshing the hot set every -serve-refresh; drive load at it with
// `oectl serve-bench`. With -pmem-image, the node recovers from an
// existing image on start and saves the durable image on shutdown
// (SIGINT/SIGTERM). With -debug-addr,
// the node serves its observability endpoints over HTTP: /metrics
// (Prometheus-style text), /metrics.json, and /debug/obs (Chrome
// trace_event JSON — load it in chrome://tracing or ui.perfetto.dev).
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"openembedding/internal/obs"
	"openembedding/internal/optim"
	"openembedding/internal/ps"
	"openembedding/internal/psengine"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:7070", "listen address")
		debugAddr = flag.String("debug-addr", "", "observability HTTP address (/metrics, /metrics.json, /debug/obs); empty disables")
		engine    = flag.String("engine", "pmem-oe", "storage engine: pmem-oe|dram-ps|ori-cache|pmem-hash")
		dim       = flag.Int("dim", 64, "embedding dimension")
		capacity  = flag.Int("capacity", 1<<20, "max distinct embedding entries")
		cache     = flag.Int("cache", 0, "DRAM cache entries (default capacity/8)")
		optName   = flag.String("optimizer", "adagrad", "server-side optimizer: adagrad|sgd")
		lr        = flag.Float64("lr", 0.05, "learning rate")
		shards    = flag.Int("shards", 0, "engine key-space shards, rounded to a power of two (default GOMAXPROCS)")
		image     = flag.String("pmem-image", "", "PMem image file (recover on start, save on stop)")
		ckptDir   = flag.String("checkpoint-dir", "", "incremental-checkpoint directory (baseline engines)")
		serveBags = flag.Bool("serve", false, "enable the online inference tier: answer pull-bag gathers over the lock-free snapshot path (pmem-oe only)")
		serveRef  = flag.Duration("serve-refresh", 250*time.Millisecond, "hot-set snapshot refresh interval with -serve; 0 disables the background refresher")
	)
	flag.Parse()
	if *serveBags && *engine != "pmem-oe" {
		log.Fatalf("oeps: -serve requires -engine pmem-oe (got %q)", *engine)
	}

	opt, err := optim.ByName(*optName, float32(*lr))
	if err != nil {
		log.Fatalf("oeps: %v", err)
	}
	var reg *obs.Registry
	if *debugAddr != "" {
		reg = obs.NewRegistry()
	}
	node, err := ps.StartNode(*addr, ps.NodeConfig{
		Engine: *engine,
		Store: psengine.Config{
			Dim:          *dim,
			Capacity:     *capacity,
			CacheEntries: *cache,
			Optimizer:    opt,
			Shards:       *shards,
			Obs:          reg,
		},
		PMemImage:     *image,
		CheckpointDir: *ckptDir,
		Serve:         *serveBags,
	})
	if err != nil {
		log.Fatalf("oeps: %v", err)
	}
	fmt.Printf("oeps: %s engine serving on %s", *engine, node.Addr())
	if node.RecoveredBatch >= 0 {
		fmt.Printf(" (recovered to checkpoint %d)", node.RecoveredBatch)
	}
	fmt.Println()

	stopRefresh := func() {}
	if *serveBags && *serveRef > 0 {
		stopRefresh = node.ServeHandler().StartRefresher(*serveRef)
		fmt.Printf("oeps: bag serving enabled (refresh every %s)\n", *serveRef)
	} else if *serveBags {
		fmt.Println("oeps: bag serving enabled (background refresh disabled)")
	}

	var debugSrv *http.Server
	if *debugAddr != "" {
		debugSrv = &http.Server{Addr: *debugAddr, Handler: node.ObsHandler()}
		go func() {
			fmt.Printf("oeps: observability on http://%s/metrics\n", *debugAddr)
			if err := debugSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("oeps: debug server: %v", err)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Println("oeps: shutting down")
	stopRefresh()
	if debugSrv != nil {
		debugSrv.Close()
	}
	if err := node.Close(); err != nil {
		log.Fatalf("oeps: shutdown: %v", err)
	}
}
