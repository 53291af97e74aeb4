package main

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"openembedding/internal/cluster"
	"openembedding/internal/core"
	"openembedding/internal/model"
	"openembedding/internal/psengine"
	"openembedding/internal/rpc"
	"openembedding/internal/train"
	"openembedding/internal/workload"
)

// workloadInfo names a workload and records why it exists; BENCHMARK.json
// carries the same list.
type workloadInfo struct {
	name  string
	why   string
	op    string // what one primary operation is
	unit  string // what ops_per_s counts
	build func(seed int64, ly *layers) (*scenario, error)
}

var workloadList = []workloadInfo{
	{
		name: "train-tcp-fit", op: "training step", unit: "samples",
		why:   "DeepFM trainer, 2 workers, against 2 PS nodes over TCP, working set fits the cache: every layer on the path, pmem idle, PS is a third of a step",
		build: buildTrain,
	},
	{
		name: "engine-local-cold", op: "PS batch", unit: "keys",
		why:   "batch protocol straight on one engine, uniform keys over 16x the cache, checkpoint every 25 batches: pmem and maintenance do the work, rpc and cluster none",
		build: buildCold,
	},
	{
		name: "serve-tcp-hot", op: "26x128 gather", unit: "requests",
		why:   "26x128 one-key-bag gathers from 2 clients to 1 serving node, all snapshot hits, no writes: the wire dominates, the engine is a few percent",
		build: func(seed int64, ly *layers) (*scenario, error) { return buildServe(seed, ly, false) },
	},
	{
		name: "serve-tcp-mixed", op: "26x128 gather", unit: "requests",
		why:   "the same gathers from 1 client while 1 writer trains the same keys and refreshes snapshots; ps_wait_ms_p50 is the writer's batch, so a gain one side pays for shows",
		build: func(seed int64, ly *layers) (*scenario, error) { return buildServe(seed, ly, true) },
	},
}

func findWorkload(name string) *workloadInfo {
	for i := range workloadList {
		if workloadList[i].name == name {
			return &workloadList[i]
		}
	}
	return nil
}

type checkResult struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// scenario is one workload set up and ready to drive: closed loops that
// run from start until stop, recording into rec (and other, for the side of
// a mixed workload that is not the reported one).
type scenario struct {
	ly      *layers
	rec     *recorder
	other   *recorder
	otherOp string
	cleanup closer

	loops  []func() // one per load goroutine
	wg     sync.WaitGroup
	checks func() []checkResult

	engines []psengine.Engine // every engine, for counter deltas
	batches *recorder         // where PS batches are recorded (nil when the workload runs none)
	root    string            // root span name of the budget
	store   psengine.Config   // the engines' configuration
	// pmemOps holds, per sampled batch of engine-local-cold, the pmem
	// record reads and writes the engine counted for it (traced runs).
	pmemOps map[int64][2]int64
}

func (s *scenario) start() {
	for _, f := range s.loops {
		s.wg.Add(1)
		go func(f func()) {
			defer s.wg.Done()
			f()
		}(f)
	}
}

// stop halts the loops after their current operation and waits for them.
func (s *scenario) stop() {
	s.rec.halt.Store(true)
	if s.other != nil {
		s.other.halt.Store(true)
	}
	s.wg.Wait()
}

func (s *scenario) close() { s.cleanup.close() }

// newRecorder gives the scenario's recorders the tracer's time base, so
// client-side and server-side spans share one clock.
func (s *scenario) newRecorder() *recorder {
	t0 := time.Now()
	if s.ly != nil {
		t0 = s.ly.tr.t0
	}
	return &recorder{t0: t0}
}

// ---------------------------------------------------------------- training

var trainStore = psengine.Config{Dim: dim, Capacity: 1 << 18, CacheEntries: 1 << 17}

func trainConfig(seed int64) train.Config {
	return train.Config{
		Workers:   trainWorkers,
		BatchSize: trainBatchSize,
		Model: model.DeepFMConfig{
			Fields: workload.CriteoNumSparse, Dim: dim, Dense: workload.CriteoNumDense,
			Hidden: []int{16}, LR: 0.05, Seed: seed,
		},
		DataSeed: trainDataSeed(seed),
		Data:     trainData(seed),
	}
}

func buildTrain(seed int64, ly *layers) (*scenario, error) {
	s := &scenario{ly: ly, root: "train.step", store: trainStore}
	s.rec = s.newRecorder()
	s.batches = s.rec
	ok := false
	defer func() {
		if !ok {
			s.close()
		}
	}()
	var nodes []*psNode
	for i := 0; i < 2; i++ {
		n, err := startNode(trainStore, false, i, ly)
		if err != nil {
			return nil, err
		}
		s.cleanup.add(n.stop)
		s.engines = append(s.engines, n.engine)
		nodes = append(nodes, n)
	}
	cl, err := dial(nodes, ly)
	if err != nil {
		return nil, err
	}
	s.cleanup.add(cl.Close)
	pt := &psTimer{inner: cl, rec: s.rec, ly: ly, units: trainWorkers * trainBatchSize, phases: true}
	if ly != nil {
		pt.root, pt.rootRung, pt.callRung = s.root, "train", "cluster"
		pt.owner, pt.nodes, pt.sampleMod = cl.Owner, len(nodes), 8
		pt.zeros = make([]float32, trainBatchSize*workload.CriteoNumSparse*dim)
		for w := 0; w < trainWorkers; w++ {
			conns, err := dialReplay(nodes)
			if err != nil {
				return nil, err
			}
			s.cleanup.add(closeConns(conns))
			pt.conns = append(pt.conns, conns)
		}
	}
	cfg := trainConfig(seed)
	cfg.BatchStart = pt.begin
	if ly != nil {
		cfg.Obs = ly.reg
	}
	tr, err := train.New(cfg, pt)
	if err != nil {
		return nil, err
	}
	var stats train.EpochStats
	s.loops = []func(){func() {
		var err error
		stats, err = tr.Run(math.MaxInt32)
		if !errors.Is(err, errHalt) {
			s.rec.fail(fmt.Errorf("trainer: %w", err))
		}
	}}
	s.checks = func() []checkResult { return checkTrain(seed, stats.Steps) }
	ok = true
	return s, nil
}

// checkTrain replays the first steps of the same seed against an
// in-process engine (train.Local): over TCP and two nodes the losses must
// agree, because partitioning moves keys, not arithmetic. They agree to
// 1e-2, not to the bit: when both workers push the same key in one batch,
// AdaGrad's result depends on which push lands first, over TCP and locally
// alike, and in the first steps (largest gradients) that moves the loss by
// up to about 2e-3.
func checkTrain(seed int64, steps []train.StepStats) []checkResult {
	const refSteps = 50
	out := []checkResult{}
	n := refSteps
	if len(steps) < n {
		n = len(steps)
	}
	ref := func() error {
		eng, err := newEngine(trainStore)
		if err != nil {
			return err
		}
		defer eng.Close()
		tr, err := train.New(trainConfig(seed), train.Local{Engine: eng})
		if err != nil {
			return err
		}
		st, err := tr.Run(n)
		if err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			if d := math.Abs(st.Steps[i].Loss - steps[i].Loss); d > 1e-2 || math.IsNaN(d) {
				return fmt.Errorf("step %d: loss %.6f over TCP, %.6f local", i, steps[i].Loss, st.Steps[i].Loss)
			}
		}
		return nil
	}
	if n == 0 {
		out = append(out, checkResult{"loss-matches-local", false, "no steps completed"})
		return out
	}
	if err := ref(); err != nil {
		out = append(out, checkResult{"loss-matches-local", false, err.Error()})
	} else {
		out = append(out, checkResult{"loss-matches-local", true, fmt.Sprintf("first %d steps within 1e-2", n)})
	}
	w := len(steps) / 20 // the first and the last twentieth of the run
	if w == 0 {
		w = 1
	}
	mean := func(ss []train.StepStats) float64 {
		sum := 0.0
		for _, s := range ss {
			sum += s.Loss
		}
		return sum / float64(len(ss))
	}
	first, last := mean(steps[:w]), mean(steps[len(steps)-w:])
	detail := fmt.Sprintf("first twentieth %.4f, last twentieth %.4f over %d steps", first, last, len(steps))
	if w < 10 {
		// A few steps are noisier than the trend over the run.
		return append(out, checkResult{"loss-decreases", true, "not judged, run too short: " + detail})
	}
	return append(out, checkResult{"loss-decreases", last < first, detail})
}

// ------------------------------------------------------------- batch loop

// batchLoop drives the batch protocol (Pull, EndPullPhase, Push, EndBatch)
// in a closed loop from len(pools) loaders.
type batchLoop struct {
	pt        *psTimer
	pools     [][][]uint64 // per loader, cycled by batch index
	grads     []float32
	first     int64 // first batch id
	ckptEvery int64
	lastCkpt  int64 // last checkpoint requested, -1 when none

	refresh      func() error
	refreshEvery int64

	// pending, when set (traced runs), reports checkpoints in flight;
	// batches are then timed apart by it.
	pending func() int
}

func (l *batchLoop) run() {
	rec := l.pt.rec
	dst := make([][]float32, len(l.pools))
	for i := range dst {
		dst[i] = make([]float32, coldDraws*dim)
	}
	each := func(f func(loader int) error) error {
		if len(l.pools) == 1 {
			return f(0)
		}
		errs := make([]error, len(l.pools))
		var wg sync.WaitGroup
		for i := 1; i < len(l.pools); i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = f(i)
			}(i)
		}
		errs[0] = f(0)
		wg.Wait()
		return errors.Join(errs...)
	}
	for b := l.first; !rec.halt.Load(); b++ {
		keysOf := func(loader int) []uint64 {
			pool := l.pools[loader]
			return pool[int(b-l.first)%len(pool)]
		}
		busy := l.pending != nil && l.pending() > 0
		t0 := rec.now()
		l.pt.begin(b)
		err := each(func(i int) error {
			keys := keysOf(i)
			return l.pt.Pull(b, keys, dst[i][:len(keys)*dim])
		})
		if err == nil {
			err = l.pt.EndPullPhase(b)
		}
		if err == nil {
			err = each(func(i int) error {
				keys := keysOf(i)
				return l.pt.Push(b, keys, l.grads[:len(keys)*dim])
			})
		}
		if err == nil {
			err = l.pt.EndBatch(b)
		}
		if err == nil && l.ckptEvery > 0 && (b+1)%l.ckptEvery == 0 {
			if err = l.pt.RequestCheckpoint(b); err == nil {
				l.lastCkpt = b
			}
		}
		l.pt.end()
		if err != nil {
			rec.fail(fmt.Errorf("batch %d: %w", b, err))
			return
		}
		if l.pending != nil {
			name := "bench.batch_plain"
			if busy {
				name = "bench.batch_ckpt"
			}
			l.pt.ly.tr.observe(name, rec.now()-t0)
		}
		if l.refreshEvery > 0 && (b+1)%l.refreshEvery == 0 {
			t := rec.now()
			if err := l.refresh(); err != nil {
				rec.fail(fmt.Errorf("refresh after batch %d: %w", b, err))
				return
			}
			if l.pt.traced() {
				l.pt.ly.tr.observe("serve.refresh", rec.now()-t)
			}
		}
	}
}

// ------------------------------------------------------- engine-local-cold

func buildCold(seed int64, ly *layers) (*scenario, error) {
	store := psengine.Config{Dim: dim, Capacity: coldKeyspace, CacheEntries: 1 << 14}
	s := &scenario{ly: ly, root: "ps.batch", store: store}
	s.rec = s.newRecorder()
	s.batches = s.rec
	if ly != nil {
		store.Obs, store.Meter = ly.reg, ly.meter
	}
	eng, err := newEngine(store)
	if err != nil {
		return nil, err
	}
	s.cleanup.add(eng.Close)
	s.engines = []psengine.Engine{eng}
	pt := &psTimer{inner: train.Local{Engine: eng}, rec: s.rec, ly: ly}
	loop := &batchLoop{
		pt:    pt,
		pools: [][][]uint64{coldInputs(seed, 0), coldInputs(seed, 1)},
		grads: gradInputs(seed, coldDraws), ckptEvery: 25, lastCkpt: -1,
	}
	if ly != nil {
		tr := ly.tr
		pt.inner = train.Local{Engine: &engineSpy{Engine: eng, tr: tr}}
		pt.root, pt.rootRung, pt.nodes, pt.sampleMod = s.root, "bench", 1, 4
		loop.pending = eng.PendingCheckpoints
		// Push waits for the maintenance EndPullPhase queued; draining it
		// explicitly first shows that wait under its own name.
		s.pmemOps = map[int64][2]int64{}
		var last psengine.Stats
		pt.afterPull = func(req int64, root int) {
			start := tr.now()
			eng.WaitMaintenance()
			end := tr.now()
			tr.observe("core.maint_drain", end-start)
			// Counted from one drain's end to the next (Stats takes the
			// shard locks, so it cannot be read while maintenance runs):
			// the reads are this batch's pulls, the writes its evictions.
			st := eng.Stats()
			if root != 0 {
				tr.emit(span{ID: tr.id(), Parent: root, Req: req, Name: "core.maint_drain", Rung: "core", Start: start, End: end})
				s.pmemOps[req] = [2]int64{st.PMemReads - last.PMemReads, st.PMemWrites - last.PMemWrites}
			}
			last = st
		}
	}
	s.loops = []func(){loop.run}
	s.checks = func() []checkResult {
		st := eng.Stats()
		issued := 0
		for _, o := range s.rec.since(-1, math.MaxInt64) {
			issued += o.units
		}
		out := []checkResult{{"lookups-accounted", st.Hits+st.Misses == int64(issued),
			fmt.Sprintf("hits %d + misses %d, keys pulled %d", st.Hits, st.Misses, issued)}}
		if loop.lastCkpt >= 0 {
			done := eng.CompletedCheckpoint()
			out = append(out, checkResult{"checkpoints-complete", done >= loop.lastCkpt-2*loop.ckptEvery,
				fmt.Sprintf("completed %d, last requested %d", done, loop.lastCkpt)})
		}
		return out
	}
	return s, nil
}

// ----------------------------------------------------------------- serving

var serveStore = psengine.Config{Dim: dim, Capacity: 1 << 18, CacheEntries: 1 << 17}

const pretrainBatch = 8192

// pretrain touches and updates every serving key once, so that every
// gather finds trained rows in the snapshot.
func pretrain(eng psengine.Engine, grads []float32) (next int64, err error) {
	keys := make([]uint64, pretrainBatch)
	dst := make([]float32, pretrainBatch*dim)
	g := make([]float32, pretrainBatch*dim)
	for b := int64(0); b < serveKeys/pretrainBatch; b++ {
		for i := range keys {
			keys[i] = uint64(b)*pretrainBatch + uint64(i)
		}
		for i := range g {
			g[i] = grads[i%len(grads)]
		}
		if err := eng.Pull(b, keys, dst); err != nil {
			return 0, err
		}
		eng.EndPullPhase(b)
		if err := eng.Push(b, keys, g); err != nil {
			return 0, err
		}
		if err := eng.EndBatch(b); err != nil {
			return 0, err
		}
	}
	return serveKeys / pretrainBatch, nil
}

// gatherSample is a gather kept for verification after the run.
type gatherSample struct {
	keys []uint64
	out  []float32
}

// reader is one inference frontend: a closed loop of gathers on its own
// cluster client.
type reader struct {
	idx     int
	cl      *cluster.Client
	pool    [][]uint64
	rec     *recorder
	ly      *layers
	keep    bool // keep every 500th answer (only meaningful without writes)
	samples []gatherSample

	// Traced runs only: the rungs under the gather have no seam, so every
	// sampleMod-th gather is replayed one level down at a time.
	conn      *rpc.Client
	eng       *core.Engine
	sampleMod int
}

func (r *reader) run() {
	offs := bagOffsets(serveBags)
	out := make([]float32, serveBags*dim)
	row := make([]float32, dim)
	for i := 0; !r.rec.halt.Load(); i++ {
		keys := r.pool[i%len(r.pool)]
		t0 := r.rec.now()
		err := r.cl.PullBags(false, offs, keys, out)
		t1 := r.rec.now()
		if err != nil {
			r.rec.fail(fmt.Errorf("gather %d of client %d: %w", i, r.idx, err))
			return
		}
		r.rec.add(op{end: t1, dur: t1 - t0, wait: t1 - t0, units: 1})
		if r.keep && i%500 == 0 && len(r.samples) < 64 {
			r.samples = append(r.samples, gatherSample{keys: keys, out: append([]float32(nil), out...)})
		}
		if r.ly == nil {
			continue
		}
		tr := r.ly.tr
		tr.observe("cluster.pullbags", t1-t0)
		if i%r.sampleMod != 0 {
			continue
		}
		// The gather itself is the root; below it, one rpc.Client round
		// trip on a private connection (the handler's span, linked by the
		// note, nests inside it), and below the handler the engine reads
		// it made, repeated on the same keys.
		req := int64(r.idx)<<32 | int64(i)
		root := tr.id()
		tr.emit(span{ID: root, Req: req, Name: "cluster.pullbags", Rung: "cluster", Start: t0, End: t1})
		rpcID := tr.id()
		note := tr.expect(0, r.idx, "pullbag", keys, req, rpcID)
		s := tr.now()
		_, err = r.conn.PullBags(false, offs, keys)
		e := tr.now()
		tr.clear(0, r.idx)
		if err != nil {
			r.rec.fail(fmt.Errorf("replayed gather %d: %w", i, err))
			return
		}
		tr.observe("rpc.pullbag", e-s)
		tr.emit(span{ID: rpcID, Parent: root, Req: req, Name: "rpc.pullbag", Rung: "rpc", Start: s, End: e, Replay: true})
		s = tr.now()
		for _, k := range keys {
			if _, err := r.eng.ServeRead(k, row); err != nil {
				r.rec.fail(fmt.Errorf("replayed engine read: %w", err))
				return
			}
		}
		e = tr.now()
		tr.observe("core.serve_read", e-s)
		if h := int(note.got.Load()); h != 0 {
			tr.emit(span{ID: tr.id(), Parent: h, Req: req, Name: "core.serve_read", Rung: "core", Start: s, End: e, Replay: true})
		}
	}
}

// verifyGather checks out against the per-bag sum of the rows a training
// Pull returns for the same keys: bit-identical, or the serving path read
// something other than the engine's current weights.
func verifyGather(cl *cluster.Client, batch int64, keys []uint64, out []float32) error {
	rows := make([]float32, len(keys)*dim)
	if err := cl.Pull(batch, keys, rows); err != nil {
		return err
	}
	offs := bagOffsets(serveBags)
	sum := make([]float32, dim)
	for b := 0; b < serveBags; b++ {
		clear(sum)
		for k := offs[b]; k < offs[b+1]; k++ {
			for d := 0; d < dim; d++ {
				sum[d] += rows[int(k)*dim+d]
			}
		}
		for d := 0; d < dim; d++ {
			if math.Float32bits(sum[d]) != math.Float32bits(out[b*dim+d]) {
				return fmt.Errorf("bag %d (key %d) float %d: gathered %v, pulled %v", b, keys[offs[b]], d, out[b*dim+d], sum[d])
			}
		}
	}
	return nil
}

// buildServe sets up serve-tcp-hot (2 readers) or serve-tcp-mixed (1 reader
// beside 1 writer, the writer's batches recorded as the other side).
func buildServe(seed int64, ly *layers, mixed bool) (*scenario, error) {
	s := &scenario{ly: ly, root: "cluster.pullbags", store: serveStore}
	ok := false
	defer func() {
		if !ok {
			s.close()
		}
	}()
	node, err := startNode(serveStore, true, 0, ly)
	if err != nil {
		return nil, err
	}
	s.cleanup.add(node.stop)
	s.engines = []psengine.Engine{node.engine}
	grads := gradInputs(seed, mixedDraws)
	next, err := pretrain(node.engine, grads)
	if err != nil {
		return nil, fmt.Errorf("pre-training: %w", err)
	}
	if err := node.handler.Refresh(); err != nil {
		return nil, err
	}
	nodes := []*psNode{node}

	readers := 2
	if mixed {
		readers = 1
	}
	readRec := s.newRecorder()
	var rs []*reader
	for i := 0; i < readers; i++ {
		cl, err := dial(nodes, ly)
		if err != nil {
			return nil, err
		}
		s.cleanup.add(cl.Close)
		r := &reader{idx: i, cl: cl, pool: gatherInputs(seed, i), rec: readRec, ly: ly, keep: !mixed}
		if ly != nil {
			conns, err := dialReplay(nodes)
			if err != nil {
				return nil, err
			}
			s.cleanup.add(closeConns(conns))
			r.conn, r.eng, r.sampleMod = conns[0], node.core, 8
		}
		rs = append(rs, r)
		s.loops = append(s.loops, r.run)
	}
	s.rec = readRec

	var loop *batchLoop
	if mixed {
		wcl, err := dial(nodes, ly)
		if err != nil {
			return nil, err
		}
		s.cleanup.add(wcl.Close)
		writeRec := s.newRecorder()
		pt := &psTimer{inner: wcl, rec: writeRec, ly: ly}
		if ly != nil {
			pt.root, pt.rootRung, pt.callRung = "ps.batch", "bench", "cluster"
			pt.owner, pt.nodes, pt.sampleMod, pt.slot = wcl.Owner, 1, 4, 1
			pt.zeros = make([]float32, mixedDraws*dim)
			conns, err := dialReplay(nodes)
			if err != nil {
				return nil, err
			}
			s.cleanup.add(closeConns(conns))
			pt.conns = [][]*rpc.Client{conns}
		}
		loop = &batchLoop{
			pt: pt, pools: [][][]uint64{writerInputs(seed)}, grads: grads, first: next, lastCkpt: -1,
			refresh: node.handler.Refresh, refreshEvery: 8,
		}
		s.loops = append(s.loops, loop.run)
		s.batches = writeRec
		s.other, s.otherOp = writeRec, "writer PS batch"
	}

	s.checks = func() []checkResult {
		r := rs[0]
		if mixed {
			// One gather now that the writer has stopped.
			out := make([]float32, serveBags*dim)
			keys := r.pool[0]
			if err := r.cl.PullBags(false, bagOffsets(serveBags), keys, out); err != nil {
				return []checkResult{{"gather-matches-pull", false, err.Error()}}
			}
			r.samples = []gatherSample{{keys: keys, out: out}}
			next = loop.first + int64(len(loop.pt.rec.since(-1, math.MaxInt64))) + 1
		}
		checked := 0
		for _, r := range rs {
			for _, g := range r.samples {
				if err := verifyGather(r.cl, next, g.keys, g.out); err != nil {
					return []checkResult{{"gather-matches-pull", false, err.Error()}}
				}
				checked++
			}
		}
		return []checkResult{{"gather-matches-pull", checked > 0,
			fmt.Sprintf("%d gathers bit-identical to the per-bag sum of pulled rows", checked)}}
	}
	ok = true
	return s, nil
}
