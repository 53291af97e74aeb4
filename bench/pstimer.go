package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"openembedding/internal/rpc"
	"openembedding/internal/train"
)

// errHalt is how a timed run ends a train.Trainer: Run takes a step count,
// the benchmark a duration, so the first Pull after the deadline fails
// with this and Run returns it.
var errHalt = errors.New("bench: run halted")

// recorder collects the completed operations of one closed loop.
type recorder struct {
	t0   time.Time
	halt atomic.Bool

	mu     sync.Mutex
	ops    []op
	failed int
	err    error
}

func (r *recorder) now() time.Duration { return time.Since(r.t0) }

func (r *recorder) add(o op) {
	r.mu.Lock()
	r.ops = append(r.ops, o)
	r.mu.Unlock()
}

// fail records a failed operation; the loop that saw it stops.
func (r *recorder) fail(err error) {
	r.mu.Lock()
	r.failed++
	if r.err == nil {
		r.err = err
	}
	r.mu.Unlock()
}

// since returns the operations completed in (from, to].
func (r *recorder) since(from, to time.Duration) []op {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []op
	for _, o := range r.ops {
		if o.end > from && o.end <= to {
			out = append(out, o)
		}
	}
	return out
}

func (r *recorder) outcome() (failed int, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.failed, r.err
}

// call is one Pull or Push a batch-protocol caller made, kept on sampled
// batches so the rungs below it can be replayed.
type call struct {
	keys       []uint64
	start, end time.Duration
	id         int
}

// psTimer sits between a batch-protocol caller (train.Trainer, or the
// benchmark's own batch loop) and its train.ParamServer. Untraced it only
// reads the clock at the phase boundaries, which is where the step time
// and the time blocked on the parameter server come from. Traced it also
// times every call, emits spans for sampled batches, and replays each
// sampled Pull and Push as per-node rpc.Client round trips on private
// connections — the cluster-to-rpc rung has no interface to decorate.
type psTimer struct {
	inner train.ParamServer
	rec   *recorder
	ly    *layers
	// units is the throughput unit count of one batch; 0 counts its keys.
	units int
	// phases says the caller computes between the pull and the push phase
	// (a trainer), so it is blocked on the parameter server only during
	// the two phases; a bare batch loop is blocked throughout. Traced, the
	// phases also get spans under the root.
	phases bool

	// Traced runs only.
	root      string // root span name
	rootRung  string
	callRung  string                    // rung of the per-call spans; "" when the caller talks to the engine directly
	owner     func(key uint64) int      // key placement, to split a call per node
	conns     [][]*rpc.Client           // [caller][node] replay connections
	nodes     int                       // nodes whose decorators take notes
	slot      int                       // first note slot this timer may use
	sampleMod int64                     // every sampleMod-th batch gets spans
	zeros     []float32                 // gradients of a replayed push: the full path, no state change
	afterPull func(req int64, root int) // runs between EndPullPhase and the first Push; root is 0 on unsampled batches

	mu                 sync.Mutex
	open               bool
	halting            bool // set at a batch boundary so every caller of the batch sees the same answer
	batch              int64
	sampled            bool
	rootID             int
	pullPhase, pushPh  int // phase span ids
	stepStart          time.Duration
	pullStart, pullEnd time.Duration
	pushStart, pushEnd time.Duration
	excluded           time.Duration // replay time inside the batch: not the system's
	pullReplay         time.Duration // the part of excluded spent replaying pulls
	keys               int
	pulls, pushes      []call
	replayErr          error
}

func (p *psTimer) now() time.Duration { return p.rec.now() }
func (p *psTimer) traced() bool       { return p.ly != nil }

// begin opens batch: it closes the previous one (a trainer's step runs from
// one BatchStart to the next) and arms the halt.
func (p *psTimer) begin(batch int64) {
	now := p.now()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.open {
		p.finishLocked(now)
	}
	p.open, p.batch = true, batch
	p.halting = p.rec.halt.Load()
	p.stepStart = now
	p.pullStart, p.pullEnd, p.pushStart, p.pushEnd = 0, 0, 0, 0
	p.excluded, p.keys = 0, 0
	p.pulls, p.pushes = p.pulls[:0], p.pushes[:0]
	p.sampled = p.traced() && batch%p.sampleMod == 0
	if p.sampled {
		tr := p.ly.tr
		p.rootID, p.pullPhase, p.pushPh = tr.id(), tr.id(), tr.id()
		if p.callRung == "" {
			// Direct engine calls: every decorated call of the batch hangs
			// off the root.
			tr.expect(0, 0, "", nil, batch, p.rootID)
		}
	}
}

// end closes the open batch; batch loops call it, a trainer's last step is
// closed by the next begin or dropped.
func (p *psTimer) end() {
	now := p.now()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.open {
		p.finishLocked(now)
		p.open = false
	}
}

func (p *psTimer) finishLocked(now time.Duration) {
	if p.pushEnd == 0 {
		return // the batch never completed (halted)
	}
	pull, push := p.pullEnd-p.pullStart, p.pushEnd-p.pushStart
	dur := now - p.stepStart - p.excluded
	wait := dur // a bare batch loop does nothing but wait for the parameter server
	if p.phases {
		wait = pull + push - p.excluded
	}
	units := p.units
	if units == 0 {
		units = p.keys
	}
	p.rec.add(op{end: now, dur: dur, wait: wait, units: units})
	if !p.traced() {
		return
	}
	tr := p.ly.tr
	tr.observe("train.keys_per_step", time.Duration(p.keys))
	if p.phases {
		// Replays run at the end of each phase, so take them out of it.
		tr.observe("train.pull_phase", pull-p.pullReplay)
		tr.observe("train.push_phase", push-(p.excluded-p.pullReplay))
		tr.observe("train.compute", dur-wait)
	}
	if !p.sampled {
		return
	}
	if p.callRung == "" {
		tr.clear(0, 0)
	}
	tr.emit(span{ID: p.rootID, Req: p.batch, Name: p.root, Rung: p.rootRung, Start: p.stepStart, End: now})
	if p.phases {
		tr.emit(span{ID: p.pullPhase, Parent: p.rootID, Req: p.batch, Name: "train.pull_phase", Rung: "train", Start: p.pullStart, End: p.pullEnd})
		tr.emit(span{ID: tr.id(), Parent: p.rootID, Req: p.batch, Name: "train.compute", Rung: "train", Start: p.pullEnd, End: p.pushStart})
		tr.emit(span{ID: p.pushPh, Parent: p.rootID, Req: p.batch, Name: "train.push_phase", Rung: "train", Start: p.pushStart, End: p.pushEnd})
	}
}

// parent is the span the per-call spans of a phase hang under.
func (p *psTimer) parent(phase int) int {
	if p.phases {
		return phase
	}
	return p.rootID
}

// timed runs one call into the parameter server and, traced, observes it
// and emits its span on sampled batches. With link set the nodes'
// decorators are told to hang their spans of the call under it — for the
// phase-boundary calls, which reach every node and change state, so they
// cannot be replayed.
func (p *psTimer) timed(name string, parent int, link bool, f func() error) (start, end time.Duration, id int, err error) {
	spans := p.traced() && p.callRung != ""
	if spans && p.sampled {
		id = p.ly.tr.id()
		for n := 0; link && n < p.nodes; n++ {
			p.ly.tr.expect(n, p.slot, name, nil, p.batch, id)
		}
	}
	start = p.now()
	err = f()
	end = p.now()
	if spans {
		p.ly.tr.observe(p.callRung+"."+name, end-start)
	}
	if id != 0 {
		for n := 0; link && n < p.nodes; n++ {
			p.ly.tr.clear(n, p.slot)
		}
		p.ly.tr.emit(span{ID: id, Parent: parent, Req: p.batch, Name: p.callRung + "." + name, Rung: p.callRung, Start: start, End: end})
	}
	return start, end, id, err
}

// transfer is the common part of Pull and Push: note when the phase's
// first call was issued, time the call, and keep it for replay.
func (p *psTimer) transfer(name string, phaseStart *time.Duration, phase int, calls *[]call, keys []uint64, f func() error) error {
	p.mu.Lock()
	if *phaseStart == 0 {
		*phaseStart = p.now()
	}
	parent := p.parent(phase)
	p.mu.Unlock()
	start, end, id, err := p.timed(name, parent, false, f)
	if id != 0 {
		p.mu.Lock()
		*calls = append(*calls, call{keys: keys, start: start, end: end, id: id})
		p.mu.Unlock()
	}
	return err
}

// Pull implements train.ParamServer.
func (p *psTimer) Pull(batch int64, keys []uint64, dst []float32) error {
	if p.halting {
		return errHalt
	}
	p.mu.Lock()
	p.keys += len(keys)
	p.mu.Unlock()
	return p.transfer("pull", &p.pullStart, p.pullPhase, &p.pulls, keys, func() error { return p.inner.Pull(batch, keys, dst) })
}

// EndPullPhase implements train.ParamServer. The coordinator calls it once
// every pull has returned, which is also the moment the sampled pulls can
// be replayed with the same concurrency they ran with.
func (p *psTimer) EndPullPhase(batch int64) error {
	p.pullReplay = 0
	if p.sampled && p.conns != nil {
		t := p.now()
		p.replay("pull", p.pulls)
		p.pullReplay = p.now() - t
		p.excluded += p.pullReplay
	}
	_, end, _, err := p.timed("end_pull_phase", p.parent(p.pullPhase), true, func() error { return p.inner.EndPullPhase(batch) })
	p.pullEnd = end
	if err == nil && p.afterPull != nil {
		root := 0
		if p.sampled {
			root = p.rootID
		}
		p.afterPull(batch, root)
	}
	return err
}

// Push implements train.ParamServer.
func (p *psTimer) Push(batch int64, keys []uint64, grads []float32) error {
	return p.transfer("push", &p.pushStart, p.pushPh, &p.pushes, keys, func() error { return p.inner.Push(batch, keys, grads) })
}

// EndBatch implements train.ParamServer.
func (p *psTimer) EndBatch(batch int64) error {
	if p.sampled && p.conns != nil {
		t := p.now()
		p.replay("push", p.pushes)
		p.excluded += p.now() - t
	}
	_, end, _, err := p.timed("end_batch", p.parent(p.pushPh), true, func() error { return p.inner.EndBatch(batch) })
	p.pushEnd = end
	if err == nil && p.replayErr != nil {
		err = p.replayErr
	}
	return err
}

// RequestCheckpoint implements train.ParamServer.
func (p *psTimer) RequestCheckpoint(batch int64) error { return p.inner.RequestCheckpoint(batch) }

// CompletedCheckpoint implements train.ParamServer.
func (p *psTimer) CompletedCheckpoint() (int64, error) { return p.inner.CompletedCheckpoint() }

// replay repeats each sampled call as its per-node rpc.Client round trips,
// all at once as the cluster client fans them out, each on its own
// connection. A replayed push carries zero gradients: AdaGrad with g=0
// leaves weights and state bit-identical, so the full wire and engine path
// runs without perturbing training.
func (p *psTimer) replay(op string, calls []call) {
	tr := p.ly.tr
	var wg sync.WaitGroup
	for ci, c := range calls {
		parts := make([][]uint64, p.nodes)
		for _, k := range c.keys {
			n := p.owner(k)
			parts[n] = append(parts[n], k)
		}
		for n, nk := range parts {
			if len(nk) == 0 {
				continue
			}
			wg.Add(1)
			go func(ci, n int, nk []uint64, parent int) {
				defer wg.Done()
				id := tr.id()
				tr.expect(n, p.slot+ci, op, nk, p.batch, id)
				start := p.now()
				var err error
				if op == "pull" {
					_, err = p.conns[ci][n].Pull(p.batch, nk)
				} else {
					err = p.conns[ci][n].Push(p.batch, nk, p.zeros[:len(nk)*dim])
				}
				end := p.now()
				tr.clear(n, p.slot+ci)
				if err != nil {
					p.mu.Lock()
					p.replayErr = fmt.Errorf("replay %s on node %d: %w", op, n, err)
					p.mu.Unlock()
					return
				}
				tr.observe("rpc."+op, end-start)
				tr.emit(span{ID: id, Parent: parent, Req: p.batch, Name: "rpc." + op, Rung: "rpc", Start: start, End: end, Replay: true})
			}(ci, n, nk, c.id)
		}
	}
	wg.Wait()
}
