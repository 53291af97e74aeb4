// Package serve is the online inference tier (DESIGN.md §14): it answers
// embedding-bag gather requests against a live PMem-OE engine while
// training keeps running.
//
// The handler implements rpc.BagServer: one MsgPullBag request carries
// every sparse field of a batch (e.g. 26 Criteo tables × 128 samples) as
// offset-delimited key bags, and the handler pools each bag server-side
// (sum or mean) so only one dim-sized row per bag crosses the wire back —
// the embedding-bag shape that dominates DLRM inference latency.
//
// Reads go through the engine's lock-free snapshot path: a gather pins
// every shard's published snapshot once (core.Engine.PinSnapshots), serves
// clean hot keys from the pinned slabs with no shard mutex and no push
// stripe, and unpins when it is done; the steady-state request performs zero
// heap allocations (pinned by TestPullBagsZeroAllocs and the oevet allocfree
// analyzer). Cold, dirty or unknown keys fall back to the engine's locked
// path; keys the fallback read from PMem are promoted into the hot set by
// the next Refresh.
package serve

import (
	"sync"
	"sync/atomic"
	"time"

	"openembedding/internal/cache"
	"openembedding/internal/core"
	"openembedding/internal/obs"
)

// Handler serves pooled embedding-bag reads from a node's engine. It lives
// as long as the node: the engine sits behind an atomic pointer (SetEngine)
// so a crash/restart or rollback swaps the engine under the same handler,
// and the counters carry over. It answers every request it gets. Safe for
// concurrent use by any number of connections.
type Handler struct {
	eng atomic.Pointer[core.Engine]
	dim int

	// scratchPool recycles per-request row buffers and the obs sampling
	// tick so the steady-state request allocates nothing.
	scratchPool sync.Pool

	// refreshing single-flights Refresh: concurrent triggers collapse into
	// the one in flight.
	refreshing atomic.Bool

	// metrics (all nil, and free, when the registry is nil):
	//
	//	serve_bag_ns        request latency histogram (sampled 1-in-8)
	//	serve_requests      bag-gather requests served
	//	serve_keys          keys gathered across all bags
	//	serve_snap_hits     keys served lock-free from the snapshot
	//	serve_dram_fallback keys served from the DRAM cache under the stripe
	//	serve_pmem_fallback keys served by a verified PMem read
	//	serve_init_served   unknown keys served from the initializer
	//	serve_refreshes     hot-set refresh passes completed
	reg          *obs.Registry
	bagNS        *obs.Histogram
	requests     *obs.Counter
	keysServed   *obs.Counter
	snapHits     *obs.Counter
	dramFallback *obs.Counter
	pmemFallback *obs.Counter
	initServed   *obs.Counter
	refreshes    *obs.Counter
}

// bagScratch is one request's reusable state. It goes back to the pool
// through Handler.release only, which drops the pins first.
type bagScratch struct {
	row  []float32
	tick uint8
	pins core.SnapPins
}

// serveBlock is how many keys PullBags resolves ahead of pooling them:
// enough that the index probes of a block overlap their cache misses, few
// enough that the resolved rows (24 B each) stay on the stack.
const serveBlock = 32

// New returns a handler over eng, enabling the engine's serve snapshots.
// reg may be nil (metrics disabled).
func New(eng *core.Engine, reg *obs.Registry) *Handler {
	h := &Handler{dim: eng.Dim(), reg: reg}
	dim := h.dim
	h.scratchPool.New = func() any {
		return &bagScratch{row: make([]float32, dim)}
	}
	if reg != nil {
		h.bagNS = reg.Histogram("serve_bag_ns")
		h.requests = reg.Counter("serve_requests")
		h.keysServed = reg.Counter("serve_keys")
		h.snapHits = reg.Counter("serve_snap_hits")
		h.dramFallback = reg.Counter("serve_dram_fallback")
		h.pmemFallback = reg.Counter("serve_pmem_fallback")
		h.initServed = reg.Counter("serve_init_served")
		h.refreshes = reg.Counter("serve_refreshes")
	}
	h.SetEngine(eng)
	return h
}

// SetEngine points the handler at eng — the engine a restart or rollback
// recovered, of the same dimension. Snapshots are enabled before the engine
// is published, so no request sees an engine without them.
func (h *Handler) SetEngine(eng *core.Engine) {
	eng.EnableServeSnapshots()
	h.eng.Store(eng)
}

// Dim implements rpc.BagServer.
func (h *Handler) Dim() int { return h.dim }

// release unpins the snapshots sc's gather read from — no row it resolved
// is used past here — and returns sc to the pool.
//
// oevet:hotpath
func (h *Handler) release(sc *bagScratch) {
	sc.pins.Unpin()
	h.scratchPool.Put(sc)
}

// PullBags implements rpc.BagServer: bag b is keys[offsets[b]:
// offsets[b+1]], pooled into out[b*dim:(b+1)*dim] — sum, or mean when
// mean is set; an empty bag pools to the zero vector. The caller
// guarantees offsets are valid (rpc.ValidateBagOffsets) and len(out) ==
// (len(offsets)-1)*dim.
//
// It pins every shard's published snapshot once, into the pooled scratch,
// and resolves keys against the pinned snapshots serveBlock at a time
// (core.SnapPins.Rows): a clean hit yields the snapshot row itself — valid
// until the pins are released, whatever training republishes meanwhile —
// which is copied (first key of a bag) or added (the rest) straight into the
// output row; only cold, dirty or unknown keys go through the engine's locked
// path into the pooled scratch row, so pooling itself allocates nothing.
// Per-source tallies accumulate in a local array and fold into the counters
// once per request. Every exit after the pin leaves through release.
//
// oevet:hotpath
func (h *Handler) PullBags(mean bool, offsets []uint32, keys []uint64, out []float32) error {
	dim := h.dim
	sc := h.scratchPool.Get().(*bagScratch)
	var start time.Duration
	sampled := false
	if h.reg != nil {
		if sc.tick++; sc.tick&7 == 0 {
			start = h.reg.Now()
			sampled = true
		}
	}
	eng := h.eng.Load()        // once per request: the gather is answered by one engine
	eng.PinSnapshots(&sc.pins) //oevet:alloc-ok sizes the pooled pin table on a scratch's first gather only: the capacity persists across requests
	var tally [core.ServeInit + 1]int64
	// Offsets are contiguous from 0, so j below walks keys in order and
	// refills the block whenever it runs out, bag boundaries or not.
	var block [serveBlock][]float32
	base, next := 0, 0
	bags := len(offsets) - 1
	for b := 0; b < bags; b++ {
		lo, hi := int(offsets[b]), int(offsets[b+1])
		dst := out[b*dim : (b+1)*dim]
		if lo == hi {
			clear(dst) // empty bag: the zero vector
			continue
		}
		for j := lo; j < hi; j++ {
			if j == next {
				base, next = j, min(j+serveBlock, len(keys))
				sc.pins.Rows(keys[base:next], block[:])
			}
			row, src := block[j-base], core.ServeSnap
			if row == nil {
				var err error
				row = sc.row
				if src, err = eng.ServeReadLocked(keys[j], row); err != nil {
					h.release(sc)
					return err
				}
			}
			tally[src]++
			if j == lo {
				copy(dst, row)
			} else {
				cache.AddInto(dst, row)
			}
		}
		if mean {
			inv := 1 / float32(hi-lo)
			for i := range dst {
				dst[i] *= inv
			}
		}
	}
	h.requests.Add(1)
	h.keysServed.Add(int64(len(keys)))
	h.snapHits.Add(tally[core.ServeSnap])
	h.dramFallback.Add(tally[core.ServeDRAM])
	h.pmemFallback.Add(tally[core.ServePMem])
	h.initServed.Add(tally[core.ServeInit])
	if sampled {
		h.bagNS.Observe(h.reg.Now() - start)
	}
	h.release(sc)
	return nil
}

// Refresh runs one hot-set refresh pass: keys the fallback path read from
// PMem are promoted into the DRAM cache and every shard's snapshot is
// republished. Single-flighted — a call that finds a refresh already in
// progress returns nil immediately.
func (h *Handler) Refresh() error {
	if !h.refreshing.CompareAndSwap(false, true) {
		return nil
	}
	defer h.refreshing.Store(false)
	if err := h.eng.Load().RefreshServeSnapshots(); err != nil {
		return err
	}
	h.refreshes.Add(1)
	return nil
}

// StartRefresher runs Refresh every interval on a background goroutine
// until the returned stop function is called; stop returns once the
// goroutine has exited, so no refresh runs past it. Refresh errors are
// folded into the engine's metric set by the engine itself; the loop keeps
// going.
func (h *Handler) StartRefresher(interval time.Duration) (stop func()) {
	done, exited := make(chan struct{}), make(chan struct{})
	var once sync.Once
	go func() {
		defer close(exited)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				h.Refresh() //nolint:errcheck // refresh is best-effort; the next tick retries
			}
		}
	}()
	return func() {
		once.Do(func() { close(done) })
		<-exited
	}
}
