package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"openembedding/internal/core"
	"openembedding/internal/psengine"
	"openembedding/internal/rpc"
)

// A span is one timed call into a layer. Spans of one step or gather share
// Req. Parent is the span that caused it. Replay marks a rung that has no
// interface seam: it was measured by repeating the lower-level call right
// after the real one, so its interval lies outside its parent's; the
// budget aligns it to the parent's end.
type span struct {
	ID, Parent int
	Req        int64
	Name, Rung string
	Start, End time.Duration
	Replay     bool
	// Computed marks a replayed rung whose duration is a count times a
	// unit cost, not a call that ran: it took no wall time from anyone.
	Computed bool
}

// want tells a server-side decorator which client-side span the next
// matching call belongs to. Calls arrive over TCP without any id, but the
// benchmark runs client and server in one process, so the client side
// leaves a note and the decorator picks it up. With keys set the call is
// matched on (count, first, last), which separates a replayed request from
// the other load goroutine's concurrent one.
type want struct {
	op       string // "" matches any call
	req      int64
	parent   int
	sig      bool
	n        int
	k0, kEnd uint64
	got      atomic.Int64 // id of the span the decorator emitted for it
}

func (w *want) matches(op string, keys []uint64) bool {
	if w == nil || (w.op != "" && w.op != op) {
		return false
	}
	if !w.sig {
		return true
	}
	return len(keys) == w.n && w.n > 0 && keys[0] == w.k0 && keys[w.n-1] == w.kEnd
}

// tracer keeps every span and every decorator timing in memory until the
// run ends.
type tracer struct {
	t0    time.Time
	nodes [][noteSlots]atomic.Pointer[want]
	next  atomic.Int64

	mu    sync.Mutex
	spans []span
	durs  map[string][]time.Duration
}

// noteSlots is how many notes a node can hold at once: one per load
// goroutine that may have a linked call in flight.
const noteSlots = 2

func newTracer(nodes int) *tracer {
	return &tracer{t0: time.Now(), nodes: make([][noteSlots]atomic.Pointer[want], nodes), durs: map[string][]time.Duration{}}
}

func (t *tracer) now() time.Duration { return time.Since(t.t0) }
func (t *tracer) id() int            { return int(t.next.Add(1)) }

// emit records a finished span under a pre-allocated id (children need the
// id before the parent has ended).
func (t *tracer) emit(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// observe adds one timing to a named series; every decorated call lands
// here, sampled for spans or not.
func (t *tracer) observe(name string, d time.Duration) {
	t.mu.Lock()
	t.durs[name] = append(t.durs[name], d)
	t.mu.Unlock()
}

// addReplayed hangs a computed rung under every span of req named parent,
// sharing total evenly among them: the cost of calls that have no seam to
// time them at (core to pmem), taken as count x unit cost.
func (t *tracer) addReplayed(req int64, parent, name, rung string, total time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var under []span
	for _, s := range t.spans {
		if s.Req == req && s.Name == parent {
			under = append(under, s)
		}
	}
	for _, p := range under {
		d := total / time.Duration(len(under))
		t.spans = append(t.spans, span{ID: t.id(), Parent: p.ID, Req: req, Name: name, Rung: rung, Start: p.End, End: p.End + d, Replay: true, Computed: true})
	}
}

// reset drops what was recorded so far (the warm-up).
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = nil
	t.durs = map[string][]time.Duration{}
	t.mu.Unlock()
}

// expect leaves a note in one of node's slots; keys nil matches any call
// of op. It stays until cleared so two parallel callers can share a parent.
func (t *tracer) expect(node, slot int, op string, keys []uint64, req int64, parent int) *want {
	w := &want{op: op, req: req, parent: parent}
	if keys != nil {
		w.sig, w.n = true, len(keys)
		if w.n > 0 {
			w.k0, w.kEnd = keys[0], keys[w.n-1]
		}
	}
	t.nodes[node][slot].Store(w)
	return w
}

func (t *tracer) clear(node, slot int) { t.nodes[node][slot].Store(nil) }

// server is the decorators' common tail: time the call, and emit a span
// when the client side asked for one.
func (t *tracer) server(node int, op, name, rung string, keys []uint64, start time.Duration) {
	end := t.now()
	t.observe(name, end-start)
	for i := range t.nodes[node] {
		if w := t.nodes[node][i].Load(); w.matches(op, keys) {
			id := t.id()
			w.got.Store(int64(id))
			t.emit(span{ID: id, Parent: w.parent, Req: w.req, Name: name, Rung: rung, Start: start, End: end})
			return
		}
	}
}

// engineSpy decorates the psengine.Engine handed to the RPC server (or
// called directly by engine-local-cold).
type engineSpy struct {
	*core.Engine
	node int
	tr   *tracer
}

var _ psengine.Engine = (*engineSpy)(nil)

func (s *engineSpy) Pull(batch int64, keys []uint64, dst []float32) error {
	start := s.tr.now()
	err := s.Engine.Pull(batch, keys, dst)
	s.tr.server(s.node, "pull", "core.pull", "core", keys, start)
	return err
}

func (s *engineSpy) Push(batch int64, keys []uint64, grads []float32) error {
	start := s.tr.now()
	err := s.Engine.Push(batch, keys, grads)
	s.tr.server(s.node, "push", "core.push", "core", keys, start)
	return err
}

func (s *engineSpy) EndPullPhase(batch int64) {
	start := s.tr.now()
	s.Engine.EndPullPhase(batch)
	s.tr.server(s.node, "end_pull_phase", "core.end_pull_phase", "core", nil, start)
}

func (s *engineSpy) EndBatch(batch int64) error {
	start := s.tr.now()
	err := s.Engine.EndBatch(batch)
	s.tr.server(s.node, "end_batch", "core.end_batch", "core", nil, start)
	return err
}

// bagSpy decorates the rpc.BagServer (the serve.Handler).
type bagSpy struct {
	rpc.BagServer
	node int
	tr   *tracer
}

func (s *bagSpy) PullBags(mean bool, offsets []uint32, keys []uint64, out []float32) error {
	start := s.tr.now()
	err := s.BagServer.PullBags(mean, offsets, keys, out)
	s.tr.server(s.node, "pullbag", "serve.handler", "serve", keys, start)
	return err
}

// writeChrome writes the spans as Chrome trace_event JSON (load it in
// chrome://tracing or Perfetto). Each request is its own lane.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int64          `json:"tid"`
		Args map[string]any `json:"args"`
	}
	t.mu.Lock()
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{
			Name: s.Name, Cat: s.Rung, Ph: "X", TS: us(s.Start), Dur: us(s.End - s.Start), PID: 1, TID: s.Req,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "req": s.Req, "replay": s.Replay, "computed": s.Computed},
		}
	}
	t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// budgetRow is one span name's place in the end-to-end time.
type budgetRow struct {
	Name, Rung string
	DurUs      float64 // p50 duration of the span on sampled requests
	SelfUs     float64 // p50 of its time on the blocking path, children excluded
	Share      float64 // SelfUs over the end-to-end p50
}

type budget struct {
	Rows        []budgetRow
	E2EUs       float64
	Requests    int
	Unattrib    float64            // E2EUs minus the sum of SelfUs
	RungSelfUs  map[string]float64 // p50 per request of each rung's self time
	Unexplained bool               // |Unattrib| exceeds 15% of E2EUs
}

// treeNode is a span with its children, moved onto the parent's timeline
// for the budget.
type treeNode struct {
	span
	kids []*treeNode
}

// interval is a stretch of a request's wall time spent replaying.
type interval struct{ from, to time.Duration }

// replayTime collects, merged and in order, the intervals in which the
// request's top-level replays ran. A batch's replays run inside it (the
// protocol only admits the extra pulls and pushes there), so that time has
// to come out of the batch's own spans again.
func replayTime(n *treeNode, out []interval) []interval {
	for _, k := range n.kids {
		switch {
		case k.Computed:
		case k.Replay:
			out = append(out, interval{k.Start, k.End})
		default:
			out = replayTime(k, out)
		}
	}
	return out
}

func mergeIntervals(in []interval) []interval {
	sort.Slice(in, func(i, j int) bool { return in[i].from < in[j].from })
	var out []interval
	for _, iv := range in {
		if n := len(out); n > 0 && iv.from <= out[n-1].to {
			if iv.to > out[n-1].to {
				out[n-1].to = iv.to
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// cut maps a wall time to the request's own timeline: wall time minus the
// replaying that went before it.
func cut(t time.Duration, replays []interval) time.Duration {
	var gone time.Duration
	for _, iv := range replays {
		switch {
		case t >= iv.to:
			gone += iv.to - iv.from
		case t > iv.from:
			gone += t - iv.from
		}
	}
	return t - gone
}

// place puts n and its descendants on the request's timeline: real spans
// lose the replay time before them, and each replayed span (with whatever
// really nested inside it) keeps its duration and is aligned to end where
// its parent ends, as if it had run inside it.
func (n *treeNode) place(replays []interval) {
	n.Start, n.End = cut(n.Start, replays), cut(n.End, replays)
	for _, k := range n.kids {
		if k.Replay {
			k.slide(n.End - k.End)
		} else {
			k.place(replays)
		}
	}
}

func (n *treeNode) slide(delta time.Duration) {
	n.Start += delta
	n.End += delta
	for _, k := range n.kids {
		if k.Replay {
			k.slide(n.End - k.End)
		} else {
			k.slide(delta)
		}
	}
}

func (n *treeNode) walk(f func(*treeNode)) {
	f(n)
	for _, k := range n.kids {
		k.walk(f)
	}
}

// blocking walks back from n's end along the child that finished last: when
// a result waits for parallel parts the slowest sets its time, so only that
// one is on the blocking path. self gets each name's time on the path with
// its children's time taken out; the parts sum to n's duration.
func (n *treeNode) blocking(self map[string]time.Duration) {
	sort.Slice(n.kids, func(i, j int) bool {
		if n.kids[i].End != n.kids[j].End {
			return n.kids[i].End > n.kids[j].End
		}
		return n.kids[i].Start < n.kids[j].Start
	})
	at := n.End
	for _, k := range n.kids {
		if k.End > at || at <= n.Start {
			continue // overlaps a later-finishing sibling: not blocking
		}
		if k.Start < n.Start {
			k.Start = n.Start // a replay that ran longer than the real call
		}
		self[n.Name] += at - k.End
		k.blocking(self)
		at = k.Start
	}
	if at > n.Start {
		self[n.Name] += at - n.Start
	}
}

// budget attributes each sampled request's end-to-end time to the spans on
// its blocking path and reports the medians across requests.
func (t *tracer) budget(root string) budget {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	byReq := map[int64][]span{}
	for _, s := range spans {
		byReq[s.Req] = append(byReq[s.Req], s)
	}
	rung := map[string]string{}
	durs := map[string][]float64{}
	var selfs []map[string]time.Duration // per request
	var e2e []float64
	for _, group := range byReq {
		nodes := map[int]*treeNode{}
		for _, s := range group {
			nodes[s.ID] = &treeNode{span: s}
		}
		var top *treeNode
		for _, n := range nodes {
			if p := nodes[n.Parent]; p != nil {
				p.kids = append(p.kids, n)
			} else if n.Name == root {
				top = n
			}
		}
		if top == nil {
			continue
		}
		top.place(mergeIntervals(replayTime(top, nil)))
		top.walk(func(n *treeNode) {
			rung[n.Name] = n.Rung
			durs[n.Name] = append(durs[n.Name], us(n.End-n.Start))
		})
		self := map[string]time.Duration{}
		top.blocking(self)
		selfs = append(selfs, self)
		e2e = append(e2e, us(top.End-top.Start))
	}
	// Medians are over every sampled request, a span that was not on a
	// request's blocking path counting as zero there, so that they are
	// over the same population as the end-to-end median.
	medianOver := func(pick func(map[string]time.Duration) time.Duration) float64 {
		v := make([]float64, len(selfs))
		for i, self := range selfs {
			v[i] = us(pick(self))
		}
		return median(v)
	}
	b := budget{E2EUs: median(e2e), Requests: len(e2e), RungSelfUs: map[string]float64{}}
	sum := 0.0
	for name, r := range rung {
		row := budgetRow{Name: name, Rung: r, DurUs: median(durs[name])}
		row.SelfUs = medianOver(func(self map[string]time.Duration) time.Duration { return self[name] })
		if b.E2EUs > 0 {
			row.Share = row.SelfUs / b.E2EUs
		}
		sum += row.SelfUs
		b.Rows = append(b.Rows, row)
		if _, done := b.RungSelfUs[r]; !done {
			b.RungSelfUs[r] = medianOver(func(self map[string]time.Duration) time.Duration {
				var d time.Duration
				for n, v := range self {
					if rung[n] == r {
						d += v
					}
				}
				return d
			})
		}
	}
	sort.Slice(b.Rows, func(i, j int) bool { return b.Rows[i].SelfUs > b.Rows[j].SelfUs })
	b.Unattrib = b.E2EUs - sum
	b.Unexplained = b.E2EUs > 0 && math.Abs(b.Unattrib) > 0.15*b.E2EUs
	return b
}

// print writes the budget table. The medians of the parts need not sum to
// the median of the whole; when they miss it by more than 15% the remainder
// gets its own row instead of being hidden.
func (b budget) print(w io.Writer, workload string) {
	fmt.Fprintf(w, "budget %s: end-to-end p50 %.1f us over %d sampled requests\n", workload, b.E2EUs, b.Requests)
	fmt.Fprintf(w, "  %-24s %-8s %12s %12s %7s\n", "span", "rung", "p50 us", "self us", "share")
	for _, r := range b.Rows {
		fmt.Fprintf(w, "  %-24s %-8s %12.1f %12.1f %6.1f%%\n", r.Name, r.Rung, r.DurUs, r.SelfUs, 100*r.Share)
	}
	if b.Unexplained {
		fmt.Fprintf(w, "  %-24s %-8s %12s %12.1f %6.1f%%\n", "(unattributed)", "-", "", b.Unattrib, 100*b.Unattrib/b.E2EUs)
	}
}
