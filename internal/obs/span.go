package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// DefaultTraceCapacity is the span-ring size used by the binaries: enough
// for several thousand batches of the per-batch span tree before the ring
// starts dropping its oldest spans.
const DefaultTraceCapacity = 1 << 14

// SpanRecord is one completed span on the tracer's timeline. Start is
// relative to the tracer's epoch (or, for spans emitted with an explicit
// timestamp, to whatever virtual clock the emitter uses — the two are never
// mixed inside one tracer). Dur may be zero for instantaneous events.
type SpanRecord struct {
	Name  string        // what happened ("cluster.pull", "maint.drain", ...)
	Cat   string        // subsystem ("cluster", "engine", "train", ...)
	TID   int64         // timeline lane (node or shard index; 0 when unsheltered)
	Batch int64         // batch the span belongs to (-1 when none)
	Arg   int64         // optional numeric payload
	ArgN  string        // name of Arg ("keys", "bytes", ...); empty when unused
	Start time.Duration // span start on the tracer's timeline
	Dur   time.Duration // span duration (0 for point events)
}

// Tracer is a bounded ring of completed spans. Emitting is one short
// critical section on a leaf mutex; when the ring is full the oldest span
// is overwritten (the Dropped counter reports how many were lost). All
// methods are safe on a nil receiver.
type Tracer struct {
	epoch time.Time
	cap   int

	// mu guards the ring. Like the registry mutex it is a leaf ranked
	// below every engine lock, and span bookkeeping never acquires
	// anything else while holding it.
	//
	// oevet:lockrank obs.tracer.mu 5
	mu      sync.Mutex
	ring    []SpanRecord // grows to cap, then wraps
	next    int          // ring insertion cursor once len(ring) == cap
	total   int64        // spans ever emitted
	dropped int64        // spans overwritten
}

// NewTracer returns a tracer whose ring holds up to capacity spans
// (DefaultTraceCapacity when capacity <= 0). Ring memory grows with use up
// to the bound; an idle tracer costs almost nothing.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{epoch: time.Now(), cap: capacity}
}

// Now returns the time elapsed since the tracer was created (0 on nil).
func (t *Tracer) Now() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.epoch)
}

// Emit appends a completed span record. Use this directly when the caller
// owns the timestamps; wall-clock spans use Start/End instead.
func (t *Tracer) Emit(rec SpanRecord) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.ring) < t.cap {
		t.ring = append(t.ring, rec)
	} else {
		t.ring[t.next] = rec
		t.next = (t.next + 1) % t.cap
		t.dropped++
	}
	t.total++
	t.mu.Unlock()
}

// Span is an in-flight span handle. The zero Span (from a nil tracer) is
// valid and its End is a no-op, so callers never branch on "tracing on?".
type Span struct {
	t     *Tracer
	name  string
	cat   string
	tid   int64
	batch int64
	start time.Duration
}

// Start opens a span on the tracer's wall-clock timeline.
func (t *Tracer) Start(name, cat string, tid, batch int64) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, name: name, cat: cat, tid: tid, batch: batch, start: t.Now()}
}

// End closes the span and commits it to the ring.
func (s Span) End() { s.EndArg("", 0) }

// EndArg closes the span attaching a named numeric payload.
func (s Span) EndArg(argName string, arg int64) {
	if s.t == nil {
		return
	}
	s.t.Emit(SpanRecord{
		Name:  s.name,
		Cat:   s.cat,
		TID:   s.tid,
		Batch: s.batch,
		Arg:   arg,
		ArgN:  argName,
		Start: s.start,
		Dur:   s.t.Now() - s.start,
	})
}

// Spans returns the ring contents, oldest first. Nil-safe (returns nil).
func (t *Tracer) Spans() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanRecord, 0, len(t.ring))
	if len(t.ring) == t.cap {
		out = append(out, t.ring[t.next:]...)
		out = append(out, t.ring[:t.next]...)
	} else {
		out = append(out, t.ring...)
	}
	return out
}

// Dropped returns how many spans the ring has overwritten (0 on nil).
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// chromeEvent is one trace_event in Chrome's JSON trace format: complete
// events ("ph":"X") with microsecond timestamps, loadable by
// chrome://tracing and https://ui.perfetto.dev.
type chromeEvent struct {
	Name string           `json:"name"`
	Cat  string           `json:"cat"`
	Ph   string           `json:"ph"`
	PID  int              `json:"pid"`
	TID  int64            `json:"tid"`
	TS   float64          `json:"ts"`
	Dur  float64          `json:"dur"`
	Args map[string]int64 `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace dumps the ring as Chrome trace_event JSON. A nil tracer
// writes an empty (still loadable) trace.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	spans := t.Spans()
	out := chromeTrace{TraceEvents: make([]chromeEvent, 0, len(spans)), DisplayTimeUnit: "ms"}
	for _, s := range spans {
		ev := chromeEvent{
			Name: s.Name,
			Cat:  s.Cat,
			Ph:   "X",
			PID:  1,
			TID:  s.TID,
			TS:   float64(s.Start) / float64(time.Microsecond),
			Dur:  float64(s.Dur) / float64(time.Microsecond),
		}
		args := map[string]int64{}
		if s.Batch >= 0 {
			args["batch"] = s.Batch
		}
		if s.ArgN != "" {
			args[s.ArgN] = s.Arg
		}
		if len(args) > 0 {
			ev.Args = args
		}
		out.TraceEvents = append(out.TraceEvents, ev)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
