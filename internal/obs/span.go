package obs

import (
	"encoding/json"
	"io"
	"time"
)

// DefaultTraceCapacity is the size of every registry's span ring: enough
// for several thousand batches of the per-batch span tree before the ring
// starts dropping its oldest spans.
const DefaultTraceCapacity = 1 << 14

// SpanRecord is one completed span on the registry's timeline: Start is
// relative to the registry's epoch, the base of Registry.Now.
type SpanRecord struct {
	Name  string        // what happened ("cluster.pull", "maint.drain", ...)
	Cat   string        // subsystem ("cluster", "engine", "train", ...)
	TID   int64         // timeline lane (node or shard index; 0 when unsheltered)
	Batch int64         // batch the span belongs to (-1 when none)
	Arg   int64         // optional numeric payload
	ArgN  string        // name of Arg ("keys", "bytes", ...); empty when unused
	Start time.Duration // span start on the registry's timeline
	Dur   time.Duration // span duration
}

// Span is an in-flight span handle. The zero Span (from a nil registry) is
// valid: its End records nothing and returns 0, so callers never branch on
// "tracing on?".
type Span struct {
	r     *Registry
	name  string
	cat   string
	tid   int64
	batch int64
	start time.Duration
}

// Start opens a span on the registry's clock.
func (r *Registry) Start(name, cat string, tid, batch int64) Span {
	if r == nil {
		return Span{}
	}
	return Span{r: r, name: name, cat: cat, tid: tid, batch: batch, start: r.Now()}
}

// End closes the span, commits it to the ring and returns its duration —
// the one clock reading a caller also feeds the region's histogram.
func (s Span) End() time.Duration { return s.EndArg("", 0) }

// EndArg is End attaching a named numeric payload.
func (s Span) EndArg(argName string, arg int64) time.Duration {
	if s.r == nil {
		return 0
	}
	d := s.r.Now() - s.start
	s.r.record(SpanRecord{
		Name:  s.name,
		Cat:   s.cat,
		TID:   s.tid,
		Batch: s.batch,
		Arg:   arg,
		ArgN:  argName,
		Start: s.start,
		Dur:   d,
	})
	return d
}

// record appends rec to the ring, which grows with use up to
// DefaultTraceCapacity and then overwrites its oldest span.
func (r *Registry) record(rec SpanRecord) {
	r.spanMu.Lock()
	if len(r.ring) < DefaultTraceCapacity {
		r.ring = append(r.ring, rec)
	} else {
		r.ring[r.next] = rec
		r.next = (r.next + 1) % DefaultTraceCapacity
		r.dropped++
	}
	r.spanMu.Unlock()
}

// Spans returns the ring contents, oldest first. Nil-safe (returns nil).
func (r *Registry) Spans() []SpanRecord {
	if r == nil {
		return nil
	}
	r.spanMu.Lock()
	defer r.spanMu.Unlock()
	out := make([]SpanRecord, 0, len(r.ring))
	out = append(out, r.ring[r.next:]...)
	return append(out, r.ring[:r.next]...)
}

// Dropped returns how many spans the ring has overwritten (0 on nil).
func (r *Registry) Dropped() int64 {
	if r == nil {
		return 0
	}
	r.spanMu.Lock()
	defer r.spanMu.Unlock()
	return r.dropped
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

// WriteChromeTrace dumps the span ring as Chrome trace_event JSON. A nil
// registry writes an empty (still loadable) trace.
func (r *Registry) WriteChromeTrace(w io.Writer) error {
	spans := r.Spans()
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
