package sim

import (
	"sync"
	"time"
)

// Trace records a run's parameter-server requests on the virtual timeline
// (Config.RecordTrace): the per-millisecond request counting of Fig. 2,
// whose paired pull/update bursts sit at batch boundaries. It is safe for
// concurrent use.
type Trace struct {
	mu     sync.Mutex
	events []traceEvent
}

// traceEvent is one batched request arrival: n embedding-entry accesses of
// one kind at one virtual instant.
type traceEvent struct {
	at   time.Duration
	push bool
	n    int
}

func (t *Trace) record(at time.Duration, push bool, n int) {
	t.mu.Lock()
	t.events = append(t.events, traceEvent{at: at, push: push, n: n})
	t.mu.Unlock()
}

// MsBucket is one millisecond of the Fig. 2 timeline.
type MsBucket struct {
	Ms     int
	Pulls  int
	Pushes int
}

// PerMillisecond buckets the recorded requests per virtual millisecond, from
// 0 to the last event's millisecond, the series Fig. 2 plots; nil when
// nothing was recorded.
func (t *Trace) PerMillisecond() []MsBucket {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.events) == 0 {
		return nil
	}
	last := 0
	for _, e := range t.events {
		last = max(last, int(e.at/time.Millisecond))
	}
	buckets := make([]MsBucket, last+1)
	for i := range buckets {
		buckets[i].Ms = i
	}
	for _, e := range t.events {
		b := &buckets[int(e.at/time.Millisecond)]
		if e.push {
			b.Pushes += e.n
		} else {
			b.Pulls += e.n
		}
	}
	return buckets
}

// PairCounts returns total pull and push accesses — equal totals are the
// paper's "burst I/O in pairs" observation.
func (t *Trace) PairCounts() (pulls, pushes int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, e := range t.events {
		if e.push {
			pushes += int64(e.n)
		} else {
			pulls += int64(e.n)
		}
	}
	return pulls, pushes
}
