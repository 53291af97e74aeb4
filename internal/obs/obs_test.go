package obs

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilSafety(t *testing.T) {
	var reg *Registry
	if got := reg.Counter("x"); got != nil {
		t.Fatalf("nil registry handed out a counter: %v", got)
	}
	if got := reg.Now(); got != 0 {
		t.Fatalf("nil registry Now() = %v, want 0", got)
	}
	var c *Counter
	c.Add(3)
	if c.Value() != 0 {
		t.Fatal("nil counter accumulated")
	}
	var g *Gauge
	g.Set(5)
	g.Add(-2)
	if g.Value() != 0 {
		t.Fatal("nil gauge accumulated")
	}
	var h *Histogram
	h.Observe(time.Second)
	if h.Count() != 0 || h.Snapshot().Count != 0 {
		t.Fatal("nil histogram accumulated")
	}
	sp := reg.Start("x", "y", 0, 0)
	if d := sp.End(); d != 0 {
		t.Fatalf("nil registry span lasted %v, want 0", d)
	}
	if reg.Spans() != nil || reg.Dropped() != 0 {
		t.Fatal("nil registry accumulated spans")
	}
	snap := reg.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Histograms) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
	var buf bytes.Buffer
	if err := reg.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("nil registry chrome trace: %v", err)
	}
}

func TestRegistryHandlesAreStable(t *testing.T) {
	reg := NewRegistry()
	c1 := reg.Counter("a")
	c2 := reg.Counter("a")
	if c1 != c2 {
		t.Fatal("same name resolved to different counters")
	}
	c1.Add(2)
	c2.Add(3)
	if got := reg.Counter("a").Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	reg.Gauge("g").Set(7)
	reg.Gauge("g").Add(1)
	if got := reg.Gauge("g").Value(); got != 8 {
		t.Fatalf("gauge = %d, want 8", got)
	}
	if reg.Histogram("h") != reg.Histogram("h") {
		t.Fatal("same name resolved to different histograms")
	}
}

func TestBucketIndexMonotoneAndInvertible(t *testing.T) {
	// Exact buckets below 8.
	for v := int64(0); v < 8; v++ {
		if got := bucketIndex(v); got != int(v) {
			t.Fatalf("bucketIndex(%d) = %d, want %d", v, got, v)
		}
	}
	// Monotone, and bucketLow is a true lower bound, across magnitudes.
	prev := -1
	for _, v := range []int64{8, 9, 15, 16, 100, 1023, 1024, 1 << 20, 1 << 40, 1<<62 + 1} {
		idx := bucketIndex(v)
		if idx < prev {
			t.Fatalf("bucketIndex not monotone at %d", v)
		}
		prev = idx
		if lo := bucketLow(idx); lo > v {
			t.Fatalf("bucketLow(%d) = %d > value %d", idx, lo, v)
		}
		if idx+1 < histBuckets {
			if hi := bucketLow(idx + 1); hi <= v {
				t.Fatalf("value %d not below next bucket low %d", v, hi)
			}
		}
	}
	if idx := bucketIndex(1<<63 - 1); idx >= histBuckets {
		t.Fatalf("max value bucket %d out of range", idx)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := &Histogram{}
	// 1000 observations of 1ms, 100 of 10ms, 10 of 100ms.
	for i := 0; i < 1000; i++ {
		h.Observe(time.Millisecond)
	}
	for i := 0; i < 100; i++ {
		h.Observe(10 * time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(100 * time.Millisecond)
	}
	s := h.Snapshot()
	if s.Count != 1110 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Max != int64(100*time.Millisecond) {
		t.Fatalf("max = %d", s.Max)
	}
	within := func(name string, got, want int64) {
		t.Helper()
		lo, hi := want-want/8, want+want/8
		if got < lo || got > hi {
			t.Fatalf("%s = %d, want within 12.5%% of %d", name, got, want)
		}
	}
	within("p50", s.P50, int64(time.Millisecond))
	within("p95", s.P95, int64(10*time.Millisecond))
	// p99 falls in the 10ms cohort (rank 1099 of 1110).
	within("p99", s.P99, int64(10*time.Millisecond))
	if mean := s.Mean(); mean < float64(time.Millisecond) || mean > float64(5*time.Millisecond) {
		t.Fatalf("mean = %f out of range", mean)
	}
}

func TestHistogramQuantileVsExact(t *testing.T) {
	h := &Histogram{}
	rng := rand.New(rand.NewSource(7))
	vals := make([]int64, 0, 5000)
	for i := 0; i < 5000; i++ {
		v := int64(rng.ExpFloat64() * 1e6)
		vals = append(vals, v)
		h.ObserveValue(v)
	}
	s := h.Snapshot()
	exact := func(q float64) int64 {
		sorted := append([]int64(nil), vals...)
		for i := 1; i < len(sorted); i++ {
			for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
				sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
			}
		}
		return sorted[int(q*float64(len(sorted)))]
	}
	for _, tc := range []struct {
		name string
		got  int64
		q    float64
	}{{"p50", s.P50, 0.50}, {"p95", s.P95, 0.95}, {"p99", s.P99, 0.99}} {
		want := exact(tc.q)
		if tc.got < want*3/4 || tc.got > want*5/4 {
			t.Errorf("%s = %d, exact %d (off by more than 25%%)", tc.name, tc.got, want)
		}
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := &Histogram{}
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.ObserveValue(int64(w*per + i))
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Fatalf("count = %d, want %d", s.Count, workers*per)
	}
	if s.Max != workers*per-1 {
		t.Fatalf("max = %d, want %d", s.Max, workers*per-1)
	}
}

func TestObserveAllocationFree(t *testing.T) {
	h := &Histogram{}
	c := &Counter{}
	g := &Gauge{}
	if n := testing.AllocsPerRun(1000, func() {
		h.ObserveValue(12345)
		c.Add(1)
		g.Set(3)
	}); n != 0 {
		t.Fatalf("record path allocates: %v allocs/op", n)
	}
}

func TestSnapshotText(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("rpc_client_bytes_out").Add(512)
	reg.Gauge("rpc_server_conns").Set(3)
	reg.Histogram("engine_pull_ns").Observe(42 * time.Microsecond)
	var buf bytes.Buffer
	if err := reg.Snapshot().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"rpc_client_bytes_out 512",
		"rpc_server_conns 3",
		"engine_pull_ns_count 1",
		"engine_pull_ns_p99 ",
		"obs_uptime_ns ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q:\n%s", want, out)
		}
	}
	// Sorted output: lines must be nondecreasing.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	for i := 1; i < len(lines); i++ {
		if lines[i] < lines[i-1] {
			t.Fatalf("text output not sorted at line %d: %q < %q", i, lines[i], lines[i-1])
		}
	}
}

func TestSpanRingWrapAndOrder(t *testing.T) {
	reg := NewRegistry()
	for i := 0; i < DefaultTraceCapacity+3; i++ {
		reg.record(SpanRecord{Name: "e", Batch: int64(i), Start: time.Duration(i)})
	}
	spans := reg.Spans()
	if len(spans) != DefaultTraceCapacity {
		t.Fatalf("ring holds %d spans, want %d", len(spans), DefaultTraceCapacity)
	}
	for i, s := range spans {
		if want := int64(i + 3); s.Batch != want {
			t.Fatalf("span %d batch = %d, want %d (oldest-first order)", i, s.Batch, want)
		}
	}
	if reg.Dropped() != 3 {
		t.Fatalf("dropped = %d, want 3", reg.Dropped())
	}
}

func TestSpanStartEnd(t *testing.T) {
	reg := NewRegistry()
	sp := reg.Start("cluster.pull", "cluster", 2, 9)
	time.Sleep(time.Millisecond)
	d := sp.EndArg("keys", 64)
	spans := reg.Spans()
	if len(spans) != 1 {
		t.Fatalf("got %d spans", len(spans))
	}
	s := spans[0]
	if s.Name != "cluster.pull" || s.Cat != "cluster" || s.TID != 2 || s.Batch != 9 || s.Arg != 64 || s.ArgN != "keys" {
		t.Fatalf("span fields wrong: %+v", s)
	}
	if s.Dur < time.Millisecond/2 {
		t.Fatalf("span duration %v too short", s.Dur)
	}
	if d != s.Dur {
		t.Fatalf("EndArg returned %v, recorded %v", d, s.Dur)
	}
	if s.Start+s.Dur > reg.Now() {
		t.Fatalf("span ends at %v, after the registry clock's %v", s.Start+s.Dur, reg.Now())
	}
}

func TestChromeTraceJSON(t *testing.T) {
	reg := NewRegistry()
	reg.Start("maint.drain", "engine", 1, 3).EndArg("entries", 17)
	reg.Start("cluster.pull", "cluster", -1, 5).End()
	var buf bytes.Buffer
	if err := reg.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("got %d trace events, want 2", len(doc.TraceEvents))
	}
	for _, ev := range doc.TraceEvents {
		for _, field := range []string{"name", "cat", "ph", "pid", "tid", "ts", "dur"} {
			if _, ok := ev[field]; !ok {
				t.Fatalf("trace event missing %q: %v", field, ev)
			}
		}
		if ev["ph"] != "X" {
			t.Fatalf("phase = %v, want X", ev["ph"])
		}
	}
}

func TestHTTPHandler(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("engine_ckpt_flush_bytes").Add(4096)
	reg.Histogram("engine_pull_ns").Observe(time.Millisecond)
	reg.Start("train.batch", "train", 0, 1).End()
	srv := httptest.NewServer(Handler(reg))
	defer srv.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: %d", path, resp.StatusCode)
		}
		return buf.String()
	}

	if text := get("/metrics"); !strings.Contains(text, "engine_ckpt_flush_bytes 4096") {
		t.Errorf("/metrics missing counter:\n%s", text)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(get("/metrics.json")), &snap); err != nil {
		t.Fatalf("/metrics.json: %v", err)
	}
	if snap.Counters["engine_ckpt_flush_bytes"] != 4096 {
		t.Errorf("/metrics.json counter = %d", snap.Counters["engine_ckpt_flush_bytes"])
	}
	if snap.Histograms["engine_pull_ns"].Count != 1 {
		t.Errorf("/metrics.json histogram count = %d", snap.Histograms["engine_pull_ns"].Count)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(get("/debug/obs")), &doc); err != nil {
		t.Fatalf("/debug/obs: %v", err)
	}
	if len(doc.TraceEvents) != 1 {
		t.Errorf("/debug/obs has %d events, want 1", len(doc.TraceEvents))
	}
}
