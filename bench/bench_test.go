package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON is the whole of ../BENCHMARK.json.
type benchmarkJSON struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDeclaredMatchesProgram holds BENCHMARK.json and the program together:
// same workloads with the same reasons, same metrics with the same units
// and directions.
func TestDeclaredMatchesProgram(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloadList) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloadList))
	}
	for i, w := range workloadList {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, b.Workloads[i].Name, b.Workloads[i].Why, w.name, w.why)
		}
	}
	if len(b.EndToEnd) != len(e2eMetrics) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program %d", len(b.EndToEnd), len(e2eMetrics))
	}
	for i, m := range e2eMetrics {
		if got := b.EndToEnd[i]; got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, got, m)
		}
	}
	if len(b.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(b.PerLayer), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		if got := b.PerLayer[i]; got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", i, got, m)
		}
	}
}

// TestSmoke runs every workload for a fraction of a second, untraced and
// traced, and checks that each run passes its own checks and prints exactly
// the metrics BENCHMARK.json names, with their units.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("drives every workload")
	}
	b := readBenchmarkJSON(t)
	for _, w := range workloadList {
		for trace := 0; trace <= 1; trace++ {
			w := w
			o := options{seed: 1, seconds: 0.4, trace: trace, setups: 1, traceOut: filepath.Join(t.TempDir(), "trace.json")}
			if trace == 1 {
				o.seconds = 1.2
			}
			res, err := run(&w, o, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%d: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v failed=%d attempted=%d checks=%+v", w.name, trace, res.Correct, res.Failed, res.Attempted, res.Checks)
			}
			want := map[string]string{}
			if trace == 0 {
				for _, m := range b.EndToEnd {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range b.PerLayer {
					want[m.Name] = m.Unit
				}
			}
			for name, unit := range want {
				got, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%d: metric %s missing from the output", w.name, trace, name)
				} else if got.Unit != unit {
					t.Errorf("%s trace=%d: metric %s has unit %q, BENCHMARK.json says %q", w.name, trace, name, got.Unit, unit)
				}
				if trace == 0 && !(got.Value > 0) {
					t.Errorf("%s: end-to-end metric %s is %v, must be positive", w.name, name, got.Value)
				}
			}
			for name := range res.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace=%d: output has metric %s, BENCHMARK.json does not", w.name, trace, name)
				}
			}
			if trace == 1 {
				data, err := os.ReadFile(o.traceOut)
				if err != nil {
					t.Fatal(err)
				}
				var tr struct {
					TraceEvents []map[string]any `json:"traceEvents"`
				}
				if err := json.Unmarshal(data, &tr); err != nil || len(tr.TraceEvents) == 0 {
					t.Errorf("%s: Chrome trace does not load or is empty (%v)", w.name, err)
				}
			}
		}
	}
}

// inputDigest hashes everything the generators hand the named workload for
// a seed, so a test can pin "same seed, same inputs".
func inputDigest(name string, seed int64) [32]byte {
	h := sha256.New()
	var b [8]byte
	putKeys := func(pool [][]uint64) {
		for _, keys := range pool {
			for _, k := range keys {
				binary.LittleEndian.PutUint64(b[:], k)
				h.Write(b[:])
			}
		}
	}
	putFloats := func(fs []float32) {
		for _, f := range fs {
			binary.LittleEndian.PutUint32(b[:4], math.Float32bits(f))
			h.Write(b[:4])
		}
	}
	switch name {
	case "train-tcp-fit":
		for w := 0; w < trainWorkers; w++ {
			g := trainData(seed)(trainDataSeed(seed) + int64(w))
			for _, s := range g.NextBatch(4 * trainBatchSize) {
				putKeys([][]uint64{s.Sparse[:]})
				putFloats(s.Dense[:])
				putFloats([]float32{s.Label})
			}
		}
	case "engine-local-cold":
		putKeys(coldInputs(seed, 0))
		putKeys(coldInputs(seed, 1))
		putFloats(gradInputs(seed, coldDraws))
	case "serve-tcp-hot":
		putKeys(gatherInputs(seed, 0))
		putKeys(gatherInputs(seed, 1))
	case "serve-tcp-mixed":
		putKeys(gatherInputs(seed, 0))
		putKeys(writerInputs(seed))
		putFloats(gradInputs(seed, mixedDraws))
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// TestInputsFollowSeed: the seed is the only input to the generators.
func TestInputsFollowSeed(t *testing.T) {
	for _, w := range workloadList {
		a, b, c := inputDigest(w.name, 1), inputDigest(w.name, 1), inputDigest(w.name, 2)
		if a != b {
			t.Errorf("%s: two generations from seed 1 differ", w.name)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 generate the same inputs", w.name)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("got %v %v %v, Python gives 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("got %v %v %v, Python gives 1 2 3", q1, q2, q3)
	}
}

// TestQuietestWindowSlides: a quiet stretch that straddles two disjoint
// windows, too short a part of it in either to move that window's median,
// is found by the window slid across the run a quarter of its length at a
// time; the quartiles stay those of the disjoint windows.
func TestQuietestWindowSlides(t *testing.T) {
	const perWindow = 8
	var ops []op
	end := time.Duration(0)
	for i := 0; i < windows*perWindow; i++ {
		dur := 2 * time.Millisecond
		if i >= 5 && i <= 10 { // 3 operations in window 0, 3 in window 1
			dur = time.Millisecond
		}
		end += dur
		ops = append(ops, op{end: end, dur: dur, wait: dur, units: 1})
	}
	sum := summarize(ops, 0)
	if sum.P50.Value != 1 || sum.P50.Q1 != 2 || sum.P50.Median != 2 {
		t.Errorf("p50: value %v, q1 %v, median %v; want 1 (the stretch), 2, 2", sum.P50.Value, sum.P50.Q1, sum.P50.Median)
	}
	// The quietest window for throughput is the one that holds all six: 8
	// operations in 10 ms.
	if got := sum.OpsPerS.Value; math.Abs(got-800) > 1e-6 || sum.OpsPerS.Median != 500 {
		t.Errorf("ops_per_s: value %v, median %v; want 800 and 500", got, sum.OpsPerS.Median)
	}
}

// TestBudgetFollowsBlockingPath builds one request by hand: a root with two
// parallel calls (the slower one blocks), a replayed rung under the slower
// call measured after the request, and a stretch of replaying inside the
// root that must come out of it.
func TestBudgetFollowsBlockingPath(t *testing.T) {
	u := time.Microsecond
	tr := newTracer(1)
	for _, s := range []span{
		{ID: 1, Req: 7, Name: "root", Rung: "bench", Start: 0, End: 150 * u},
		{ID: 2, Parent: 1, Req: 7, Name: "call", Rung: "cluster", Start: 10 * u, End: 40 * u},
		{ID: 3, Parent: 1, Req: 7, Name: "call", Rung: "cluster", Start: 10 * u, End: 70 * u},
		// 50us of replaying inside the root, right after the calls.
		{ID: 4, Parent: 3, Req: 7, Name: "wire", Rung: "rpc", Start: 70 * u, End: 120 * u, Replay: true},
		{ID: 5, Parent: 4, Req: 7, Name: "engine", Rung: "core", Start: 80 * u, End: 100 * u},
		{ID: 6, Parent: 5, Req: 7, Name: "media", Rung: "pmem", Start: 100 * u, End: 105 * u, Replay: true, Computed: true},
	} {
		tr.emit(s)
	}
	b := tr.budget("root")
	if b.Requests != 1 || b.E2EUs != 100 {
		t.Fatalf("end-to-end %v us over %d requests, want 100 over 1", b.E2EUs, b.Requests)
	}
	want := map[string]float64{"root": 40, "call": 10, "wire": 30, "engine": 15, "media": 5}
	sum := 0.0
	for _, r := range b.Rows {
		if math.Abs(r.SelfUs-want[r.Name]) > 1e-9 {
			t.Errorf("%s: self %v us, want %v", r.Name, r.SelfUs, want[r.Name])
		}
		sum += r.SelfUs
	}
	if math.Abs(sum-b.E2EUs) > 1e-9 || b.Unexplained {
		t.Errorf("self times sum to %v, end-to-end is %v", sum, b.E2EUs)
	}
	if b.RungSelfUs["cluster"] != 10 || b.RungSelfUs["rpc"] != 30 {
		t.Errorf("rung self times %v", b.RungSelfUs)
	}
}

// writeResults writes a result file of one workload "w" whose i-th run
// reports metrics[name][i].
func writeResults(t *testing.T, path string, metrics map[string][]dist) {
	t.Helper()
	f := resultFile{Commit: "c", GoVersion: "go", NProc: 2, GoMaxProcs: 2}
	for name, ds := range metrics {
		for i, d := range ds {
			if i == len(f.Runs) {
				f.Runs = append(f.Runs, runResult{Workload: "w", Attempted: 10, Metrics: map[string]dist{}})
			}
			f.Runs[i].Metrics[name] = d
		}
	}
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// verdicts runs the comparison and returns its exit code and the verdict
// of each metric of workload "w".
func verdicts(a, b, bounds string) (int, map[string]string, string) {
	var out bytes.Buffer
	code := compare(&out, a, b, bounds)
	got := map[string]string{}
	for _, line := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(line); len(f) >= 3 && f[0] == "w" {
			got[f[1]] = f[len(f)-1]
		}
	}
	return code, got, out.String()
}

// TestCompareVerdicts writes two result files and checks each verdict.
func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	bounds := filepath.Join(dir, "BENCHMARK.json")
	os.WriteFile(bounds, []byte(`{"workloads":[{"name":"w"}],"end_to_end":[
		{"name":"same","unit":"ms","better":"lower","bound":0.1},
		{"name":"worse","unit":"ms","better":"lower","bound":0.1},
		{"name":"better","unit":"1/s","better":"higher","bound":0.1},
		{"name":"noisy","unit":"ms","better":"lower","bound":0.1},
		{"name":"absent","unit":"ms","better":"lower","bound":0.1}]}`), 0o644)
	plain := func(vals ...float64) []dist {
		var ds []dist
		for _, v := range vals {
			ds = append(ds, dist{Value: v, Median: v})
		}
		return ds
	}
	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	writeResults(t, a, map[string][]dist{
		"same": plain(10, 10.1, 9.9, 10), "worse": plain(10, 10.1, 9.9, 10), "better": plain(10, 10.1, 9.9, 10),
		"noisy": plain(10, 14, 6, 10), "absent": plain(10, 10.1, 9.9, 10)})
	writeResults(t, b, map[string][]dist{
		"same": plain(10.5, 10.4, 10.6, 10.5), "worse": plain(12, 12.1, 11.9, 12), "better": plain(12, 12.1, 11.9, 12),
		"noisy": plain(10, 10, 10, 10)})
	code, got, out := verdicts(a, b, bounds)
	if code != 1 {
		t.Errorf("exit code %d, want 1 (one metric is worse, one missing)", code)
	}
	for name, want := range map[string]string{"same": "same", "worse": "worse", "better": "better", "noisy": "unresolved", "absent": "missing"} {
		if got[name] != want {
			t.Errorf("%s: verdict %q, want %q\n%s", name, got[name], want, out)
		}
	}
	if code, _, out := verdicts(a, a, bounds); code != 0 {
		t.Errorf("a file against itself: exit code %d\n%s", code, out)
	}
	// A metric missing from b fails the comparison even when nothing else does.
	os.WriteFile(bounds, []byte(`{"workloads":[{"name":"w"}],"end_to_end":[{"name":"absent","unit":"ms","better":"lower","bound":0.1}]}`), 0o644)
	if code, _, out := verdicts(a, b, bounds); code != 1 {
		t.Errorf("a pair missing from b: exit code %d, want 1\n%s", code, out)
	}
}

// TestCompareSeesStalls: when 70% of the windows take twice as long, the
// quietest of them, and with it every reported value, stays where it was;
// the comparison must still call the run worse, by its window median.
func TestCompareSeesStalls(t *testing.T) {
	// Ten runs of a closed loop of 1 ms operations, 100 to a window; in the
	// stalling runs windows 3 to 9 of every ten take 2 ms an operation.
	runs := func(stalling bool) (p50, rate []dist) {
		for r := 0; r < 10; r++ {
			var ops []op
			end := time.Duration(0)
			for i := 0; i < windows*100; i++ {
				dur := time.Millisecond + time.Duration(r)*time.Microsecond
				if stalling && (i/100)%10 >= 3 {
					dur *= 2
				}
				end += dur
				ops = append(ops, op{end: end, dur: dur, wait: dur, units: 1})
			}
			sum := summarize(ops, 0)
			p50, rate = append(p50, sum.P50), append(rate, sum.OpsPerS)
		}
		return p50, rate
	}
	dir := t.TempDir()
	bounds := filepath.Join(dir, "BENCHMARK.json")
	os.WriteFile(bounds, []byte(`{"workloads":[{"name":"w"}],"end_to_end":[
		{"name":"op_ms_p50","unit":"ms","better":"lower","bound":0.25},
		{"name":"ops_per_s","unit":"1/s","better":"higher","bound":0.25}]}`), 0o644)
	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	p50, rate := runs(false)
	writeResults(t, a, map[string][]dist{"op_ms_p50": p50, "ops_per_s": rate})
	stalled, stalledRate := runs(true)
	writeResults(t, b, map[string][]dist{"op_ms_p50": stalled, "ops_per_s": stalledRate})
	if v := stalled[0].Value / p50[0].Value; v > 1.01 {
		t.Fatalf("the stalls moved the reported value by %.2fx; the test no longer covers what it means to", v)
	}
	code, got, out := verdicts(a, b, bounds)
	if code != 1 || got["op_ms_p50"] != "worse" || got["ops_per_s"] != "worse" {
		t.Errorf("exit code %d, verdicts %v, want 1 and worse on both\n%s", code, got, out)
	}
}

// TestResultFileOfAnotherCommit: -out neither pools runs of another commit
// with this one's nor overwrites them.
func TestResultFileOfAnotherCommit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.json")
	res := &runResult{Workload: "w", Metrics: map[string]dist{}}
	if err := appendResult(path, res); err != nil {
		t.Fatal(err)
	}
	if err := appendResult(path, res); err != nil {
		t.Fatal(err)
	}
	f, err := readResults(path)
	if err != nil || len(f.Runs) != 2 {
		t.Fatalf("two appends left %d runs (%v)", len(f.Runs), err)
	}
	f.Commit = "another"
	data, _ := json.Marshal(f)
	os.WriteFile(path, data, 0o644)
	if err := appendResult(path, res); err == nil {
		t.Error("appended to a file of another commit")
	}
	if now, _ := os.ReadFile(path); !bytes.Equal(now, data) {
		t.Error("the refused append changed the file")
	}
}

// TestMain lets a test run the command itself: with BENCH_TEST_MAIN set the
// test binary is the benchmark.
func TestMain(m *testing.M) {
	if os.Getenv("BENCH_TEST_MAIN") != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestEveryWorkloadItsOwnPeakRSS runs the command without -workload: every
// workload prints its result line, and a small one that comes after a big
// one reports its own resident-set peak, not the largest so far.
func TestEveryWorkloadItsOwnPeakRSS(t *testing.T) {
	if testing.Short() {
		t.Skip("drives every workload")
	}
	cmd := exec.Command(os.Args[0], "-seconds", "0.2")
	cmd.Env = append(os.Environ(), "BENCH_TEST_MAIN=1")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	var rss []float64
	for _, line := range strings.Split(string(out), "\n") {
		var res struct {
			Metrics map[string]struct{ Value float64 }
		}
		if strings.HasPrefix(line, "{") && json.Unmarshal([]byte(line), &res) == nil {
			rss = append(rss, res.Metrics["peak_rss_mb"].Value)
		}
	}
	if len(rss) != len(workloadList) {
		t.Fatalf("%d result lines for %d workloads\n%s", len(rss), len(workloadList), out)
	}
	// train-tcp-fit (two nodes) holds about twice what engine-local-cold does.
	if workloadList[0].name != "train-tcp-fit" || workloadList[1].name != "engine-local-cold" {
		t.Fatal("the workloads changed order; pick a big one followed by a small one again")
	}
	if rss[1] > 0.75*rss[0] {
		t.Errorf("engine-local-cold reports a peak of %.0f MB after train-tcp-fit's %.0f MB: not its own", rss[1], rss[0])
	}
}
