// Command bench is the repository's end-to-end benchmark: training against
// a TCP parameter-server cluster, a larger-than-cache engine, serving, and
// serving beside writes, each a closed loop of 2 load goroutines against
// servers in the same process over real loopback TCP. BENCHMARK.json at the
// repository root describes it; README.md here explains the workloads, the
// metrics and how they interact.
//
//	bash bench/run.sh                           every workload, end-to-end metrics
//	bash bench/run.sh -workload serve-tcp-hot   one workload
//	bash bench/run.sh -trace 1                  the traced run: per-layer metrics, budget table, Chrome trace
//	bash bench/run.sh -out a.json               also append the results to a.json
//	bash bench/run.sh -compare a.json b.json    judge b.json against a.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// options are the command's inputs. The seed is the only input to the
// generators; the system under test sees nothing but generated inputs.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	setups   int // not a flag: setupRuns everywhere but in the tests
	out      string
	traceOut string
	compare  bool
}

// setupRuns is how often a run sets its workload up; setup_s is the median.
// A constant, like the file the comparison takes its bounds from, so that
// every result file was taken the same way and any two can be compared.
const (
	setupRuns  = 5
	boundsFile = "BENCHMARK.json"
)

func main() {
	o := options{setups: setupRuns}
	flag.StringVar(&o.workload, "workload", "", "workload to run (default: all of them)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the input generators")
	flag.Float64Var(&o.seconds, "seconds", 26, "length of the measured phase")
	flag.IntVar(&o.trace, "trace", 0, "1 runs with the layer decorators installed and reports the per-layer metrics")
	flag.StringVar(&o.out, "out", "", "append the results to this JSON file")
	flag.StringVar(&o.traceOut, "trace-out", "", "Chrome trace_event file of a traced run (default .bench_build/trace-<workload>.json)")
	flag.BoolVar(&o.compare, "compare", false, "compare two result files: -compare a.json b.json")
	flag.Parse()
	if o.compare {
		if flag.NArg() != 2 {
			fatal("-compare takes two result files")
		}
		os.Exit(compare(os.Stdout, flag.Arg(0), flag.Arg(1), boundsFile))
	}
	// Numbers taken with fewer threads than cores describe a different
	// machine; refuse rather than record them.
	if p, n := runtime.GOMAXPROCS(0), runtime.NumCPU(); p != n {
		fatal(fmt.Sprintf("GOMAXPROCS is %d but the machine has %d CPUs; unset GOMAXPROCS", p, n))
	}
	if o.seconds <= 0 || o.trace < 0 || o.trace > 1 || flag.NArg() > 0 {
		fatal("need -seconds > 0, -trace 0 or 1, and no argument after the flags")
	}
	if o.workload == "" {
		if o.traceOut != "" {
			fatal("-trace-out names one file: give -workload too")
		}
		os.Exit(runEach(os.Args[1:]))
	}
	w := findWorkload(o.workload)
	if w == nil {
		fatal(fmt.Sprintf("unknown workload %q", o.workload))
	}
	res, err := run(w, o, os.Stdout)
	if err != nil {
		fatal(fmt.Sprintf("%s: %v", w.name, err))
	}
	if o.out != "" {
		if err := appendResult(o.out, res); err != nil {
			fatal(err.Error())
		}
	}
	// The line the driver reads: last on standard output.
	line, err := json.Marshal(res.driverLine())
	if err != nil {
		fatal(err.Error())
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// runEach runs every workload with the given flags, each in a process of
// its own, and returns the exit code. One process for all would hand each
// workload the heap, the collector's pacing and the resident-set high-water
// mark of those before it: serve-tcp-hot peaks at 647 MB alone and at
// 809 MB after the others, and the mark never comes down.
func runEach(args []string) int {
	exe, err := os.Executable()
	if err != nil {
		fatal(err.Error())
	}
	code := 0
	for _, w := range workloadList {
		// The last -workload on a command line is the one that counts.
		cmd := exec.Command(exe, append(args[:len(args):len(args)], "-workload", w.name)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			var exit *exec.ExitError
			if !errors.As(err, &exit) {
				fatal(err.Error())
			}
			code = 1
		}
	}
	return code
}

func fatal(msg string) {
	fmt.Fprintln(os.Stderr, "bench:", msg)
	os.Exit(2)
}

// runResult is one run of one workload, as the result file keeps it.
type runResult struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Trace       int                `json:"trace"`
	Seconds     float64            `json:"seconds"`
	Ops         int                `json:"ops"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Correct     bool               `json:"correct"`
	Metrics     map[string]dist    `json:"metrics"`
	Diagnostics map[string]float64 `json:"diagnostics,omitempty"`
	Checks      []checkResult      `json:"checks"`
}

// judge runs the scenario's output checks and settles whether the run was
// correct: no failed operation and every check passed.
func (r *runResult) judge(s *scenario, ops, failed int) {
	r.Ops, r.Failed, r.Attempted = ops, failed, ops+failed
	r.Checks = s.checks()
	r.Correct = failed == 0
	for _, c := range r.Checks {
		r.Correct = r.Correct && c.OK
	}
}

func (r *runResult) driverLine() map[string]any {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	m := map[string]mv{}
	for k, d := range r.Metrics {
		m[k] = mv{d.Value, d.Unit}
	}
	return map[string]any{"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": m}
}

// warmup is how long the loops run before measuring starts: caches fill,
// connections and pools settle, the cold engine reaches its steady miss
// rate.
func warmup(seconds float64) time.Duration {
	w := seconds / 5
	if w < 0.2 {
		w = 0.2
	}
	if w > 2 {
		w = 2
	}
	return time.Duration(w * float64(time.Second))
}

// measured is one timed phase of a running scenario.
type measured struct {
	ops, other []op
	from, to   time.Duration
}

// measure lets the started scenario warm up, then collects the operations
// that complete in the next d. between runs at the boundary.
func measure(s *scenario, d time.Duration, between func()) measured {
	time.Sleep(warmup(d.Seconds()))
	if between != nil {
		between()
	}
	var m measured
	m.from = s.rec.now()
	time.Sleep(d)
	m.to = s.rec.now()
	m.ops = s.rec.since(m.from, m.to)
	if s.other != nil {
		m.other = s.other.since(m.from, m.to)
	}
	return m
}

func (s *scenario) failures() (int, error) {
	failed, err := s.rec.outcome()
	if s.other != nil {
		f, e := s.other.outcome()
		failed += f
		if err == nil {
			err = e
		}
	}
	return failed, err
}

func run(w *workloadInfo, o options, out io.Writer) (*runResult, error) {
	res := &runResult{Workload: w.name, Seed: o.seed, Trace: o.trace, Seconds: o.seconds, Metrics: map[string]dist{}}
	d := time.Duration(o.seconds * float64(time.Second))
	if o.trace == 1 {
		return res, runTraced(w, o, d, res, out)
	}

	// Set up several times and report the median, so that one slow page
	// fault storm does not decide setup_s; only the last set-up is driven.
	var setups []float64
	var s *scenario
	for i := 0; i < o.setups; i++ {
		if s != nil {
			// Hand the previous set-up's arenas back first, so that every
			// set-up starts from the same memory and the peak RSS is that
			// of one of them, not of however many the collector had not
			// got round to.
			s.close()
			debug.FreeOSMemory()
		}
		start := time.Now()
		var err error
		if s, err = w.build(o.seed, nil); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer s.close()
	s.start()
	m := measure(s, d, nil)
	s.stop()
	rss := peakRSSMB()
	failed, ferr := s.failures()
	if len(m.ops) == 0 {
		return nil, fmt.Errorf("no operation completed (%v)", ferr)
	}
	sum := summarize(m.ops, m.from)
	res.judge(s, sum.Ops, failed)
	res.Metrics["ops_per_s"] = sum.OpsPerS
	res.Metrics["op_ms_p50"] = sum.P50
	res.Metrics["op_ms_p90"] = sum.P90
	res.Metrics["ps_wait_ms_p50"] = sum.WaitP50
	var oth summary
	if len(m.other) > 0 {
		// The mixed workload has a training side too: its batches are what
		// waits on the parameter server there.
		oth = summarize(m.other, m.from)
		res.Metrics["ps_wait_ms_p50"] = oth.P50
	}
	res.Metrics["peak_rss_mb"] = medianOf([]float64{rss}, "MB")
	res.Metrics["setup_s"] = medianOf(setups, "s")
	res.Diagnostics = map[string]float64{
		"op_ms_p99_quietest_window": sum.P99.Value, "op_ms_p99_run": sum.RunP99Ms, "op_ms_max_run": sum.RunMaxMs,
	}

	fmt.Fprintf(out, "%s  seed %d  %.1fs measured after %.1fs warm-up  %d x %s (ops_per_s counts %s)\n",
		w.name, o.seed, o.seconds, warmup(o.seconds).Seconds(), sum.Ops, w.op, w.unit)
	fmt.Fprintf(out, "  %-16s %14s %-5s %14s %14s %14s %8s\n", "metric", "value", "unit", "q1", "median", "q3", "samples")
	for _, def := range e2eMetrics {
		dd := res.Metrics[def.Name]
		fmt.Fprintf(out, "  %-16s %14.4f %-5s %14.4f %14.4f %14.4f %8d\n", def.Name, dd.Value, dd.Unit, dd.Q1, dd.Median, dd.Q3, dd.N)
	}
	fmt.Fprintf(out, "  error_rate %d/%d; ungated: quietest-window p99 %.3f ms, whole-run p99 %.3f ms, max %.3f ms\n",
		failed, res.Attempted, sum.P99.Value, sum.RunP99Ms, sum.RunMaxMs)
	if len(m.other) > 0 {
		fmt.Fprintf(out, "  other side (%s): %d ops, %.1f units/s, p50 %.3f ms, p90 %.3f ms\n",
			s.otherOp, oth.Ops, oth.OpsPerS.Value, oth.P50.Value, oth.P90.Value)
		res.Diagnostics["other_ops_per_s"] = oth.OpsPerS.Value
		res.Diagnostics["other_op_ms_p50"] = oth.P50.Value
	}
	printChecks(out, res.Checks, ferr)
	return res, nil
}

func printChecks(out io.Writer, checks []checkResult, ferr error) {
	for _, c := range checks {
		verdict := "ok"
		if !c.OK {
			verdict = "FAILED"
		}
		fmt.Fprintf(out, "  check %-22s %-6s %s\n", c.Name, verdict, c.Detail)
	}
	if ferr != nil {
		fmt.Fprintf(out, "  operation failed: %v\n", ferr)
	}
}

// runTraced drives the workload twice: briefly as the untraced run does,
// for the reference median, then with the decorators, a registry and a
// meter installed. Its end-to-end numbers are not reported: those always
// come from the untraced run.
func runTraced(w *workloadInfo, o options, d time.Duration, res *runResult, out io.Writer) error {
	ref, err := w.build(o.seed, nil)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	ref.start()
	rm := measure(ref, d/3, nil)
	ref.stop()
	ref.close()
	debug.FreeOSMemory()
	if len(rm.ops) == 0 {
		return fmt.Errorf("reference phase completed no operation")
	}
	refP50 := summarize(rm.ops, rm.from).P50.Value

	ly := newLayers(2)
	s, err := w.build(o.seed, ly)
	if err != nil {
		return fmt.Errorf("traced set-up: %w", err)
	}
	defer s.close()
	var before counters
	s.start()
	m := measure(s, d*2/3, func() {
		ly.tr.reset()
		before = readCounters(s)
	})
	after := readCounters(s)
	s.stop()
	failed, ferr := s.failures()
	if len(m.ops) == 0 {
		return fmt.Errorf("traced phase completed no operation (%v)", ferr)
	}
	sum := summarize(m.ops, m.from)
	batches := 0
	if s.batches != nil {
		batches = len(s.batches.since(m.from, m.to))
	}
	pmemRead, pmemWrite, err := pmemCost(s.store)
	if err != nil {
		return err
	}
	for req, c := range s.pmemOps {
		ly.tr.addReplayed(req, "core.pull", "pmem.read", "pmem", time.Duration(c[0])*pmemRead)
		ly.tr.addReplayed(req, "core.maint_drain", "pmem.write", "pmem", time.Duration(c[1])*pmemWrite)
	}
	b := ly.tr.budget(s.root)
	overhead := 100 * (sum.P50.Value - refP50) / refP50
	vals := layerValues(s, before, after, b, len(m.ops), batches, pmemRead, pmemWrite, overhead)
	res.judge(s, sum.Ops, failed)
	for _, def := range layerMetrics {
		v := vals[def.Name]
		res.Metrics[def.Name] = dist{Value: v, Unit: def.Unit, Median: v, Q1: v, Q3: v, N: sum.Ops}
	}
	res.Diagnostics = map[string]float64{"traced_op_ms_p50": sum.P50.Value, "untraced_op_ms_p50": refP50}

	path := o.traceOut
	if path == "" {
		path = filepath.Join(".bench_build", "trace-"+w.name+".json")
	}
	if err := ly.tr.writeChrome(path); err != nil {
		return fmt.Errorf("writing the trace: %w", err)
	}
	fmt.Fprintf(out, "%s  seed %d  traced %.1fs: %d x %s, p50 %.3f ms traced against %.3f ms untraced\n",
		w.name, o.seed, (d * 2 / 3).Seconds(), sum.Ops, w.op, sum.P50.Value, refP50)
	for _, def := range layerMetrics {
		fmt.Fprintf(out, "  %-34s %14.4f %s\n", def.Name, vals[def.Name], def.Unit)
	}
	b.print(out, w.name)
	if s.other != nil {
		// The other side's blocking path: the writer's batch.
		ly.tr.budget("ps.batch").print(out, w.name+", "+s.otherOp)
	}
	fmt.Fprintf(out, "  Chrome trace: %s\n", path)
	printChecks(out, res.Checks, ferr)
	return nil
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// resultFile is what -out writes: the machine and build the numbers belong
// to, then every run appended to it.
type resultFile struct {
	Commit     string      `json:"commit"`
	GoVersion  string      `json:"go_version"`
	NProc      int         `json:"nproc"`
	GoMaxProcs int         `json:"gomaxprocs"`
	Runs       []runResult `json:"runs"`
}

// appendResult adds the run to the file at path. Runs of another commit,
// toolchain or machine are not comparable with it, so a file that holds
// those is refused, not pooled with and not overwritten.
func appendResult(path string, res *runResult) error {
	f := resultFile{Commit: commit(), GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0)}
	switch old, err := readResults(path); {
	case errors.Is(err, fs.ErrNotExist):
	case err != nil:
		return err
	case old.Commit != f.Commit || old.GoVersion != f.GoVersion || old.NProc != f.NProc || old.GoMaxProcs != f.GoMaxProcs:
		return fmt.Errorf("%s holds runs of commit %s, %s, nproc %d, GOMAXPROCS %d; this is commit %s, %s, nproc %d, GOMAXPROCS %d: name another file",
			path, old.Commit, old.GoVersion, old.NProc, old.GoMaxProcs, f.Commit, f.GoVersion, f.NProc, f.GoMaxProcs)
	default:
		f.Runs = old.Runs
	}
	f.Runs = append(f.Runs, *res)
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// commit names the source the numbers were taken from: the commit, with
// "-dirty" when tracked files differ from it (as git describe --dirty has
// it: untracked files, result files among them, do not count). A checkout
// that is not a git repository has no name.
func commit() string {
	head, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	name := strings.TrimSpace(string(head))
	if changes, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output(); err != nil || len(changes) > 0 {
		name += "-dirty"
	}
	return name
}
