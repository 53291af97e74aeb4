package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkFile is the part of BENCHMARK.json the comparison needs.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// stat is the median of a statistic across a file's runs and its spread:
// the inter-quartile distance as a share of the median.
type stat struct{ median, spread float64 }

// side is one file's view of one (metric, workload) pair: the reported
// value (for a timing, that of the quietest window) and the median across
// the run's windows, which a slowdown that spares some of the windows moves
// although it leaves the value alone.
type side struct {
	value, window stat
	runs          int
}

// sideOf gathers the untraced runs of a workload. With several runs the
// medians and quartiles are across runs; a single run falls back on its own
// quartiles across windows.
func sideOf(f *resultFile, workload, metric string) (side, bool) {
	var vals, wins []float64
	var last dist
	for _, r := range f.Runs {
		if r.Workload != workload || r.Trace != 0 {
			continue
		}
		if d, ok := r.Metrics[metric]; ok {
			vals = append(vals, d.Value)
			wins = append(wins, d.Median)
			last = d
		}
	}
	switch len(vals) {
	case 0:
		return side{}, false
	case 1:
		spread := ratio(last.Q3-last.Q1, last.Median)
		return side{value: stat{last.Value, spread}, window: stat{last.Median, spread}, runs: 1}, true
	}
	across := func(v []float64) stat {
		q1, q2, q3 := quartiles(v)
		return stat{q2, ratio(q3-q1, q2)}
	}
	return side{value: across(vals), window: across(wins), runs: len(vals)}, true
}

func errorRate(f *resultFile, workload string) float64 {
	attempted, failed := 0, 0
	for _, r := range f.Runs {
		if r.Workload == workload && r.Trace == 0 {
			attempted += r.Attempted
			failed += r.Failed
		}
	}
	return ratio(float64(failed), float64(attempted))
}

// judge settles one statistic: how much worse b is than a as a share of a
// (negative when better, whichever way the metric points), and what that
// means against the bound.
func judge(a, b stat, better string, bound float64) (delta float64, verdict string) {
	delta = ratio(b.median-a.median, a.median)
	if better == "higher" {
		delta = -delta
	}
	switch {
	case a.spread > bound || b.spread > bound:
		return delta, "unresolved"
	case delta > bound:
		return delta, "worse"
	case delta < -bound:
		return delta, "better"
	}
	return delta, "same"
}

// compare prints one row per (end-to-end metric, workload) and returns the
// exit code: 1 when any pair is worse than its bound allows, is missing
// from either file, or a workload's error rate rose.
//
// The verdict is that of the reported value, except that a window median
// that got worse by more than the bound overrides a "same" or "better":
// to "worse" when the window medians are themselves steady within the
// bound, to "unresolved" when they are not. The windows column shows it.
func compare(out io.Writer, pathA, pathB, boundsPath string) int {
	a, err := readResults(pathA)
	if err != nil {
		fatal(err.Error())
	}
	b, err := readResults(pathB)
	if err != nil {
		fatal(err.Error())
	}
	data, err := os.ReadFile(boundsPath)
	if err != nil {
		fatal(err.Error())
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		fatal(fmt.Sprintf("%s: %v", boundsPath, err))
	}
	fmt.Fprintf(out, "a: %s  commit %s  %s  nproc %d  GOMAXPROCS %d\n", pathA, a.Commit, a.GoVersion, a.NProc, a.GoMaxProcs)
	fmt.Fprintf(out, "b: %s  commit %s  %s  nproc %d  GOMAXPROCS %d\n", pathB, b.Commit, b.GoVersion, b.NProc, b.GoMaxProcs)
	fmt.Fprintf(out, "%-18s %-16s %12s %7s %12s %7s %8s %8s %6s  %s\n",
		"workload", "metric", "a median", "a iqr", "b median", "b iqr", "delta", "windows", "bound", "verdict")
	code := 0
	for _, w := range bf.Workloads {
		// A run that crashed or was never made must not pass for one that
		// held its bound.
		if inA, inB := untracedRuns(a, w.Name) > 0, untracedRuns(b, w.Name) > 0; !inA || !inB {
			fmt.Fprintf(out, "%-18s %-16s %s\n", w.Name, "(every metric)", missingRow(inA, inB))
			code = 1
			continue
		}
		for _, m := range bf.EndToEnd {
			sa, okA := sideOf(a, w.Name, m.Name)
			sb, okB := sideOf(b, w.Name, m.Name)
			if !okA || !okB {
				fmt.Fprintf(out, "%-18s %-16s %s\n", w.Name, m.Name, missingRow(okA, okB))
				code = 1
				continue
			}
			delta, verdict := judge(sa.value, sb.value, m.Better, m.Bound)
			winDelta, winVerdict := judge(sa.window, sb.window, m.Better, m.Bound)
			if winDelta > m.Bound && (verdict == "same" || verdict == "better") {
				verdict = winVerdict
			}
			if verdict == "worse" {
				code = 1
			}
			fmt.Fprintf(out, "%-18s %-16s %12.4f %6.1f%% %12.4f %6.1f%% %+7.1f%% %+7.1f%% %5.0f%%  %s\n",
				w.Name, m.Name, sa.value.median, 100*sa.value.spread, sb.value.median, 100*sb.value.spread,
				100*delta, 100*winDelta, 100*m.Bound, verdict)
		}
		if ea, eb := errorRate(a, w.Name), errorRate(b, w.Name); eb > ea {
			fmt.Fprintf(out, "%-18s %-16s %12.6f %7s %12.6f %7s %8s %8s %6s  worse\n", w.Name, "error_rate", ea, "", eb, "", "", "", "0%")
			code = 1
		}
	}
	return code
}

func untracedRuns(f *resultFile, workload string) int {
	n := 0
	for _, r := range f.Runs {
		if r.Workload == workload && r.Trace == 0 {
			n++
		}
	}
	return n
}

func missingRow(inA, inB bool) string {
	switch {
	case !inA && !inB:
		return "in no untraced run of either file  missing"
	case !inA:
		return "in no untraced run of a  missing"
	}
	return "in no untraced run of b  missing"
}
