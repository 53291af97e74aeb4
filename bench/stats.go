package main

import (
	"math"
	"sort"
	"time"
)

// windows is how many equal-count slices the measured phase is cut into
// (about a sixth of a second each at the declared run length), and
// windowStride how many positions a window is tried at per window length.
//
// The reference box is a 2-vCPU guest on a shared host, and what its
// neighbours take from it is the memory system: for five to fifteen minutes
// at a time a 16 MB pointer chase reads 70 to 240 ns a step while a
// register-only loop does not move, and every workload here runs 25-45%
// slower (whole-run medians; README.md has the series). Inside such a spell
// the slowdown still comes and goes by the second. Interference only ever
// makes a window slower, so each end-to-end timing is computed per window,
// for windows slid across the run a quarter of their length at a time, and
// the reported value is that of the quietest window: what the system does
// when left alone, which is also what a code change moves. On recorded runs
// that straddled a slow spell this halved the run-to-run spread against the
// mean of the best quarter of 36 windows (engine-local-cold p50: 31% to
// 16%); windows of half the length steadied p90 further (26% to 16%), since
// the quiet stretches are a few tenths of a second long; and the longer the
// run the likelier it holds one. The
// median and quartiles across the disjoint windows are printed beside it as
// the run's own spread.
const (
	windows      = 150
	windowStride = 4
)

// op is one completed primary operation of a closed loop.
type op struct {
	end   time.Duration // completion time since the phase started
	dur   time.Duration // caller-observed latency
	wait  time.Duration // part of dur the caller was blocked on the parameter server
	units int           // throughput units the op carried (samples, keys or requests)
}

// dist is a metric's distribution across windows (or across set-ups):
// Value is what is reported — the quietest window's value of a windowed
// metric, the median of anything else — Median/Q1/Q3 the quartiles across
// the disjoint windows, N the number of operations behind it.
type dist struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// summary is what one measured phase reports.
type summary struct {
	OpsPerS  dist
	P50, P90 dist
	P99      dist
	WaitP50  dist
	// Whole-run tail diagnostics: not gated, because one interference
	// burst anywhere in the run decides them.
	RunP99Ms, RunMaxMs float64
	Ops                int
}

// pct returns the nearest-rank p-quantile of sorted.
func pct(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// quartiles matches Python's statistics.quantiles(values, n=4) (the
// exclusive method), which is what the driver judges spreads with.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

func median(values []float64) float64 {
	_, m, _ := quartiles(values)
	return m
}

// medianOf reports the median of a handful of repeated measurements.
func medianOf(values []float64, unit string) dist {
	q1, q2, q3 := quartiles(values)
	return dist{Value: q2, Unit: unit, Median: q2, Q1: q1, Q3: q3, N: len(values)}
}

// quietest reports the best of a metric's values, one per position a window
// was tried at: the lowest when lower is better, the highest otherwise. The
// quartiles are taken across the positions that are whole windows apart.
func quietest(vals []float64, whole []bool, unit string, n int, lowerBetter bool) dist {
	var disjoint []float64
	best := vals[0]
	for i, x := range vals {
		if whole[i] {
			disjoint = append(disjoint, x)
		}
		if lowerBetter == (x < best) {
			best = x
		}
	}
	q1, q2, q3 := quartiles(disjoint)
	return dist{Value: best, Unit: unit, Median: q2, Q1: q1, Q3: q3, N: n}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// summarize slides a window of len(ops)/windows operations across ops (all
// completed after start) and reports each metric at its quietest position.
func summarize(ops []op, start time.Duration) summary {
	sort.Slice(ops, func(i, j int) bool { return ops[i].end < ops[j].end })
	n := len(ops)
	k := n / windows
	if k == 0 {
		k = 1
	}
	step := k / windowStride
	if step == 0 {
		step = 1
	}
	var rate, p50, p90, p99, wait []float64
	var whole []bool
	durs := make([]float64, k)
	waits := make([]float64, k)
	for a := 0; a+k <= n; a += step {
		win := ops[a : a+k]
		units := 0
		for j, o := range win {
			durs[j], waits[j] = ms(o.dur), ms(o.wait)
			units += o.units
		}
		sort.Float64s(durs)
		sort.Float64s(waits)
		prev := start
		if a > 0 {
			prev = ops[a-1].end
		}
		span := win[k-1].end - prev
		if span <= 0 {
			span = 1 // two operations of a few-operation run ending in the same nanosecond
		}
		whole = append(whole, a%k == 0)
		rate = append(rate, float64(units)/span.Seconds())
		p50 = append(p50, pct(durs, 0.50))
		p90 = append(p90, pct(durs, 0.90))
		p99 = append(p99, pct(durs, 0.99))
		wait = append(wait, pct(waits, 0.50))
	}
	all := make([]float64, n)
	for i, o := range ops {
		all[i] = ms(o.dur)
	}
	sort.Float64s(all)
	return summary{
		OpsPerS:  quietest(rate, whole, "1/s", n, false),
		P50:      quietest(p50, whole, "ms", n, true),
		P90:      quietest(p90, whole, "ms", n, true),
		P99:      quietest(p99, whole, "ms", n, true),
		WaitP50:  quietest(wait, whole, "ms", n, true),
		RunP99Ms: pct(all, 0.99),
		RunMaxMs: pct(all, 1),
		Ops:      n,
	}
}

// p50of returns the median of a duration sample in the given unit.
func p50of(ds []time.Duration, unit time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	v := make([]float64, len(ds))
	for i, d := range ds {
		v[i] = float64(d) / float64(unit)
	}
	sort.Float64s(v)
	return pct(v, 0.5)
}
