// Test corpus for the determinism analyzer.
//
//oevet:deterministic-package
package a

import (
	"math/rand"
	"sort"
	"time"
)

func wallClock() int64 {
	return time.Now().UnixNano() // want `call to time\.Now in a deterministic package`
}

func elapsed(t0 time.Time) time.Duration {
	return time.Since(t0) // want `call to time\.Since in a deterministic package`
}

func globalRand() int {
	return rand.Intn(10) // want `call to rand\.Intn in a deterministic package`
}

func seededRand(seed int64) int {
	r := rand.New(rand.NewSource(seed)) // want `call to rand\.New in a deterministic package` `call to rand\.NewSource in a deterministic package`
	return r.Intn(10)                   // want `call to \(rand stream\)\.Intn in a deterministic package`
}

func mapOrderLeaks(m map[string]int) []string {
	var out []string
	for k := range m { // want `map iteration order can reach the result`
		out = append(out, k+"!")
	}
	return out
}

func sortedKeys(m map[string]int) []string { // ok: sorted-keys idiom
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func maxMerge(dst, src map[string]uint64) { // ok: order-independent merge
	for k, v := range src {
		if prev, ok := dst[k]; !ok || v > prev {
			dst[k] = v
		}
	}
}

func countEntries(m map[string]int) int { // ok: integer accumulation
	n := 0
	for range m {
		n++
	}
	return n
}

func intSum(m map[string]int64) int64 { // ok: integer += commutes exactly
	var s int64
	for _, v := range m {
		s += v
	}
	return s
}

func floatSum(m map[string]float64) float64 {
	var s float64
	for _, v := range m { // want `map iteration order can reach the result`
		s += v
	}
	return s
}

func callInBody(m map[string]int, f func(int)) {
	for _, v := range m { // want `map iteration order can reach the result`
		f(v)
	}
}

func notAMap(xs []int) int { // ok: slice ranges are ordered
	s := 0
	for _, v := range xs {
		s += v
	}
	return s
}
