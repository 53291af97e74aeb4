package faultinject

import (
	"fmt"
	"os"
	"strconv"
)

// Seeds returns the seeds a seeded soak runs: 1, 7 and 42, then the soak's
// own regression seeds, or only the seed the environment variable
// OE_CHAOS_SEED names, to reproduce one run. A value that is not an unsigned
// decimal is an error; it never falls back to the defaults.
func Seeds(regress ...uint64) ([]uint64, error) {
	s := os.Getenv("OE_CHAOS_SEED")
	if s == "" {
		return append([]uint64{1, 7, 42}, regress...), nil
	}
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return nil, fmt.Errorf("OE_CHAOS_SEED=%q: %w", s, err)
	}
	return []uint64{v}, nil
}

// RunSeeds runs f once per seed of Seeds(regress...), each as a subtest of t
// named "seed=N", and fails t without running f when Seeds fails. T is
// *testing.T, named by the two methods used so that this package does not
// import testing.
func RunSeeds[T interface {
	Fatal(args ...any)
	Run(name string, f func(T)) bool
}](t T, f func(t T, seed uint64), regress ...uint64) {
	seeds, err := Seeds(regress...)
	if err != nil {
		t.Fatal(err)
		return
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t T) { f(t, seed) })
	}
}
