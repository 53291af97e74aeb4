package faultinject

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// seedT stands in for *testing.T: it records the subtests RunSeeds starts,
// the seeds they are handed and what it fails with.
type seedT struct {
	runs   []string
	seeds  []uint64
	failed string
}

func (s *seedT) Fatal(args ...any) { s.failed = fmt.Sprint(args...) }

func (s *seedT) Run(name string, f func(*seedT)) bool {
	s.runs = append(s.runs, name)
	f(s)
	return true
}

func runSeeds(regress ...uint64) *seedT {
	st := &seedT{}
	RunSeeds(st, func(st *seedT, seed uint64) { st.seeds = append(st.seeds, seed) }, regress...)
	return st
}

// TestSeeds: unset, every soak runs seeds 1, 7 and 42, then its own
// regression seeds, as subtests "seed=N"; OE_CHAOS_SEED narrows the list to
// the one seed it names, regression seeds or not.
func TestSeeds(t *testing.T) {
	for _, c := range []struct {
		env     string
		regress []uint64
		want    []uint64
		runs    []string
	}{
		{"", nil, []uint64{1, 7, 42}, []string{"seed=1", "seed=7", "seed=42"}},
		{"", []uint64{19, 23}, []uint64{1, 7, 42, 19, 23}, []string{"seed=1", "seed=7", "seed=42", "seed=19", "seed=23"}},
		{"7", nil, []uint64{7}, []string{"seed=7"}},
		{"7", []uint64{19, 23}, []uint64{7}, []string{"seed=7"}},
		{"18446744073709551615", nil, []uint64{1<<64 - 1}, []string{"seed=18446744073709551615"}},
	} {
		t.Setenv("OE_CHAOS_SEED", c.env)
		got, err := Seeds(c.regress...)
		if err != nil || !slices.Equal(got, c.want) {
			t.Fatalf("OE_CHAOS_SEED=%q: Seeds(%v) = %v, %v; want %v", c.env, c.regress, got, err, c.want)
		}
		st := runSeeds(c.regress...)
		if st.failed != "" || !slices.Equal(st.runs, c.runs) || !slices.Equal(st.seeds, c.want) {
			t.Fatalf("OE_CHAOS_SEED=%q: RunSeeds(%v) ran %v with seeds %v (failed %q); want %v with %v",
				c.env, c.regress, st.runs, st.seeds, st.failed, c.runs, c.want)
		}
	}
}

// TestSeedsRejectsGarbage: a value that does not parse is an error, and a
// soak fails with it instead of running the default seeds.
func TestSeedsRejectsGarbage(t *testing.T) {
	for _, env := range []string{"seven", "-1", "7,42", " 7"} {
		t.Setenv("OE_CHAOS_SEED", env)
		if got, err := Seeds(); err == nil {
			t.Fatalf("OE_CHAOS_SEED=%q: Seeds() = %v, want an error", env, got)
		}
		st := runSeeds(19)
		if !strings.Contains(st.failed, "OE_CHAOS_SEED=") || len(st.runs) != 0 {
			t.Fatalf("OE_CHAOS_SEED=%q: RunSeeds ran %v and failed with %q; want no subtest and the parse error", env, st.runs, st.failed)
		}
	}
}
