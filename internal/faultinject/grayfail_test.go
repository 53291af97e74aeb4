package faultinject

import (
	"errors"
	"net"
	"testing"
)

// Gray-failure fault model tests (DESIGN.md §16): partitions surface as
// timeouts, slow links delay without failing, and occurrence windows give
// deterministic partition start/heal points.

func TestPartitionWriteIsTimeout(t *testing.T) {
	in := New(1, Rule{Point: PointConnWrite, Label: "w", Kind: KindPartition, Nth: 1})
	a, b := net.Pipe()
	defer b.Close()
	w := in.WrapConn(a, "w")
	_, err := w.Write([]byte("hello"))
	if err == nil {
		t.Fatal("partitioned write succeeded")
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("partition err = %v, want net.Error with Timeout()=true", err)
	}
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("partition err = %v, want errors.Is(ErrInjected)", err)
	}
	// The conn is closed: silent loss means the framing is unrecoverable,
	// exactly like a real blown deadline.
	if _, err := a.Write([]byte("x")); err == nil {
		t.Fatal("underlying conn still open after partition")
	}
	if got := in.Counts()[KindPartition]; got != 1 {
		t.Fatalf("partition count = %d, want 1", got)
	}
}

func TestPartitionReadIsTimeout(t *testing.T) {
	in := New(1, Rule{Point: PointConnRead, Label: "r", Kind: KindPartition, Nth: 1})
	a, b := net.Pipe()
	defer b.Close()
	r := in.WrapConn(a, "r")
	_, err := r.Read(make([]byte, 8))
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("partitioned read err = %v, want timeout-flavored", err)
	}
}

func TestOccurrenceWindow(t *testing.T) {
	// From 3, Until 6: fires exactly at occurrences 3, 4, 5 (1-based,
	// Until exclusive) — a deterministic partition with start and heal.
	in := New(1, Rule{Point: PointConnWrite, Label: "x", Kind: KindReset, Prob: 1, From: 3, Until: 6})
	for i := 1; i <= 10; i++ {
		f := in.On(PointConnWrite, "x")
		want := i >= 3 && i < 6
		if (f.Kind == KindReset) != want {
			t.Fatalf("occurrence %d: fired=%v, want %v", i, f.Kind == KindReset, want)
		}
	}
}

func TestOccurrenceWindowUnbounded(t *testing.T) {
	// Until 0 never heals: a hard partition from occurrence 4 onward.
	in := New(1, Rule{Point: PointConnWrite, Label: "x", Kind: KindPartition, Prob: 1, From: 4})
	for i := 1; i <= 8; i++ {
		f := in.On(PointConnWrite, "x")
		if (f.Kind == KindPartition) != (i >= 4) {
			t.Fatalf("occurrence %d: kind %v", i, f.Kind)
		}
	}
}

func TestWindowsArePerLabel(t *testing.T) {
	// Each (point, label) stream numbers its own occurrences, so a window
	// partitions one peer without perturbing another's schedule.
	in := New(1, Rule{Point: PointConnWrite, Label: "node1", Kind: KindPartition, Prob: 1, From: 2, Until: 3})
	if f := in.On(PointConnWrite, "node0"); f.Kind != KindNone {
		t.Fatalf("node0 occurrence 1 fired %v", f.Kind)
	}
	if f := in.On(PointConnWrite, "node1"); f.Kind != KindNone {
		t.Fatalf("node1 occurrence 1 fired %v (window starts at 2)", f.Kind)
	}
	if f := in.On(PointConnWrite, "node1"); f.Kind != KindPartition {
		t.Fatalf("node1 occurrence 2 = %v, want partition", f.Kind)
	}
	if f := in.On(PointConnWrite, "node0"); f.Kind != KindNone {
		t.Fatalf("node0 occurrence 2 fired %v (rule is node1-scoped)", f.Kind)
	}
}

func TestPartitionDeterministicAcrossRuns(t *testing.T) {
	// The same seed and rule set yields the same partition schedule: the
	// windowed rule composes with a probabilistic one and both replay.
	run := func() []Kind {
		in := New(42,
			Rule{Point: PointConnWrite, Label: "n", Kind: KindPartition, Prob: 1, From: 5, Until: 9},
			Rule{Point: PointConnWrite, Label: "n", Kind: KindReset, Prob: 0.3},
		)
		var kinds []Kind
		for i := 0; i < 32; i++ {
			kinds = append(kinds, in.On(PointConnWrite, "n").Kind)
		}
		return kinds
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("occurrence %d: run1 %v, run2 %v (schedule must replay)", i+1, a[i], b[i])
		}
	}
	fired := false
	for i := 4; i < 8; i++ {
		if a[i] == KindPartition {
			fired = true
		}
	}
	if !fired {
		t.Fatal("windowed partition rule never fired inside its window")
	}
}
