package workload

import (
	"io"
	"math"
	"strings"
	"testing"
)

// sampleTSV is three lines in the Criteo Kaggle format: label, 13 integer
// features (some missing), 26 hex categoricals (some missing).
func sampleTSV() string {
	dense := []string{"1", "", "5", "0", "1382", "4", "15", "2", "181", "", "2", "", "2"}
	cats := make([]string, CriteoNumSparse)
	for i := range cats {
		cats[i] = "68fd1e64"
	}
	cats[3] = "" // missing categorical
	line1 := "0\t" + strings.Join(dense, "\t") + "\t" + strings.Join(cats, "\t")
	line2 := strings.Replace(line1, "0\t", "1\t", 1)
	cats[5] = "not-hex-value" // arbitrary string fallback
	line3 := "0\t" + strings.Join(dense, "\t") + "\t" + strings.Join(cats, "\t")
	return line1 + "\n" + line2 + "\n" + line3 + "\n"
}

func TestCriteoTSVParsing(t *testing.T) {
	c := NewCriteoTSV(strings.NewReader(sampleTSV()), 1000)
	if c.Keys() != 26*1000 {
		t.Fatalf("Keys = %d", c.Keys())
	}
	s1, err := c.Next()
	if err != nil {
		t.Fatal(err)
	}
	if s1.Label != 0 {
		t.Fatalf("label = %v", s1.Label)
	}
	if s1.Dense[0] != float32(math.Log1p(1)) {
		t.Fatalf("dense[0] = %v", s1.Dense[0])
	}
	if s1.Dense[1] != 0 { // missing
		t.Fatalf("missing dense = %v", s1.Dense[1])
	}
	for f, k := range s1.Sparse {
		lo := uint64(f) * 1000
		if k < lo || k >= lo+1000 {
			t.Fatalf("field %d key %d outside its range", f, k)
		}
	}
	s2, err := c.Next()
	if err != nil {
		t.Fatal(err)
	}
	if s2.Label != 1 {
		t.Fatalf("label2 = %v", s2.Label)
	}
	// Same categorical value hashes to the same key, deterministically.
	if s1.Sparse[0] != s2.Sparse[0] {
		t.Fatal("same value hashed differently")
	}
	// Non-hex values fall back to string hashing without error.
	s3, err := c.Next()
	if err != nil {
		t.Fatal(err)
	}
	if s3.Sparse[5] == s1.Sparse[5] {
		t.Fatal("distinct values collided (unlikely) or fallback broken")
	}
	if _, err := c.Next(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestCriteoTSVNextBatch(t *testing.T) {
	c := NewCriteoTSV(strings.NewReader(sampleTSV()), 100)
	batch, err := c.NextBatch(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 3 {
		t.Fatalf("batch = %d samples, want all 3", len(batch))
	}
	batch, err = c.NextBatch(10)
	if err != nil || len(batch) != 0 {
		t.Fatalf("exhausted stream: %d samples, err %v", len(batch), err)
	}
}

func TestCriteoTSVErrors(t *testing.T) {
	if _, err := NewCriteoTSV(strings.NewReader("too\tfew\tfields\n"), 10).Next(); err == nil {
		t.Fatal("short line accepted")
	}
	long := "2\t" + strings.Repeat("\t", CriteoNumDense+CriteoNumSparse-1)
	if _, err := NewCriteoTSV(strings.NewReader(long+"\n"), 10).Next(); err == nil {
		t.Fatal("bad label accepted")
	}
	bad := "0\tnotanumber" + strings.Repeat("\t", CriteoNumDense+CriteoNumSparse-1)
	if _, err := NewCriteoTSV(strings.NewReader(bad+"\n"), 10).Next(); err == nil {
		t.Fatal("bad dense accepted")
	}
	// ParseFloat reads these without error; each must still be refused,
	// on the line it sits on.
	for _, raw := range []string{"nan", "NaN", "inf", "+Inf", "-inf", "infinity"} {
		line := "0\t" + raw + strings.Repeat("\t", CriteoNumDense+CriteoNumSparse-1)
		c := NewCriteoTSV(strings.NewReader(line+"\n"), 10)
		if s, err := c.Next(); err == nil {
			t.Fatalf("dense %q accepted as %v", raw, s.Dense[0])
		} else if !strings.Contains(err.Error(), "line 1: dense I1") {
			t.Fatalf("dense %q: error %q does not name the line and feature", raw, err)
		}
	}
}

func TestCriteoTSVNegativeDenseClamped(t *testing.T) {
	dense := make([]string, CriteoNumDense)
	for i := range dense {
		dense[i] = "-3"
	}
	cats := make([]string, CriteoNumSparse)
	line := "0\t" + strings.Join(dense, "\t") + "\t" + strings.Join(cats, "\t")
	s, err := NewCriteoTSV(strings.NewReader(line+"\n"), 10).Next()
	if err != nil {
		t.Fatal(err)
	}
	if s.Dense[0] != 0 {
		t.Fatalf("negative dense not clamped: %v", s.Dense[0])
	}
}
