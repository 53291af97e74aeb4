package workload

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// CriteoTSV streams samples from the real Criteo display-advertising
// dataset (the Kaggle/Terabyte TSV format the paper evaluates on in
// Sec. VI-F): one example per line, tab-separated —
//
//	label \t I1..I13 (integer features) \t C1..C26 (hex categorical ids)
//
// with empty fields for missing values. Categorical values are hashed into
// per-field key ranges of the given cardinality, integer features get the
// standard log(1+x) transform, so the output Samples are drop-in
// replacements for the synthetic generator's.
type CriteoTSV struct {
	scanner   *bufio.Scanner
	fieldCard int
	offsets   [CriteoNumSparse]uint64
	line      int
}

// NewCriteoTSV wraps a TSV stream. fieldCardinality bounds each field's
// hashed id range (the "hashing trick"; 1e6 is the common choice).
func NewCriteoTSV(r io.Reader, fieldCardinality int) *CriteoTSV {
	if fieldCardinality <= 0 {
		fieldCardinality = 1 << 20
	}
	c := &CriteoTSV{
		scanner:   bufio.NewScanner(r),
		fieldCard: fieldCardinality,
	}
	c.scanner.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for f := 0; f < CriteoNumSparse; f++ {
		c.offsets[f] = uint64(f) * uint64(fieldCardinality)
	}
	return c
}

// Keys returns the total embedding key space (26 * fieldCardinality).
func (c *CriteoTSV) Keys() int { return CriteoNumSparse * c.fieldCard }

// Next parses one sample. It returns io.EOF at end of stream and a
// descriptive error on malformed lines.
func (c *CriteoTSV) Next() (Sample, error) {
	var s Sample
	if !c.scanner.Scan() {
		if err := c.scanner.Err(); err != nil {
			return s, fmt.Errorf("workload: criteo tsv: %w", err)
		}
		return s, io.EOF
	}
	c.line++
	fields := strings.Split(c.scanner.Text(), "\t")
	if len(fields) != 1+CriteoNumDense+CriteoNumSparse {
		return s, fmt.Errorf("workload: criteo tsv line %d: %d fields, want %d",
			c.line, len(fields), 1+CriteoNumDense+CriteoNumSparse)
	}
	switch fields[0] {
	case "1":
		s.Label = 1
	case "0", "":
		s.Label = 0
	default:
		return s, fmt.Errorf("workload: criteo tsv line %d: bad label %q", c.line, fields[0])
	}
	for i := 0; i < CriteoNumDense; i++ {
		raw := fields[1+i]
		if raw == "" {
			continue // missing: stays 0
		}
		// ParseFloat accepts "nan" and "inf" without error; one such
		// feature would poison every dense parameter at the next update.
		v, err := strconv.ParseFloat(raw, 32)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			return s, fmt.Errorf("workload: criteo tsv line %d: dense I%d %q", c.line, i+1, raw)
		}
		if v < 0 {
			v = 0 // the dataset has a few negatives; clamp like most pipelines
		}
		s.Dense[i] = float32(math.Log1p(v))
	}
	for f := 0; f < CriteoNumSparse; f++ {
		raw := fields[1+CriteoNumDense+f]
		var id uint64
		if raw != "" {
			h, err := strconv.ParseUint(raw, 16, 64)
			if err != nil {
				// Some exports carry arbitrary strings; hash the bytes.
				h = hashString(raw)
			}
			id = mix64(h) % uint64(c.fieldCard)
		}
		s.Sparse[f] = c.offsets[f] + id
	}
	return s, nil
}

// NextBatch reads up to n samples, stopping early at EOF. It returns an
// empty slice (and nil error) when the stream is exhausted.
func (c *CriteoTSV) NextBatch(n int) ([]Sample, error) {
	out := make([]Sample, 0, n)
	for len(out) < n {
		s, err := c.Next()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, s)
	}
	return out, nil
}

func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func hashString(s string) uint64 {
	var h uint64 = 14695981039346656037 // FNV-1a
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
