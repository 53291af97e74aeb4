package psengine

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"openembedding/internal/optim"
)

func TestWithDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.Dim != 64 || c.Optimizer == nil || c.Initializer == nil {
		t.Fatalf("defaults incomplete: %+v", c)
	}
	if c.Capacity != 1<<20 || c.CacheEntries != c.Capacity/8 {
		t.Fatalf("defaults wrong: %+v", c)
	}
	// Explicit values survive.
	c2 := Config{Dim: 8, Capacity: 100, CacheEntries: 10}.WithDefaults()
	if c2.Dim != 8 || c2.Capacity != 100 || c2.CacheEntries != 10 {
		t.Fatalf("explicit config overridden: %+v", c2)
	}
}

func TestEntryFloats(t *testing.T) {
	c := Config{Dim: 16, Optimizer: optim.NewAdaGrad(0.1)}.WithDefaults()
	if got := c.EntryFloats(); got != 32 { // weights + adagrad accumulators
		t.Fatalf("EntryFloats = %d", got)
	}
	c2 := Config{Dim: 16, Optimizer: optim.NewSGD(0.1)}.WithDefaults()
	if got := c2.EntryFloats(); got != 16 {
		t.Fatalf("SGD EntryFloats = %d", got)
	}
}

func TestXavierInitDeterministicAndBounded(t *testing.T) {
	init := XavierInit(16)
	bound := 1 / math.Sqrt(16)
	f := func(key uint64) bool {
		a := make([]float32, 16)
		b := make([]float32, 16)
		init(key, a)
		init(key, b)
		for i := range a {
			if a[i] != b[i] {
				return false
			}
			if float64(a[i]) < -bound || float64(a[i]) >= bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	// Different keys give different vectors (with overwhelming probability).
	a := make([]float32, 16)
	b := make([]float32, 16)
	init(1, a)
	init(2, b)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
	}
	if same {
		t.Fatal("keys 1 and 2 got identical init")
	}
}

func TestZeroInit(t *testing.T) {
	w := []float32{1, 2, 3}
	ZeroInit(9, w)
	for _, v := range w {
		if v != 0 {
			t.Fatalf("w = %v", w)
		}
	}
}

func TestCheckBuf(t *testing.T) {
	if err := CheckBuf([]uint64{1, 2}, make([]float32, 8), 4); err != nil {
		t.Fatal(err)
	}
	if err := CheckBuf([]uint64{1, 2}, make([]float32, 7), 4); !errors.Is(err, ErrDimension) {
		t.Fatalf("want ErrDimension, got %v", err)
	}
	if err := CheckBuf(nil, nil, 4); err != nil {
		t.Fatalf("empty buffers rejected: %v", err)
	}
}

func TestStatsMissRate(t *testing.T) {
	if got := (Stats{}).MissRate(); got != 0 {
		t.Fatalf("empty miss rate = %v", got)
	}
	if got := (Stats{Hits: 3, Misses: 1}).MissRate(); got != 0.25 {
		t.Fatalf("miss rate = %v", got)
	}
}
