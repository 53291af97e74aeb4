package cache

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"testing"

	"openembedding/internal/vec"
)

// refView is the reference model: a map of private row copies.
type refView map[uint64][]float32

// checkView compares v with the model on every key the model holds and on
// keys it does not.
func checkView(t *testing.T, step string, v *RowView, m refView, absent []uint64) {
	t.Helper()
	if v.Len() != len(m) {
		t.Fatalf("%s: Len = %d, model holds %d", step, v.Len(), len(m))
	}
	for k, want := range m {
		got := v.Lookup(k)
		if len(got) != len(want) {
			t.Fatalf("%s: key %d: row %v, want %v", step, k, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: key %d: row %v, want %v", step, k, got, want)
			}
		}
		if r, ok := v.Row(k); !ok || &v.At(r)[0] != &got[0] {
			t.Fatalf("%s: key %d: Row/At disagree with Lookup", step, k)
		}
	}
	for _, k := range absent {
		if _, held := m[k]; held {
			continue
		}
		if row := v.Lookup(k); row != nil {
			t.Fatalf("%s: absent key %d returned %v", step, k, row)
		}
		if _, ok := v.Row(k); ok {
			t.Fatalf("%s: absent key %d has a row number", step, k)
		}
	}
}

// TestRowViewMatchesReferenceMap checks the view against the map model:
// first the cases a random walk only reaches by luck, then random sequences
// of builds and rewrites.
func TestRowViewMatchesReferenceMap(t *testing.T) {
	t.Run("edges", rowViewEdges)
	t.Run("random", rowViewRandomWalk)
}

// walkKeys is the random walk's key space: small, so builds and rewrites
// overlap what is held, and made of the keys an index gets
// wrong first — 0 and ^0 (no key may double as the empty mark), a sequential
// run, a run a table length apart (equal in every low bit a mask would
// keep), and a run that shares one home slot in the 64-slot index a view of
// up to 32 rows gets, so probes walk and wrap.
func walkKeys() []uint64 {
	keys := []uint64{0, ^uint64(0)}
	for i := uint64(1); i <= 14; i++ {
		keys = append(keys, i, i*64, ^uint64(0)-i*128)
	}
	home := slotHash(7) >> (64 - 6)
	for k := uint64(1 << 32); len(keys) < 54; k++ {
		if slotHash(k)>>(64-6) == home {
			keys = append(keys, k)
		}
	}
	return keys
}

// rowViewRandomWalk drives build (Append) and rewrite (CloneRows + At) in
// random order, and after every step checks the new view AND the one it was
// derived from: a published view never changes.
func rowViewRandomWalk(t *testing.T) {
	const dim = 3
	space := walkKeys()
	keySpace := len(space)
	absent := append([]uint64{15, 63, 1 << 40, ^uint64(0) - 1}, space...)
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		empty := NewRowView(dim, 0)
		v, m := &empty, refView{}
		for step := 0; step < 60; step++ {
			prev, prevM := v, m
			var name string
			switch op := rng.Intn(2); op {
			case 0: // engine full rebuild: distinct keys appended in order
				name = "build"
				n := rng.Intn(keySpace)
				// The size hint is a hint: half the builds outgrow it, so
				// the index is rebuilt under rows already appended.
				b := NewRowView(dim, n>>uint(2*rng.Intn(2)))
				m = refView{}
				for _, i := range rng.Perm(keySpace)[:n] {
					row := []float32{rng.Float32(), rng.Float32(), rng.Float32()}
					if r := b.Append(space[i], row); int(r) != len(m) {
						t.Fatalf("seed %d: Append returned row %d, want %d", seed, r, len(m))
					}
					m[space[i]] = row
				}
				if 2*b.Len() > len(b.index) || len(b.index)&(len(b.index)-1) != 0 {
					t.Fatalf("seed %d: %d rows in an index of %d slots", seed, b.Len(), len(b.index))
				}
				v = &b
			case 1: // engine incremental rebuild: same index, fresh slab
				name = "rewrite"
				c := v.CloneRows()
				if len(c.index) > 0 && &c.index[0] != &v.index[0] {
					t.Fatalf("seed %d: CloneRows copied the index", seed)
				}
				m = maps.Clone(m)
				for k := range prevM {
					if rng.Intn(3) == 0 {
						row := []float32{rng.Float32(), rng.Float32(), rng.Float32()}
						r, _ := c.Row(k)
						copy(c.At(r), row)
						m[k] = row
					}
				}
				v = &c
			}
			checkView(t, name, v, m, absent)
			checkView(t, name+" (source view)", prev, prevM, absent)
		}
	}
}

func rowViewEdges(t *testing.T) {
	const dim = 2

	// A nil view reads as empty, and so does the zero view — whatever the
	// key hashes to — until something is appended to it.
	var nilV *RowView
	if nilV.Lookup(0) != nil || nilV.Len() != 0 {
		t.Fatal("nil view is not empty")
	}
	var zero RowView
	checkView(t, "zero view", &zero, refView{}, []uint64{0, 1, 1 << 63, ^uint64(0)})
	zero.dim = dim
	zero.Append(^uint64(0), []float32{4, 4})
	checkView(t, "zero view, appended to", &zero, refView{^uint64(0): {4, 4}}, []uint64{0, 1})

	// Sequential and table-length-strided runs large enough to grow the
	// index several times from a hint of nothing.
	for _, stride := range []uint64{1, 1 << 10, 1 << 50} {
		b, m := NewRowView(dim, 0), refView{}
		for i := uint64(0); i < 1500; i++ {
			row := []float32{float32(i), -float32(i)}
			b.Append(i*stride, row)
			m[i*stride] = row
		}
		checkView(t, "grown", &b, m, []uint64{1500 * stride, 3, ^uint64(0)})
	}
}

// TestAddIntoMatchesLoop holds the summation the gather path pools this
// package's rows with (vec.Add, which took over from AddInto) to the plain
// loop, bit for bit: dst += row, over every length 0-40, with a row that
// may be longer than dst. The rows are read back from a RowView as the
// serving tier reads them.
func TestAddIntoMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n <= 40; n++ {
		dst, src := make([]float32, n), make([]float32, n+n%3) // src may be longer
		for i := range dst {
			dst[i], src[i] = rng.Float32()-0.5, rng.Float32()-0.5
		}
		v := NewRowView(len(src), 1)
		src = v.At(v.Append(uint64(n), src))
		want := append([]float32(nil), dst...)
		for i := range want {
			want[i] += src[i]
		}
		vec.Add(dst, src)
		for i := range want {
			if math.Float32bits(dst[i]) != math.Float32bits(want[i]) {
				t.Fatalf("n=%d: element %d = %v, want %v", n, i, dst[i], want[i])
			}
		}
	}
}

// BenchmarkRowViewLookup is the probe alone, at the row counts one shard's
// snapshot (32 k) and a whole node's hot set (128 k) hold: random present
// keys — 64 k of them, more index lines than L2 keeps — and absent keys,
// which stop at the first empty slot.
func BenchmarkRowViewLookup(b *testing.B) {
	for _, n := range []int{32 << 10, 128 << 10} {
		v := NewRowView(16, n)
		row := make([]float32, 16)
		for k := 0; k < n; k++ {
			v.Append(uint64(k), row)
		}
		rng := rand.New(rand.NewSource(1))
		probes := make([]uint64, 1<<16)
		for _, c := range []struct {
			name string
			base uint64
		}{{"hit", 0}, {"miss", 1 << 40}} {
			for i := range probes {
				probes[i] = c.base + uint64(rng.Intn(n))
			}
			b.Run(fmt.Sprintf("%s/%dk", c.name, n>>10), func(b *testing.B) {
				b.ReportAllocs()
				b.ResetTimer()
				found := 0
				for i := 0; i < b.N; i++ {
					if _, ok := v.Row(probes[i&(len(probes)-1)]); ok {
						found++
					}
				}
				if c.base == 0 != (found == b.N) {
					b.Fatalf("%d of %d probes found a row", found, b.N)
				}
			})
		}
	}
}
