package cache

import (
	"math/rand"
	"testing"
)

// refView is the reference model: the map of private row copies that the
// replica overlay and the stale tier each used to be.
type refView map[uint64][]float32

// merge is Merge on the model: last occurrence wins, a key that would add
// a row beyond limit is dropped, a replacement never is.
func (m refView) merge(keys []uint64, rows []float32, dim, limit int) refView {
	next := make(refView, len(m)+len(keys))
	for k, row := range m {
		next[k] = row
	}
	for i, k := range keys {
		if _, ok := next[k]; ok || limit <= 0 || len(next) < limit {
			next[k] = append([]float32(nil), rows[i*dim:(i+1)*dim]...)
		}
	}
	return next
}

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
// of the three publishers' operations.
func TestRowViewMatchesReferenceMap(t *testing.T) {
	t.Run("edges", rowViewEdges)
	t.Run("random", rowViewRandomWalk)
}

// rowViewRandomWalk drives build (Append), rewrite (CloneRows + At), merge
// and bounded republish (Merge) in random order, and after every step
// checks the new view AND the one it was derived from: a published view
// never changes.
func rowViewRandomWalk(t *testing.T) {
	const dim, keySpace = 3, 48
	absent := []uint64{0, 1, keySpace, keySpace + 7, 1 << 40, ^uint64(0)}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Keys come from a small space that includes 0, so merges overlap
		// what is held and repeat keys inside one call.
		batch := func(n int) ([]uint64, []float32) {
			keys := make([]uint64, n)
			rows := make([]float32, n*dim)
			for i := range keys {
				keys[i] = uint64(rng.Intn(keySpace))
			}
			for i := range rows {
				rows[i] = rng.Float32()
			}
			return keys, rows
		}
		empty := NewRowView(dim, 0)
		v, m := &empty, refView{}
		for step := 0; step < 60; step++ {
			prev, prevM := v, m
			var name string
			switch op := rng.Intn(4); op {
			case 0: // engine full rebuild: distinct keys appended in order
				name = "build"
				n := rng.Intn(keySpace)
				b := NewRowView(dim, n)
				m = refView{}
				for _, k := range rng.Perm(keySpace)[:n] {
					row := []float32{rng.Float32(), rng.Float32(), rng.Float32()}
					if r := b.Append(uint64(k), row); int(r) != len(m) {
						t.Fatalf("seed %d: Append returned row %d, want %d", seed, r, len(m))
					}
					m[uint64(k)] = row
				}
				v = &b
			case 1: // engine incremental rebuild: same index, fresh slab
				name = "rewrite"
				c := v.CloneRows()
				m = m.merge(nil, nil, dim, 0)
				for k := range prevM {
					if rng.Intn(3) == 0 {
						row := []float32{rng.Float32(), rng.Float32(), rng.Float32()}
						r, _ := c.Row(k)
						copy(c.At(r), row)
						m[k] = row
					}
				}
				v = &c
			case 2: // replica overlay: unbounded copy-on-write merge
				name = "merge"
				keys, rows := batch(rng.Intn(12))
				next, err := v.Merge(keys, rows, 0)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				v, m = next, m.merge(keys, rows, dim, 0)
			case 3: // stale tier: one bounded pass replaces everything
				name = "republish"
				keys, rows := batch(rng.Intn(24))
				limit := 1 + rng.Intn(8)
				next, err := empty.Merge(keys, rows, limit)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				v, m = next, refView{}.merge(keys, rows, dim, limit)
				if v.Len() > limit {
					t.Fatalf("seed %d: %d rows published past limit %d", seed, v.Len(), limit)
				}
			}
			checkView(t, name, v, m, absent)
			checkView(t, name+" (source view)", prev, prevM, absent)
		}
	}
}

func rowViewEdges(t *testing.T) {
	const dim = 2
	empty := NewRowView(dim, 0)

	// Merge onto empty, key 0, and a key repeated in one merge: last wins.
	v, err := empty.Merge([]uint64{0, 5, 0}, []float32{1, 1, 2, 2, 3, 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkView(t, "merge onto empty", v, refView{0: {3, 3}, 5: {2, 2}}, []uint64{1})
	if empty.Len() != 0 {
		t.Fatal("merge wrote into its source view")
	}

	// Merge copies: the caller's buffer stays the caller's.
	buf := []float32{7, 7}
	v2, err := v.Merge([]uint64{9}, buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf[0] = 99
	checkView(t, "merge copies", v2, refView{0: {3, 3}, 5: {2, 2}, 9: {7, 7}}, nil)

	// A float count that does not match the key count is still an error.
	if _, err := v.Merge([]uint64{1, 2}, []float32{1, 2, 3}, 0); err == nil {
		t.Fatal("3 floats for 2 keys of dim 2 accepted")
	}

	// The limit drops keys that would add a row, never a replacement.
	v3, err := v.Merge([]uint64{8, 5, 9}, []float32{8, 8, 6, 6, 9, 9}, 3)
	if err != nil {
		t.Fatal(err)
	}
	checkView(t, "limit", v3, refView{0: {3, 3}, 5: {6, 6}, 8: {8, 8}}, []uint64{9})

	// A nil view reads as empty.
	var nilV *RowView
	if nilV.Lookup(0) != nil || nilV.Len() != 0 {
		t.Fatal("nil view is not empty")
	}
}
