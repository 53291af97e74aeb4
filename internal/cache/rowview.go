package cache

import "fmt"

// RowView is an immutable key→row table: the one format in which the
// serving tier holds copies of embedding rows (DESIGN.md §14). A view is
// built once — Append, CloneRows + At, or Merge — and never written after
// it is published (by value inside a larger snapshot, or behind an atomic
// pointer), so any number of readers probe it without a lock and a row read
// from it is the complete row its publisher copied, as old as that publish.
//
// The index format is private to this file: readers see Row, At and Lookup
// only, so changing the probe or the slab layout is a change to one type.
// A nil *RowView reads as empty.
type RowView struct {
	index map[uint64]int32 // key → row number
	keys  []uint64         // key of each row
	rows  []float32        // dim floats per row, in row order
	dim   int
}

// NewRowView returns an empty view of dim-wide rows with room for n.
func NewRowView(dim, n int) RowView {
	return RowView{
		index: make(map[uint64]int32, n),
		keys:  make([]uint64, 0, n),
		rows:  make([]float32, 0, n*dim),
		dim:   dim,
	}
}

// Append copies row (dim floats) in as the row of k and returns its row
// number. For builders only: the view is not yet published and k is not yet
// in it.
func (v *RowView) Append(k uint64, row []float32) int32 {
	r := int32(len(v.keys))
	v.index[k] = r
	v.keys = append(v.keys, k)
	v.rows = append(v.rows, row...)
	return r
}

// CloneRows returns an unpublished view over the same keys in the same row
// order — index and key list shared, both immutable — with a private copy
// of the rows, for a builder that rewrites some of them through At before
// publishing.
func (v *RowView) CloneRows() RowView {
	next := *v
	next.rows = make([]float32, len(v.rows))
	copy(next.rows, v.rows)
	return next
}

// Merge returns a new view holding v's rows plus row i of rows (row-major,
// len(keys)*dim floats) as the row of keys[i]; v itself is unchanged. A key
// already present — in v, or earlier in keys — has its row replaced, so the
// last occurrence wins. With limit > 0 the result holds at most limit rows:
// keys that would add a row beyond it are dropped, replacements never are.
func (v *RowView) Merge(keys []uint64, rows []float32, limit int) (*RowView, error) {
	dim := v.dim
	if len(rows) != len(keys)*dim {
		return nil, fmt.Errorf("cache: %d row floats for %d keys (dim %d)", len(rows), len(keys), dim)
	}
	next := NewRowView(dim, len(v.keys)+len(keys))
	for r, k := range v.keys {
		next.Append(k, v.At(int32(r)))
	}
	for i, k := range keys {
		row := rows[i*dim : (i+1)*dim]
		if r, ok := next.Row(k); ok {
			copy(next.At(r), row)
		} else if limit <= 0 || len(next.keys) < limit {
			next.Append(k, row)
		}
	}
	return &next, nil
}

// Row returns the row number of k.
//
// oevet:hotpath
func (v *RowView) Row(k uint64) (int32, bool) {
	r, ok := v.index[k]
	return r, ok
}

// At returns row r: shared, read-only once the view is published.
//
// oevet:hotpath
func (v *RowView) At(r int32) []float32 {
	return v.rows[int(r)*v.dim : (int(r)+1)*v.dim]
}

// Lookup returns the row of k (shared, read-only), or nil when the view
// does not hold k.
//
// oevet:hotpath
func (v *RowView) Lookup(k uint64) []float32 {
	if v == nil {
		return nil
	}
	if r, ok := v.Row(k); ok {
		return v.At(r)
	}
	return nil
}

// Len returns the number of rows held.
func (v *RowView) Len() int {
	if v == nil {
		return 0
	}
	return len(v.keys)
}
