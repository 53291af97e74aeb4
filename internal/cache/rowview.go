package cache

// RowView is a key→row table: the one format in which the serving tier
// holds copies of embedding rows (DESIGN.md §14). A view is built — Append,
// or CloneRows + At — and then published (by value inside a larger
// snapshot), and it is never written while it is published or a reader
// still holds it, so any number of readers probe it without a lock and a
// row read from it is the complete row its publisher copied, as old as
// that publish. Its index and key list never change at all. A publisher
// that has withdrawn a view and knows no reader holds it (core's shard
// snapshots count their readers) may rewrite rows through At or CopyRows
// and publish it again; one that cannot know builds a new view instead.
//
// The index format is private to this file: readers see Row, At and Lookup
// only, so changing the probe or the slab layout is a change to one type.
// A nil *RowView and the zero RowView read as empty.
type RowView struct {
	// index is an open-addressed, linear-probe table: a power of two of
	// slots, at most half taken, so a probe ends in the cache line (four
	// slots) of its home slot, slotHash(k) >> shift, nearly always. A slot
	// with row < 0 is empty, so every uint64 is a legal key.
	index []slot
	shift uint8     // 64 - log2(len(index))
	keys  []uint64  // key of each row
	rows  []float32 // dim floats per row, in row order
	dim   int
}

type slot struct {
	key uint64
	row int32
}

// slotHash is multiplicative hashing by a constant other than the engine's
// shard multiplier (core.shardIndex), taken from the top bits: the keys of
// one shard share the top bits of that product, not of this one.
func slotHash(k uint64) uint64 { return k * 0xff51afd7ed558ccd }

// NewRowView returns an empty view of dim-wide rows with room for n.
func NewRowView(dim, n int) RowView {
	v := RowView{
		keys: make([]uint64, 0, n),
		rows: make([]float32, 0, n*dim),
		dim:  dim,
	}
	v.reindex(n)
	return v
}

// reindex rebuilds the index with room for n rows at load ≤ 0.5.
func (v *RowView) reindex(n int) {
	bits := uint8(2)
	for 1<<bits < 2*n {
		bits++
	}
	v.index, v.shift = make([]slot, 1<<bits), 64-bits
	for i := range v.index {
		v.index[i].row = -1
	}
	for r, k := range v.keys {
		v.insert(k, int32(r))
	}
}

// insert claims the first empty slot at or after k's home for row r.
func (v *RowView) insert(k uint64, r int32) {
	mask := uint64(len(v.index) - 1)
	i := slotHash(k) >> v.shift
	for v.index[i].row >= 0 {
		i = (i + 1) & mask
	}
	v.index[i] = slot{key: k, row: r}
}

// Append copies row (dim floats) in as the row of k and returns its row
// number. For builders only: the view is not yet published and k is not yet
// in it.
func (v *RowView) Append(k uint64, row []float32) int32 {
	r := int32(len(v.keys))
	if 2*(len(v.keys)+1) > len(v.index) {
		v.reindex(2 * (len(v.keys) + 1))
	}
	v.insert(k, r)
	v.keys = append(v.keys, k)
	v.rows = append(v.rows, row...)
	return r
}

// CloneRows returns an unpublished view over the same keys in the same row
// order — index and key list shared, both immutable — with a private copy
// of the rows, for a builder that rewrites some of them through At before
// publishing. It costs the whole slab, whatever the builder then rewrites.
func (v *RowView) CloneRows() RowView {
	next := *v
	next.rows = make([]float32, len(v.rows))
	copy(next.rows, v.rows)
	return next
}

// CopyRows overwrites v's rows with src's. The two views must be over the
// same keys in the same row order — a CloneRows of one another — so that v,
// withdrawn and held by no reader, becomes what CloneRows of src would
// return, with no allocation. It costs the whole slab, like CloneRows.
func (v *RowView) CopyRows(src *RowView) {
	copy(v.rows, src.rows)
}

// Row returns the row number of k.
//
// oevet:hotpath
func (v *RowView) Row(k uint64) (int32, bool) {
	// The loop condition is the bounds check, and what makes the zero view
	// (no index, shift 0) a miss.
	t := v.index
	for i := slotHash(k) >> (v.shift & 63); i < uint64(len(t)); i = (i + 1) & uint64(len(t)-1) {
		if s := t[i]; s.row < 0 {
			break
		} else if s.key == k {
			return s.row, true
		}
	}
	return -1, false
}

// At returns row r: shared, and read-only while the view is published or
// held by a reader.
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

// AddInto adds src into dst, dst[i] += src[i]: the one summation kernel of
// the gather path (server-side pooling and the client's share combine).
// Each element takes exactly one addition, so the unroll changes no result
// bit; BenchmarkAddInto puts it at 1.7x on a 3 328-row share and even on
// one row, and a body this size is compiled once, out of line, not at a
// different address mod 64 in every caller.
// len(src) >= len(dst); reslicing hoists the bounds checks.
//
// oevet:hotpath
func AddInto(dst, src []float32) {
	src = src[:len(dst)]
	for len(dst) >= 8 {
		d, s := dst[:8], src[:8]
		d[0] += s[0]
		d[1] += s[1]
		d[2] += s[2]
		d[3] += s[3]
		d[4] += s[4]
		d[5] += s[5]
		d[6] += s[6]
		d[7] += s[7]
		dst, src = dst[8:], src[8:]
	}
	for i := range dst {
		dst[i] += src[i]
	}
}
