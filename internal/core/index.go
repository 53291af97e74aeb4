package core

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// This file is the shard's DRAM index (DESIGN.md §23): the paper's tagged
// pointer per key, as two forms of entry. A key whose entry is not cached is
// one slot of an open-addressed table — key, PMem slot and persisted data
// version, no pointer — and costs no heap object at all. A cached key's slot
// names a hot *entry (entry.go) instead; hot entries exist only while their
// key is cached, and come from the shard's free list.

// islot is one slot of the index. word is the tagged word: zero for an
// empty slot, else tagUsed, plus tagHot when the entry is in DRAM. The high
// 32 bits are the PMem slot of a cold entry, or the hot entry's number in
// the shard's hotSet. ver is a cold entry's persisted data version (a cold
// entry is clean, so it is its data version too); meaningless while hot.
type islot struct {
	key  uint64
	ver  int64
	word uint64
}

const (
	tagHot  = 1 // the lowest bit: the entry is in DRAM
	tagUsed = 2 // the slot holds a key
)

func coldWord(slot uint32) uint64 { return uint64(slot)<<32 | tagUsed }

func hotWord(n uint32) uint64 { return uint64(n)<<32 | tagUsed | tagHot }

// wordRef is the PMem slot (cold) or hot entry number (hot) of a word.
func wordRef(w uint64) uint32 { return uint32(w >> 32) }

// table is an open-addressed, linear-probe table of islots with backward-
// shift deletion, so it never holds a tombstone. Its length is not a power
// of two: a key's home slot is the high word of hash×len. It grows by half
// when an insert would take it past 4/5 full, so it is never less than 8/15
// full either (once past its first size) and a key costs at most 45 bytes of
// table. The slots hold no pointer, so the collector never scans them.
//
// Inserts, deletes and growth run under the shard's exclusive lock. Under the
// shared lock only one slot field changes — a word, when a push promotes a
// cold entry inline — so words are read and written atomically wherever the
// shared lock is all that orders them.
type table struct {
	slots []islot
	n     int // keys held
}

// tableMinSlots is the first table's length.
const tableMinSlots = 16

// indexHash is multiplicative hashing by a constant other than the shard
// multiplier (shardIndex) and the serve view's (cache.RowView), whose high
// bits pick the home slot.
func indexHash(k uint64) uint64 { return k * 0xbf58476d1ce4e5b9 }

// home is k's home slot in a table of n slots.
func home(k uint64, n int) int {
	hi, _ := bits.Mul64(indexHash(k), uint64(n))
	return int(hi)
}

// find returns k's position and word, or, when k is absent, the empty slot
// an insert of k would take and a zero word. The position stays valid while
// the shard lock is held in any mode: only the exclusive holder moves slots.
//
// oevet:hotpath
func (t *table) find(k uint64) (int, uint64) {
	// The loop condition is the bounds check, and what makes the empty
	// table (home 0 of 0 slots) a miss.
	sl := t.slots
	for i := uint(home(k, len(sl))); i < uint(len(sl)); {
		s := &sl[i]
		if w := atomic.LoadUint64(&s.word); w == 0 || s.key == k {
			return int(i), w
		}
		if i++; i == uint(len(sl)) {
			i = 0
		}
	}
	return 0, 0
}

// word loads the word at pos atomically.
func (t *table) word(pos int) uint64 { return atomic.LoadUint64(&t.slots[pos].word) }

// insert adds absent key k at pos, the position find returned for it, and
// returns where k now is. Exclusive lock.
func (t *table) insert(pos int, k uint64, ver int64, w uint64) int {
	if 5*(t.n+1) > 4*len(t.slots) {
		t.grow(t.n + 1)
		pos, _ = t.find(k)
	}
	t.slots[pos] = islot{key: k, ver: ver, word: w}
	t.n++
	return pos
}

// grow rehashes into the smallest table of the growth sequence that holds n
// keys at most 4/5 full.
func (t *table) grow(n int) {
	size := max(len(t.slots), tableMinSlots)
	for 5*n > 4*size {
		size += size / 2
	}
	old := t.slots
	t.slots = make([]islot, size) //oevet:alloc-ok the table grows with the keys it holds, by half at a time: only first touches, adopts and recovery insert
	for _, s := range old {
		if s.word != 0 {
			pos, _ := t.find(s.key)
			t.slots[pos] = s
		}
	}
}

// reserve sizes an empty table for n keys, as n inserts would have.
func (t *table) reserve(n int) {
	if n > 0 && 5*n > 4*len(t.slots) {
		t.grow(n)
	}
}

// remove deletes the key at pos by shifting the rest of its probe run back
// (Knuth's Algorithm R): each later slot whose home does not lie cyclically
// in (hole, slot] moves into the hole. Exclusive lock.
func (t *table) remove(pos int) {
	sl := t.slots
	i := pos
	for j := pos; ; {
		if j++; j == len(sl) {
			j = 0
		}
		if sl[j].word == 0 {
			break
		}
		h := home(sl[j].key, len(sl))
		if i <= j {
			if i < h && h <= j {
				continue
			}
		} else if i < h || h <= j {
			continue
		}
		sl[i] = sl[j]
		i = j
	}
	sl[i] = islot{}
	t.n--
}

// keys appends every key held to dst, in table order.
func (t *table) keys(dst []uint64) []uint64 {
	for i := range t.slots {
		if t.slots[i].word != 0 {
			dst = append(dst, t.slots[i].key)
		}
	}
	return dst
}

// hotSet is a shard's hot entries, made hotChunk at a time: an entry's
// number names its chunk and its place in it, so a slot's tag can name the
// entry without a pointer, and the entries cost no heap object and no
// directory slot each. free holds the made entries no key uses. Both only
// grow, to the most entries the shard has had cached at once. The
// exclusive shard lock guards the set; push, which promotes under the
// shared lock, takes mu as well. chunks is swapped whole when a chunk is
// added, so readers under the shared lock load it atomically, and a new
// entry is made before any word names it.
type hotSet struct {
	mu     sync.Mutex
	chunks atomic.Pointer[[]*[hotChunk]entry]
	n      int // entries made
	free   []*entry
}

// hotChunk is how many hot entries are made at once.
const hotChunk = 64

// at returns the hot entry a hot word names.
//
// oevet:hotpath
func (h *hotSet) at(w uint64) *entry {
	n := wordRef(w)
	return &(*h.chunks.Load())[n/hotChunk][n%hotChunk]
}

// take returns a free hot entry, reset and live, for key k. Caller holds the
// shard's exclusive lock, or its shared lock and mu.
func (h *hotSet) take(k uint64, sid int) *entry {
	var ent *entry
	if n := len(h.free); n > 0 {
		ent = h.free[n-1]
		h.free[n-1] = nil
		h.free = h.free[:n-1]
	} else {
		var chunks []*[hotChunk]entry
		if p := h.chunks.Load(); p != nil {
			chunks = *p
		}
		if h.n == len(chunks)*hotChunk {
			grown := append(chunks[:len(chunks):len(chunks)], new([hotChunk]entry)) //oevet:alloc-ok a chunk of entries, until the shard has had its most cached at once; the free list supplies every later promotion
			h.chunks.Store(&grown)
			chunks = grown
		}
		ent = &chunks[h.n/hotChunk][h.n%hotChunk]
		ent.num, ent.sid = uint32(h.n), int32(sid)
		ent.node.Value = ent
		h.n++
	}
	ent.key, ent.live = k, true
	return ent
}

// release returns a hot entry no slot names any more, and no list holds, to
// the free list. Its fields are cleared — all but num and sid, which the
// checkpoint finalizer reads without the shard lock — so a stale reference
// (an access record, a side-queue or flush-list element) finds it not live,
// not in DRAM and owing no checkpoint. Caller holds the shard's exclusive lock, or its shared lock
// and mu.
func (h *hotSet) release(ent *entry) {
	ent.key, ent.version, ent.dataVersion, ent.buf = 0, 0, 0, nil
	ent.slot, ent.persistedVersion = 0, 0
	ent.dirty, ent.ckptPending, ent.wbPending, ent.live = false, false, false, false
	ent.snapEpoch, ent.snapRow = 0, 0
	h.free = append(h.free, ent) //oevet:alloc-ok the free list keeps its capacity: it never holds more entries than dir
}

// hotLocked makes the cold entry at pos hot and returns it, with the slot's
// PMem slot and version and no row yet: the caller gives it one (a staged
// row, a promotion read or a fresh row) or folds it back. Exclusive lock.
func (s *shard) hotLocked(pos int) *entry {
	sl := &s.index.slots[pos]
	ent := s.hot.take(sl.key, s.id)
	ent.slot, ent.persistedVersion, ent.dataVersion = wordRef(sl.word), sl.ver, sl.ver
	sl.word = hotWord(ent.num)
	return ent
}

// promoteShared is push's inline promotion of the cold entry at pos, whose
// word w the caller loaded: under the shared lock and the key's stripe,
// which is what serializes it against every other reader of this slot's
// word (pushes and serve fallbacks of the same key take the stripe too).
// The word is stored only once the entry holds its row, so a reader that
// loads it finds a complete hot entry. A failed read leaves the slot cold.
func (s *shard) promoteShared(pos int, w uint64) (*entry, error) {
	sl := &s.index.slots[pos]
	s.hot.mu.Lock()
	ent := s.hot.take(sl.key, s.id)
	s.hot.mu.Unlock()
	ent.slot, ent.persistedVersion, ent.dataVersion = wordRef(w), sl.ver, sl.ver
	if err := s.readPromote(ent); err != nil {
		s.hot.mu.Lock()
		s.hot.release(ent)
		s.hot.mu.Unlock()
		return nil, err
	}
	atomic.StoreUint64(&sl.word, hotWord(ent.num))
	return ent, nil
}

// foldLocked turns a hot entry that has left DRAM, with no write-back
// pending, back into its cold slot, and frees it. Its record is current: a
// clean entry's data version is its persisted version. Exclusive lock.
func (s *shard) foldLocked(ent *entry) {
	pos, _ := s.index.find(ent.key)
	sl := &s.index.slots[pos]
	sl.ver, sl.word = ent.persistedVersion, coldWord(ent.slot)
	s.hot.release(ent)
}
