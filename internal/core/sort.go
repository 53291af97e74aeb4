package core

import (
	"math/bits"
	"slices"
)

// posLess orders batch positions by (key, position): runs of one key are
// contiguous after sorting, and duplicates of a key stay in batch order,
// which keeps non-commutative float updates (push) deterministic.
func posLess(keys []uint64, a, b int32) bool {
	ka, kb := keys[a], keys[b]
	return ka < kb || (ka == kb && a < b)
}

// radixBits is the digit width of the radix passes: 256 buckets, and at
// most four passes over a 32-bit key.
const radixBits = 8

// radixKeysPerPass is how many keys each radix pass needs before the radix
// beats slices.Sort of the packed words: a pass costs a 256-bucket prefix
// sum whatever the sublist's length, so at the ~8 keys a shard gets of the
// 8-shard engine rungs' 64-key batches the radix is ten times slower. The
// two sorts are even near 96 keys of 16 bits (two passes) and near 192 of
// 18 bits (three); DESIGN.md §12 has the measurements.
const radixKeysPerPass = 64

// sortPosByKey sorts pos by posLess in place without steady-state
// allocation — the hot path cannot afford slices.SortFunc's comparator
// closure. pos must arrive in ascending order, as partition builds every
// shard's sublist (a -tags oedebug build checks it). When every key fits in
// 32 bits (embedding IDs in practice), each (key, position) pair packs into
// one uint64, key above position, and a stable LSD radix sort on the key
// bits alone groups the runs: stability keeps each run's positions in the
// ascending order they arrived in, which is exactly posLess's order. A sublist too short to pay for the radix
// passes (radixKeysPerPass) sorts the packed words with slices.Sort, to the
// same order. A wide key falls back to the indirect sort. buf is the
// packing scratch, returned (possibly grown to twice len(pos): the radix
// passes ping-pong between its halves) for the caller's scratch.
func sortPosByKey(pos []int32, keys []uint64, buf []uint64) []uint64 {
	checkAscending(pos)
	n := len(pos)
	if cap(buf) < 2*n {
		buf = make([]uint64, 2*n) //oevet:alloc-ok grow-once scratch: the buffer returns to the pooled scratch and steady state never regrows
	}
	packed := buf[:n]
	// Pack optimistically, accumulating the key OR; a wide key voids the
	// packed buffer (pos itself is untouched so far) and falls back.
	var mk uint64
	for i, p := range pos {
		k := keys[p]
		mk |= k
		packed[i] = k<<32 | uint64(uint32(p))
	}
	if mk>>32 != 0 {
		sortPosIndirect(pos, keys)
		return buf
	}
	if passes := (bits.Len64(mk) + radixBits - 1) / radixBits; n < passes*radixKeysPerPass {
		slices.Sort(packed)
	} else {
		packed = radixSortKeys(packed, buf[n:2*n], passes)
	}
	for i, v := range packed {
		pos[i] = int32(uint32(v))
	}
	return buf
}

// radixSortKeys sorts the packed words of a by their upper 32 bits (the
// key, of which only the low passes*radixBits can be set), stably, using
// tmp (len(tmp) == len(a)) as the other half of each pass, and returns
// whichever of the two holds the result. One read counts every digit; a
// digit every key shares is skipped.
func radixSortKeys(a, tmp []uint64, passes int) []uint64 {
	var counts [32 / radixBits][1 << radixBits]int32
	for _, v := range a {
		k := uint32(v >> 32)
		for p := 0; p < passes; p++ {
			counts[p][uint8(k>>(p*radixBits))]++
		}
	}
	src, dst := a, tmp
	for p := 0; p < passes; p++ {
		c := &counts[p]
		shift := 32 + p*radixBits
		if int(c[uint8(src[0]>>shift)]) == len(src) {
			continue
		}
		var sum int32
		for d, cnt := range c {
			c[d] = sum
			sum += cnt
		}
		for _, v := range src {
			d := uint8(v >> shift)
			dst[c[d]] = v
			c[d]++
		}
		src, dst = dst, src
	}
	return src
}

// sortPosIndirect is the wide-key fallback: quicksort with a median-of-three
// pivot, recursing only into the smaller partition (depth stays O(log n)),
// over insertion sort for short sublists (a batch sliced across 8 shards
// leaves ~8 positions per shard).
func sortPosIndirect(pos []int32, keys []uint64) {
	for len(pos) > 12 {
		m, hi := len(pos)/2, len(pos)-1
		if posLess(keys, pos[m], pos[0]) {
			pos[0], pos[m] = pos[m], pos[0]
		}
		if posLess(keys, pos[hi], pos[0]) {
			pos[0], pos[hi] = pos[hi], pos[0]
		}
		if posLess(keys, pos[hi], pos[m]) {
			pos[m], pos[hi] = pos[hi], pos[m]
		}
		pivot := pos[m]
		i, j := 0, hi
		for i <= j {
			for posLess(keys, pos[i], pivot) {
				i++
			}
			for posLess(keys, pivot, pos[j]) {
				j--
			}
			if i <= j {
				pos[i], pos[j] = pos[j], pos[i]
				i++
				j--
			}
		}
		if j < len(pos)-i {
			sortPosIndirect(pos[:j+1], keys)
			pos = pos[i:]
		} else {
			sortPosIndirect(pos[i:], keys)
			pos = pos[:j+1]
		}
	}
	for i := 1; i < len(pos); i++ {
		for j := i; j > 0 && posLess(keys, pos[j], pos[j-1]); j-- {
			pos[j], pos[j-1] = pos[j-1], pos[j]
		}
	}
}
