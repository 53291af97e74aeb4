package cluster

import (
	"fmt"
	"sort"

	"openembedding/internal/rpc"
)

// This file is the placement half of the elasticity protocol (DESIGN.md
// §15): a consistent-hash ring with virtual nodes. Every node owns
// ringVnodes points on a 64-bit ring; a key lives at rpc.KeyHash(key) —
// the wire protocol owns the hash, because the nodes' migration hooks
// select keys by it — and is owned by the node of the first point
// clockwise from it. Adding a node to an N-node ring therefore moves only
// the arcs its new points carve out — ~1/(N+1) of the key space — instead
// of reshuffling nearly everything the way a modulo placement would.
//
// Positions are deterministic and seed-free: point v of node id sits at
// KeyHash(KeyHash(id) ^ v*golden). Two rings built from the same id list
// are identical, on any machine, which is what lets a restarted
// coordinator recompute the exact move plan of an interrupted migration.

// ringVnodes is the number of virtual nodes (ring points) per node. 64
// points keep the per-node load spread within a few percent of fair while
// keeping move plans small (a join touches at most 64 arcs).
const ringVnodes = 64

// vnodePos returns the ring position of virtual node v of the node with
// the given stable id.
func vnodePos(id uint64, v int) uint64 {
	return rpc.KeyHash(rpc.KeyHash(id) ^ uint64(v)*0x9e3779b97f4a7c15)
}

// ringPoint is one virtual node: a position and the index of the owning
// node in the client's node table.
type ringPoint struct {
	pos  uint64
	node int32
}

// Ring is an immutable placement: node ids (index-aligned with the
// client's connection table) and their sorted virtual-node points,
// stamped with an ownership epoch. Membership changes build a new Ring;
// they never mutate one in place.
type Ring struct {
	ids    []uint64
	points []ringPoint
	epoch  int64
}

// NewRing builds the ring for the given stable node ids at ownership
// epoch 0. The id list order defines the node indexing.
func NewRing(ids []uint64) *Ring {
	r := &Ring{ids: append([]uint64(nil), ids...)}
	r.points = make([]ringPoint, 0, len(ids)*ringVnodes)
	for n, id := range ids {
		for v := 0; v < ringVnodes; v++ {
			r.points = append(r.points, ringPoint{pos: vnodePos(id, v), node: int32(n)})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.pos != b.pos {
			return a.pos < b.pos
		}
		return a.node < b.node // deterministic on (astronomically unlikely) ties
	})
	return r
}

// withEpoch returns the same ring stamped with a new ownership epoch.
func (r *Ring) withEpoch(epoch int64) *Ring {
	nr := *r
	nr.epoch = epoch
	return &nr
}

// Epoch returns the ownership epoch this ring was installed at.
func (r *Ring) Epoch() int64 { return r.epoch }

// Nodes returns the node count.
func (r *Ring) Nodes() int { return len(r.ids) }

// IDs returns a copy of the stable node ids, index-aligned with the
// client's node table.
func (r *Ring) IDs() []uint64 { return append([]uint64(nil), r.ids...) }

// succ returns the index into points of the first point at or clockwise
// after position h (wrapping past the top of the ring).
func (r *Ring) succ(h uint64) int {
	//oevet:alloc-ok sort.Search does not keep its predicate: the closure stays on the stack (TestClusterPullBagsAllocs)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].pos >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// Owner returns the node index owning key: on a one-node ring that is node
// 0 wherever the key hashes to.
func (r *Ring) Owner(key uint64) int {
	if len(r.ids) == 1 {
		return 0
	}
	return int(r.points[r.succ(rpc.KeyHash(key))].node)
}

// arcIntervals converts the half-open ring arc (pred, p] into closed,
// non-wrapping intervals. pred == p (a full-circle arc) cannot arise from
// distinct ring points and is rejected by the callers.
func arcIntervals(pred, p uint64) []rpc.HashInterval {
	if pred < p {
		return []rpc.HashInterval{{Lo: pred + 1, Hi: p}}
	}
	// The arc crosses the top of the ring.
	ivs := []rpc.HashInterval{{Lo: 0, Hi: p}}
	if pred < ^uint64(0) {
		ivs = append(ivs, rpc.HashInterval{Lo: pred + 1, Hi: ^uint64(0)})
	}
	return ivs
}

// move is one leg of a migration plan: the hash intervals whose keys move
// from node src to node dst. Indexes refer to the node table in effect
// during the copy — the pre-flip table — except that a join's destination
// is len(oldTable), the joining node the coordinator dials separately.
type move struct {
	src int
	dst int
	ivs []rpc.HashInterval
}

// joinPlan computes the moves for growing ring r by one node with the
// given stable id: for every point the new node adds, the arc between its
// predecessor (in the grown ring) and the point itself moves from the arc's
// old owner to the new node. The new node has index len(r.ids) in the
// returned ring. Moves are merged per source and ordered by source index,
// so a replayed plan issues identical RPCs in identical order.
func (r *Ring) joinPlan(id uint64) (*Ring, []move) {
	for _, old := range r.ids {
		if old == id {
			panic(fmt.Sprintf("cluster: joinPlan: duplicate node id %d", id))
		}
	}
	nr := NewRing(append(r.IDs(), id))
	newNode := len(r.ids)
	bySrc := make(map[int][]rpc.HashInterval)
	for i, pt := range nr.points {
		if int(pt.node) != newNode {
			continue
		}
		prev := i - 1
		if prev < 0 {
			prev = len(nr.points) - 1
		}
		pred := nr.points[prev]
		if pred.pos == pt.pos {
			continue // zero-length arc (tied points); nothing moves
		}
		// The old owner of every position in (pred, pt] is the successor
		// of pt in the old ring: no old point lies strictly inside the arc
		// (it would be the predecessor), so the whole arc has one source —
		// even when pred is another of the new node's points.
		src := int(r.points[r.succ(pt.pos)].node)
		bySrc[src] = append(bySrc[src], arcIntervals(pred.pos, pt.pos)...)
	}
	var moves []move
	for src := 0; src < len(r.ids); src++ {
		if ivs := bySrc[src]; len(ivs) > 0 {
			moves = append(moves, move{src: src, dst: newNode, ivs: ivs})
		}
	}
	return nr, moves
}

// leavePlan computes the moves for shrinking ring r by the node at index
// leaving: every arc the leaving node owned moves to the arc's new owner
// in the shrunk ring. The returned ring keeps the remaining nodes in
// their original relative order; newIndex maps old node indexes to new
// ones (the leaving node maps to -1). Move sources are all the leaving
// node; moves are merged per destination and ordered by the destination's
// OLD index, deterministically.
func (r *Ring) leavePlan(leaving int) (*Ring, []move, []int) {
	if leaving < 0 || leaving >= len(r.ids) {
		panic(fmt.Sprintf("cluster: leavePlan: bad node index %d", leaving))
	}
	rest := make([]uint64, 0, len(r.ids)-1)
	newIndex := make([]int, len(r.ids))
	for n, id := range r.ids {
		if n == leaving {
			newIndex[n] = -1
			continue
		}
		newIndex[n] = len(rest)
		rest = append(rest, id)
	}
	nr := NewRing(rest)
	byDst := make(map[int][]rpc.HashInterval) // keyed by OLD node index of the target
	for i, pt := range r.points {
		if int(pt.node) != leaving {
			continue
		}
		prev := i - 1
		if prev < 0 {
			prev = len(r.points) - 1
		}
		pred := r.points[prev]
		if pred.pos == pt.pos {
			continue
		}
		// New owner: the successor of pt among the remaining nodes' points.
		dstNew := int(nr.points[nr.succ(pt.pos)].node)
		dstOld := -1
		for n, m := range newIndex {
			if m == dstNew {
				dstOld = n
				break
			}
		}
		byDst[dstOld] = append(byDst[dstOld], arcIntervals(pred.pos, pt.pos)...)
	}
	var moves []move
	for dst := 0; dst < len(r.ids); dst++ {
		if ivs := byDst[dst]; len(ivs) > 0 {
			moves = append(moves, move{src: leaving, dst: dst, ivs: ivs})
		}
	}
	return nr, moves, newIndex
}
