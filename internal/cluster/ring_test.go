package cluster

import (
	"fmt"
	"math/rand"
	"testing"

	"openembedding/internal/rpc"
)

const ringSampleKeys = 100_000

func ringIDs(n int) []uint64 {
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(i)
	}
	return ids
}

// TestRingDeterministic: two rings built from the same id list agree on
// every owner, and a ring grown via joinPlan is the same placement as one
// built directly from the combined id list — the property that lets a
// restarted coordinator recompute an interrupted migration's exact plan.
func TestRingDeterministic(t *testing.T) {
	a, b := NewRing(ringIDs(5)), NewRing(ringIDs(5))
	grown, _ := NewRing(ringIDs(4)).joinPlan(4)
	for k := uint64(0); k < ringSampleKeys; k++ {
		if a.Owner(k) != b.Owner(k) {
			t.Fatalf("key %d: owners differ across identical rings", k)
		}
		if a.Owner(k) != grown.Owner(k) {
			t.Fatalf("key %d: grown ring disagrees with directly built ring", k)
		}
	}
}

// TestRingRemapBound pins the elasticity contract: growing N -> N+1 nodes
// remaps at most 2/N of a 100k-key sample, and every remapped key moves TO
// the new node (a join never shuffles keys between existing nodes).
func TestRingRemapBound(t *testing.T) {
	for _, n := range []int{2, 3, 4, 8} {
		old := NewRing(ringIDs(n))
		grown, _ := old.joinPlan(uint64(n))
		moved := 0
		for k := uint64(0); k < ringSampleKeys; k++ {
			a, b := old.Owner(k), grown.Owner(k)
			if a == b {
				continue
			}
			if b != n {
				t.Fatalf("n=%d key %d moved %d -> %d, not to the new node", n, k, a, b)
			}
			moved++
		}
		if bound := 2 * ringSampleKeys / n; moved > bound {
			t.Fatalf("n=%d: join remapped %d/%d keys, want <= %d (2/N)", n, moved, ringSampleKeys, bound)
		}
		if moved == 0 {
			t.Fatalf("n=%d: join moved nothing", n)
		}
	}
}

// TestRingBalance: with 64 vnodes per node, every node's share of a 100k
// key sample stays within a factor ~2 of fair.
func TestRingBalance(t *testing.T) {
	const n = 4
	r := NewRing(ringIDs(n))
	counts := make([]int, n)
	for k := uint64(0); k < ringSampleKeys; k++ {
		counts[r.Owner(k)]++
	}
	fair := ringSampleKeys / n
	for i, c := range counts {
		if c < fair/2 || c > 2*fair {
			t.Fatalf("node %d owns %d keys, fair share %d (counts %v)", i, c, fair, counts)
		}
	}
}

// TestRingPlacementPinned pins the placement itself — rpc.KeyHash and the
// virtual-node layout — to golden owners: every persisted cluster's data
// sits where this function put it, so a change here strands it.
func TestRingPlacementPinned(t *testing.T) {
	r := NewRing(ringIDs(3))
	for k, want := range []int{2, 2, 2, 1, 1, 2, 0, 2, 2, 2, 2, 1, 2, 1, 2, 2} {
		if got := r.Owner(uint64(k) * 1_000_003); got != want {
			t.Fatalf("key %d: owner %d, want pinned %d", uint64(k)*1_000_003, got, want)
		}
	}
	if got, want := rpc.KeyHash(1), uint64(0x910a2dec89025cc1); got != want {
		t.Fatalf("KeyHash(1) = %#x, want pinned %#x", got, want)
	}
}

// TestRingOwnerTable holds the owner table to the binary search it
// shortcuts, on rings of 1-8 nodes and on the rings joinPlan and leavePlan
// return: at the first and last hash of every table entry, at every ring
// point's hash and one either side of it, and for 10^5 random keys through
// Owner itself. The table must also route most keys on its own.
func TestRingOwnerTable(t *testing.T) {
	rings := map[string]*Ring{}
	for n := 1; n <= 8; n++ {
		rings[fmt.Sprintf("%d nodes", n)] = NewRing(ringIDs(n))
	}
	for _, n := range []int{1, 2, 4, 7} {
		grown, _ := NewRing(ringIDs(n)).joinPlan(uint64(n + 10))
		rings[fmt.Sprintf("%d nodes joined by one", n)] = grown
	}
	for _, n := range []int{2, 3, 8} {
		for _, leaving := range []int{0, n - 1} {
			shrunk, _, _ := NewRing(ringIDs(n)).leavePlan(leaving)
			rings[fmt.Sprintf("%d nodes left by %d", n, leaving)] = shrunk
		}
	}
	rng := rand.New(rand.NewSource(1))
	for name, r := range rings {
		search := func(h uint64) int { return int(r.points[r.succ(h)].node) }
		check := func(what string, h uint64) {
			t.Helper()
			if got, want := r.ownerOfHash(h), search(h); got != want {
				t.Fatalf("%s: %s %#x: owner table gives node %d, search %d", name, what, h, got, want)
			}
		}
		if len(r.owner) < ownerTablePerPoint*len(r.points) && len(r.owner) < 1<<ownerTableMaxBits {
			t.Fatalf("%s: %d table entries for %d points", name, len(r.owner), len(r.points))
		}
		split := 0
		for e, n := range r.owner {
			lo := uint64(e) << r.shift
			check("entry start", lo)
			check("entry end", lo|(1<<r.shift-1))
			if n < 0 {
				split++
			}
		}
		if split > len(r.points) {
			t.Fatalf("%s: %d split entries for %d points", name, split, len(r.points))
		}
		for _, p := range r.points {
			check("point", p.pos)
			check("point-1", p.pos-1)
			check("point+1", p.pos+1)
		}
		for i := 0; i < 100_000; i++ {
			k := rng.Uint64()
			if got, want := r.Owner(k), search(rpc.KeyHash(k)); got != want {
				t.Fatalf("%s: key %#x: Owner %d, search %d", name, k, got, want)
			}
		}
	}
}

// TestJoinPlanCoversExactly: the union of a join plan's intervals covers
// precisely the keys the new node owns in the grown ring, each attributed
// to the key's old owner as source.
func TestJoinPlanCoversExactly(t *testing.T) {
	old := NewRing(ringIDs(3))
	grown, moves := old.joinPlan(3)
	bySrc := make(map[int][]rpc.HashInterval)
	for _, mv := range moves {
		if mv.dst != 3 {
			t.Fatalf("join move dst = %d, want 3", mv.dst)
		}
		bySrc[mv.src] = append(bySrc[mv.src], mv.ivs...)
	}
	for k := uint64(0); k < 20_000; k++ {
		movesToNew := grown.Owner(k) == 3
		covered := false
		for src, ivs := range bySrc {
			if rpc.CoversKey(ivs, k) {
				covered = true
				if want := old.Owner(k); src != want {
					t.Fatalf("key %d covered by source %d, old owner %d", k, src, want)
				}
			}
		}
		if covered != movesToNew {
			t.Fatalf("key %d: covered=%v but moves-to-new=%v", k, covered, movesToNew)
		}
	}
}

// TestLeavePlanCoversExactly: a leave plan's intervals cover precisely the
// leaving node's keys, each attributed to the key's new owner, and
// newIndex maps the survivors in order.
func TestLeavePlanCoversExactly(t *testing.T) {
	old := NewRing(ringIDs(4))
	leaving := 1
	shrunk, moves, newIndex := old.leavePlan(leaving)
	if newIndex[leaving] != -1 {
		t.Fatalf("newIndex[leaving] = %d, want -1", newIndex[leaving])
	}
	byDst := make(map[int][]rpc.HashInterval)
	for _, mv := range moves {
		if mv.src != leaving {
			t.Fatalf("leave move src = %d, want %d", mv.src, leaving)
		}
		byDst[mv.dst] = append(byDst[mv.dst], mv.ivs...)
	}
	for k := uint64(0); k < 20_000; k++ {
		wasLeaving := old.Owner(k) == leaving
		covered := false
		for dstOld, ivs := range byDst {
			if rpc.CoversKey(ivs, k) {
				covered = true
				if want := newIndex[dstOld]; shrunk.Owner(k) != want {
					t.Fatalf("key %d covered by old-dst %d (new %d), shrunk owner %d",
						k, dstOld, want, shrunk.Owner(k))
				}
			}
		}
		if covered != wasLeaving {
			t.Fatalf("key %d: covered=%v but was-leaving=%v", k, covered, wasLeaving)
		}
		if !wasLeaving && shrunk.Owner(k) != newIndex[old.Owner(k)] {
			t.Fatalf("key %d: unmoved key changed owner %d -> %d", k, old.Owner(k), shrunk.Owner(k))
		}
	}
}

// TestRingIsTheOnlyPlacement: a default-options client places keys on the
// ring built from its node ids at ownership epoch 0 — there is no other
// placement to select — and a one-node ring owns everything, which is all
// a fixed single-node deployment needs.
func TestRingIsTheOnlyPlacement(t *testing.T) {
	c, _ := startClusterOpts(t, "dram-ps", 3, Options{})
	if got := c.Epoch(); got != 0 {
		t.Fatalf("fresh cluster epoch = %d, want 0", got)
	}
	want := NewRing(ringIDs(3))
	for k := uint64(0); k < 10_000; k++ {
		if got := c.Owner(k); got != want.Owner(k) {
			t.Fatalf("key %d: client owner %d, ring owner %d", k, got, want.Owner(k))
		}
	}
	one := NewRing(ringIDs(1))
	for k := uint64(0); k < 1000; k++ {
		if one.Owner(k) != 0 {
			t.Fatalf("key %d on a one-node ring: owner %d", k, one.Owner(k))
		}
	}
	// The training path works end to end on the default placement.
	keys := []uint64{1, 2, 3, 4, 5, 6}
	dst := make([]float32, len(keys)*4)
	if err := c.Pull(0, keys, dst); err != nil {
		t.Fatal(err)
	}
}
