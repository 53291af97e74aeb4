package cluster

import (
	"math"
	"path/filepath"
	"strings"
	"testing"

	"openembedding/internal/ps"
)

// startServeCluster starts nodes with the serving hook enabled and returns
// a client, plus the trained keys' post-push rows (one SGD step, lr=0.1,
// g=1) indexed key*dim as the pooling reference.
func startServeCluster(t *testing.T, nodes int, keys []uint64) (*Client, []float32) {
	t.Helper()
	var addrs []string
	for i := 0; i < nodes; i++ {
		n, err := ps.StartNode("127.0.0.1:0", ps.NodeConfig{
			Engine:        "pmem-oe",
			Serve:         true,
			Store:         storeConfig(),
			CheckpointDir: filepath.Join(t.TempDir(), "ckpt"),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		addrs = append(addrs, n.Addr())
	}
	c, err := Dial(4, addrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	dim := c.Dim()
	w := make([]float32, len(keys)*dim)
	if err := c.Pull(0, keys, w); err != nil {
		t.Fatal(err)
	}
	if err := c.EndPullPhase(0); err != nil {
		t.Fatal(err)
	}
	grads := make([]float32, len(keys)*dim)
	for i := range grads {
		grads[i] = 1
	}
	if err := c.Push(0, keys, grads); err != nil {
		t.Fatal(err)
	}
	if err := c.EndBatch(0); err != nil {
		t.Fatal(err)
	}
	for i := range w {
		w[i] -= 0.1 // post-push rows, what serving returns
	}
	return c, w
}

// TestClusterPullBags: bags whose keys span nodes are pooled from per-node
// partial sums in deterministic node order; sum and mean agree with a
// client-side per-key reference.
func TestClusterPullBags(t *testing.T) {
	const nodes = 3
	keys := make([]uint64, 24)
	for i := range keys {
		keys[i] = uint64(i*7 + 1) // spreads across all 3 partitions
	}
	c, w := startServeCluster(t, nodes, keys)
	dim := c.Dim()

	// Every bag of size >= nodes necessarily spans partitions somewhere;
	// verify explicitly that at least one bag mixes owners.
	offsets := []uint32{0, 4, 4, 9, 12, 24}
	bagKeys := keys
	spans := false
	for b := 0; b+1 < len(offsets); b++ {
		owners := map[int]bool{}
		for _, k := range bagKeys[offsets[b]:offsets[b+1]] {
			owners[c.Owner(k)] = true
		}
		if len(owners) > 1 {
			spans = true
		}
	}
	if !spans {
		t.Fatal("test bags never span nodes; pick different keys")
	}

	for _, mean := range []bool{false, true} {
		bags := len(offsets) - 1
		out := make([]float32, bags*dim)
		for i := range out {
			out[i] = 777 // must be fully overwritten, empty bag included
		}
		if err := c.PullBags(mean, offsets, bagKeys, out); err != nil {
			t.Fatal(err)
		}
		for b := 0; b < bags; b++ {
			lo, hi := int(offsets[b]), int(offsets[b+1])
			want := make([]float32, dim)
			for j := lo; j < hi; j++ {
				for i := 0; i < dim; i++ {
					want[i] += w[j*dim+i]
				}
			}
			if mean && hi > lo {
				inv := 1 / float32(hi-lo)
				for i := range want {
					want[i] *= inv
				}
			}
			for i := 0; i < dim; i++ {
				got := out[b*dim+i]
				d := got - want[i]
				if d > 1e-4 || d < -1e-4 {
					t.Fatalf("mean=%v bag %d[%d] = %v, want %v", mean, b, i, got, want[i])
				}
			}
		}
	}

	// Determinism: the same gather twice is bit-identical (fixed node-order
	// combination), even though per-node responses arrive concurrently.
	bags := len(offsets) - 1
	a := make([]float32, bags*dim)
	bb := make([]float32, bags*dim)
	if err := c.PullBags(false, offsets, bagKeys, a); err != nil {
		t.Fatal(err)
	}
	if err := c.PullBags(false, offsets, bagKeys, bb); err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != bb[i] {
			t.Fatalf("repeated gather differs at %d: %v vs %v", i, a[i], bb[i])
		}
	}
}

// TestClusterPullBagsValidation: malformed requests fail fast client-side,
// before any node is contacted.
func TestClusterPullBagsValidation(t *testing.T) {
	keys := []uint64{1, 2, 3}
	c, _ := startServeCluster(t, 2, keys)
	dim := c.Dim()

	cases := []struct {
		name    string
		offsets []uint32
		keys    []uint64
		outLen  int
		substr  string
	}{
		{"empty offsets", nil, keys, dim, "offsets"},
		{"first not zero", []uint32{1, 3}, keys, dim, "offsets"},
		{"non-monotone", []uint32{0, 2, 1}, keys, 2 * dim, "offsets"},
		{"last short of keys", []uint32{0, 2}, keys, dim, "offsets"},
		{"offset past end", []uint32{0, 4}, keys, dim, "offsets"},
		{"wrong out length", []uint32{0, 3}, keys, dim + 1, "out has"},
	}
	for _, tc := range cases {
		out := make([]float32, tc.outLen)
		err := c.PullBags(false, tc.offsets, tc.keys, out)
		if err == nil || !strings.Contains(err.Error(), tc.substr) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.substr)
		}
	}

	// A single-key gather still works after the rejected ones.
	out := make([]float32, dim)
	if err := c.PullBags(false, []uint32{0, 1}, keys[:1], out); err != nil {
		t.Errorf("valid gather after rejects: %v", err)
	}
}

// TestClusterPullBagsSignedZero pins the share-order rule of DESIGN.md §14
// where it is visible: in the sign of a zero. A gathered element is the sum
// of the contacted nodes' shares in node-index order starting FROM the first
// share (it lands in out; nothing is added to a cleared out), a share being
// the node's rows of the bag in key order starting from the first row, or +0
// for a bag none of whose keys the node owns. So a −0 survives exactly when
// every addend is −0 — a one-key bag read through one contacted node returns
// the bits Client.Pull returns.
func TestClusterPullBagsSignedZero(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	store := storeConfig()
	store.Initializer = func(k uint64, w []float32) {
		w[0], w[1], w[2], w[3] = negZero, 0, float32(k), negZero
		if k%2 == 1 {
			w[1], w[3] = negZero, 0
		}
	}
	keys := make([]uint64, 16)
	for i := range keys {
		keys[i] = uint64(i*7 + 1)
	}
	// One-key bags, multi-key bags (several owners at two nodes) and an
	// empty one.
	offsets := []uint32{0, 1, 2, 2, 5, 9, 16}
	bags := len(offsets) - 1
	for _, nodes := range []int{1, 2} {
		var addrs []string
		for i := 0; i < nodes; i++ {
			n, err := ps.StartNode("127.0.0.1:0", ps.NodeConfig{Serve: true, Store: store})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { n.Close() })
			addrs = append(addrs, n.Addr())
		}
		c, err := Dial(4, addrs)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		dim := c.Dim()
		rows := make([]float32, len(keys)*dim)
		if err := c.Pull(0, keys, rows); err != nil {
			t.Fatal(err)
		}
		if err := c.EndPullPhase(0); err != nil {
			t.Fatal(err)
		}
		if err := c.EndBatch(0); err != nil {
			t.Fatal(err)
		}

		// The rule, from the pulled rows.
		want := make([]float32, bags*dim)
		for b := 0; b < bags; b++ {
			first := true
			for n := 0; n < nodes; n++ {
				share, empty := make([]float32, dim), true
				for j := offsets[b]; j < offsets[b+1]; j++ {
					if c.Owner(keys[j]) != n {
						continue
					}
					for i := range share {
						if empty {
							share[i] = rows[int(j)*dim+i]
						} else {
							share[i] += rows[int(j)*dim+i]
						}
					}
					empty = false
				}
				for i := range share {
					if first {
						want[b*dim+i] = share[i]
					} else {
						want[b*dim+i] += share[i]
					}
				}
				first = false
			}
		}
		out := make([]float32, bags*dim)
		for i := range out {
			out[i] = 777
		}
		if err := c.PullBags(false, offsets, keys, out); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Float32bits(out[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%d nodes: out[%d] = %v (%#x), the rule says %v (%#x)", nodes, i,
					out[i], math.Float32bits(out[i]), want[i], math.Float32bits(want[i]))
			}
		}
		// A gather all of whose keys one node owns: the other node
		// has no share to add, whichever of the two comes first.
		for n := 0; n < nodes; n++ {
			var own []uint64
			for _, k := range keys {
				if c.Owner(k) == n {
					own = append(own, k)
				}
			}
			one := make([]float32, dim)
			if err := c.PullBags(false, []uint32{0, uint32(len(own))}, own, one); err != nil {
				t.Fatal(err)
			}
			var sum float32
			for i, k := range own {
				if i == 0 {
					sum = float32(k)
				} else {
					sum += float32(k)
				}
			}
			if one[2] != sum {
				t.Fatalf("%d nodes: node %d's keys alone gathered %v, want %v", nodes, n, one[2], sum)
			}
		}
		// The visible instances: bag 0 is key 1 alone.
		got := math.Float32bits(out[0])
		if nodes == 1 && got != math.Float32bits(negZero) {
			t.Fatalf("one node: a one-key bag of a row holding -0 gathered %#x, Pull returns -0", got)
		}
		if nodes == 2 && got != 0 {
			t.Fatalf("two nodes: -0 plus the other node's empty share gathered %#x, want +0", got)
		}
	}
}
