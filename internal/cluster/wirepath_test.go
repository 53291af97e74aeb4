package cluster

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"openembedding/internal/rpc"
)

// idleBags is a serving tier that costs nothing: every bag pools to
// whatever out already holds.
type idleBags struct{ dim int }

func (b idleBags) Dim() int { return b.dim }

func (idleBags) PullBags(bool, []uint32, []uint64, []float32) error { return nil }

// TestClusterPullBagsAllocs pins the gather's steady state above the wire:
// on one node the plan, the fan-out (inline) and the accumulation allocate
// nothing beyond the wire path's own bound (measured: 0); on two nodes the
// call pays for one goroutine and eachNode's bookkeeping (measured: 5), and
// no more.
func TestClusterPullBagsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race: sync.Pool keeps nothing, so every call builds a fresh fan")
	}
	const dim = 16
	for _, c := range []struct {
		nodes int
		bound float64
	}{{1, 2}, {2, 6}} {
		var addrs []string
		for i := 0; i < c.nodes; i++ {
			srv, err := rpc.ServeOpts("127.0.0.1:0", nil, rpc.ServerOptions{Bags: idleBags{dim: dim}})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })
			addrs = append(addrs, srv.Addr())
		}
		cl, err := Dial(dim, addrs)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		const bags = 26 * 128
		offs := make([]uint32, bags+1)
		keys := make([]uint64, bags)
		for i := range keys {
			offs[i+1] = uint32(i + 1)
			keys[i] = uint64(i + 1)
		}
		out := make([]float32, bags*dim)
		gather := func() {
			if err := cl.PullBags(false, offs, keys, out); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 3; i++ {
			gather() // connect, grow the pooled groups
		}
		// Mallocs over the whole process: the servers' side of the loopback
		// counts too. (testing.AllocsPerRun would pin GOMAXPROCS to 1.)
		const runs = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			gather()
		}
		runtime.ReadMemStats(&after)
		if got := float64(after.Mallocs-before.Mallocs) / runs; got > c.bound {
			t.Errorf("%d node(s): %.2f allocs per gather, want <= %v", c.nodes, got, c.bound)
		}
	}
}

// TestSharedClientInterleavedCalls: two goroutines share one Client and
// interleave Pull and PullBags on disjoint key sets; every row of every
// answer is checked, so scratch shared between calls in flight — a plan, a
// partial, a frame — shows as a wrong row (and, under -race, as a race).
func TestSharedClientInterleavedCalls(t *testing.T) {
	const workers, perWorker, rounds = 2, 96, 60
	keys := make([]uint64, workers*perWorker)
	for i := range keys {
		keys[i] = uint64(i*13 + 1)
	}
	c, _ := startServeCluster(t, 2, keys)
	dim := c.Dim()

	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		mine := keys[w*perWorker : (w+1)*perWorker]
		want := make([]float32, len(mine)*dim)
		if err := c.Pull(1, mine, want); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			offs := make([]uint32, len(mine)+1)
			for i := range offs {
				offs[i] = uint32(i)
			}
			got := make([]float32, len(want))
			check := func(call string, round int) error {
				for i := range want {
					if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
						return fmt.Errorf("worker %d round %d %s: float %d of key %d = %v, want %v",
							w, round, call, i%dim, mine[i/dim], got[i], want[i])
					}
				}
				return nil
			}
			for r := 0; r < rounds && errs[w] == nil; r++ {
				clear(got)
				if r%2 == w%2 {
					if errs[w] = c.Pull(1, mine, got); errs[w] == nil {
						errs[w] = check("Pull", r)
					}
				} else if errs[w] = c.PullBags(false, offs, mine, got); errs[w] == nil {
					// One-key bags: 0 + row, which is the row (no -0 here).
					errs[w] = check("PullBags", r)
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
