package ps

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"openembedding/internal/psengine"
	"openembedding/internal/rpc"
)

// TestNodeEngineSwapUnderLoad swaps the engine behind a serving node — the
// rollback RPC, and Crash followed by Restart — while one connection trains
// (Pull/EndPullPhase/Push/EndBatch) and two gather bags. The engine sits
// behind one pointer in the server and one in the serve handler, and a
// request loads it once, so whatever the interleaving a request is answered
// by one engine: every response is a complete row set, or the request fails
// as the closed engine, the epoch fence or the dropped connection. Run
// under -race; GOMAXPROCS 1, 2 and 8 give the swap and the requests every
// way to overlap.
func TestNodeEngineSwapUnderLoad(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		t.Run(fmt.Sprintf("procs=%d", procs), swapUnderLoad)
	}
}

func swapUnderLoad(t *testing.T) {
	const (
		dim    = 4
		lr     = 0.1 // serveNodeConfig's SGD step; every push is gradient 1
		swaps  = 6   // rollbacks, and as many crash/restarts
		apiece = 8   // checked responses the load must land between swaps
	)
	n, ctl := startServeNode(t)
	keys := make([]uint64, 16)
	for i := range keys {
		keys[i] = uint64(i + 1)
	}
	driveConst(t, ctl, 0, keys, 1)
	commitOverWire(t, ctl, 0)
	// The rows of checkpoint 0: what every rollback and restart recovers.
	base := driveBatch(t, ctl, 1, keys, nil)

	dial := func() *rpc.Client {
		cl, err := rpc.DialOpts(n.Addr(), rpc.Options{
			MaxAttempts: 2,
			Timeout:     5 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		return cl
	}
	// stepsOf reads a row as base minus a whole number of SGD steps and
	// returns that number; a row torn between two pushes, or between two
	// engines, has elements that disagree on it.
	stepsOf := func(who string, key uint64, row, base []float32) (int, bool) {
		steps := math.Round(float64(base[0]-row[0]) / lr)
		tol := 0.05 + 1e-4*steps // float32 rounding accumulates with the steps
		for i := range row {
			if d := float64(base[i]-row[i])/lr - steps; steps < 0 || math.Abs(d) > tol {
				t.Errorf("%s: key %d row %v is not base %v minus a whole number of steps", who, key, row, base)
				return 0, false
			}
		}
		return int(steps), true
	}
	// expected reports whether err is one of the ways a request may fail
	// while the engine is swapped; anything else fails the test.
	expected := func(who string, err error) bool {
		if rpc.IsRecoverable(err) || strings.Contains(err.Error(), psengine.ErrClosed.Error()) {
			return true
		}
		t.Errorf("%s: %v", who, err)
		return false
	}

	var stop atomic.Bool
	var landed atomic.Int64
	var wg sync.WaitGroup
	load := func(run func(cl *rpc.Client) bool) {
		wg.Add(1)
		cl := dial()
		go func() {
			defer wg.Done()
			for !stop.Load() && run(cl) {
			}
		}()
	}

	// The trainer is the only writer and pushes every key each batch, so
	// the rows of one engine always agree on the step count.
	grads := make([]float32, len(keys)*dim)
	for i := range grads {
		grads[i] = 1
	}
	batch := int64(2)
	load(func(cl *rpc.Client) bool {
		batch++
		w, err := cl.Pull(batch, keys)
		if err == nil {
			if len(w) != len(keys)*dim {
				t.Errorf("pull: %d floats for %d keys", len(w), len(keys))
				return false
			}
			first, ok := stepsOf("pull", keys[0], w[:dim], base[:dim])
			for i := 1; ok && i < len(keys); i++ {
				var s int
				if s, ok = stepsOf("pull", keys[i], w[i*dim:(i+1)*dim], base[i*dim:(i+1)*dim]); ok && s != first {
					t.Errorf("pull: key %d is %d steps from the checkpoint, key %d is %d: rows of two engines in one response",
						keys[0], first, keys[i], s)
					ok = false
				}
			}
			if !ok {
				return false
			}
			landed.Add(1)
			if err = cl.EndPullPhase(batch); err == nil {
				if err = cl.Push(batch, keys, grads); err == nil {
					err = cl.EndBatch(batch)
				}
			}
		}
		if err == nil {
			return true
		}
		if !expected("train", err) {
			return false
		}
		// Fenced (or redialed into the new epoch): re-synchronize as the
		// recovery protocol does and start a new batch. A node that is
		// still down fails this too; the next Pull says so again.
		_, _ = cl.AdoptEpoch()
		return true
	})
	offsets := make([]uint32, len(keys)+1) // one key a bag: the pooled bag is the row
	for i := range offsets {
		offsets[i] = uint32(i)
	}
	for g := 0; g < 2; g++ {
		load(func(cl *rpc.Client) bool {
			out, err := cl.PullBags(false, offsets, keys)
			if err != nil {
				return expected("gather", err)
			}
			if len(out) != len(keys)*dim {
				t.Errorf("gather: %d floats for %d bags", len(out), len(keys))
				return false
			}
			for i, k := range keys {
				if _, ok := stepsOf("gather", k, out[i*dim:(i+1)*dim], base[i*dim:(i+1)*dim]); !ok {
					return false
				}
			}
			landed.Add(1)
			return true
		})
	}

	// awaitLoad returns once the load has landed apiece more checked
	// responses, so every swap happens under traffic and traffic resumes
	// after every swap.
	awaitLoad := func(stage string) bool {
		from, deadline := landed.Load(), time.Now().Add(20*time.Second)
		for landed.Load() < from+apiece {
			if t.Failed() || time.Now().After(deadline) {
				t.Errorf("%s: the load landed %d responses, want %d", stage, landed.Load()-from, apiece)
				return false
			}
			time.Sleep(time.Millisecond)
		}
		return true
	}
	for i := 0; i < swaps && awaitLoad(fmt.Sprintf("before rollback %d", i)); i++ {
		if err := ctl.Rollback(0); err != nil {
			t.Errorf("rollback %d: %v", i, err)
			break
		}
		if !awaitLoad(fmt.Sprintf("after rollback %d", i)) {
			break
		}
		if err := n.Crash(); err != nil {
			t.Errorf("crash %d: %v", i, err)
			break
		}
		if _, err := n.Restart(); err != nil {
			t.Errorf("restart %d: %v", i, err)
			break
		}
	}
	awaitLoad("after the last restart")
	stop.Store(true)
	wg.Wait()
	if got, want := n.Epoch(), int64(2*swaps); !t.Failed() && got != want {
		t.Fatalf("node epoch = %d after %d rollbacks and %d restarts, want %d", got, swaps, swaps, want)
	}
}
