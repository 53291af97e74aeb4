package train

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

var errFlaky = errors.New("flaky: node lost")

// flakyPS is an in-process Recoverer: a stateless parameter server (pulls
// read zeros, pushes vanish) whose commit is the checkpoint last requested,
// and whose EndPullPhase fails whenever fail says so for that batch's
// attempt (0 for the first run of a batch, 1 for its first replay, ...).
type flakyPS struct {
	fail      func(batch int64, attempt int) bool
	attempts  map[int64]int
	committed int64
	faults    int
	recovers  int
}

func newFlakyPS(fail func(batch int64, attempt int) bool) *flakyPS {
	return &flakyPS{fail: fail, attempts: map[int64]int{}, committed: -1}
}

func (f *flakyPS) Pull(int64, []uint64, []float32) error { return nil }
func (f *flakyPS) Push(int64, []uint64, []float32) error { return nil }
func (f *flakyPS) EndBatch(int64) error                  { return nil }

func (f *flakyPS) EndPullPhase(batch int64) error {
	attempt := f.attempts[batch]
	f.attempts[batch]++
	if !f.fail(batch, attempt) {
		return nil
	}
	f.faults++
	return fmt.Errorf("fault %d: %w", f.faults, errFlaky)
}

func (f *flakyPS) RequestCheckpoint(batch int64) error {
	f.committed = batch
	return nil
}

func (f *flakyPS) CompletedCheckpoint() (int64, error) { return f.committed, nil }

func (f *flakyPS) Recover(commit int64) error {
	if commit != f.committed {
		return fmt.Errorf("recover to %d, committed %d", commit, f.committed)
	}
	f.recovers++
	return nil
}

func (f *flakyPS) Recoverable(err error) bool { return errors.Is(err, errFlaky) }

// TestReplayBoundCountsSinceCommit: the replay bound counts recoveries since
// the cluster commit last advanced, not over the whole run. A run whose
// every batch fails once, each failure after a new checkpoint committed,
// completes however many failures that adds up to; a failure that recurs
// with no commit in between stops the run after maxReplays recoveries with
// the failure that ended it.
func TestReplayBoundCountsSinceCommit(t *testing.T) {
	cfg := trainerConfig(1)
	cfg.BatchSize = 8
	cfg.CheckpointEvery = 1

	t.Run("spread", func(t *testing.T) {
		const steps = maxReplays + 5
		ps := newFlakyPS(func(_ int64, attempt int) bool { return attempt == 0 })
		tr, err := New(cfg, ps)
		if err != nil {
			t.Fatal(err)
		}
		out, err := tr.Run(steps)
		if err != nil {
			t.Fatalf("run with %d spread failures: %v", ps.faults, err)
		}
		if len(out.Steps) != steps || ps.recovers != steps {
			t.Fatalf("steps %d, recoveries %d; want %d of each", len(out.Steps), ps.recovers, steps)
		}
	})

	t.Run("stuck", func(t *testing.T) {
		ps := newFlakyPS(func(batch int64, _ int) bool { return batch == 2 })
		tr, err := New(cfg, ps)
		if err != nil {
			t.Fatal(err)
		}
		out, err := tr.Run(5)
		if !errors.Is(err, errFlaky) {
			t.Fatalf("run stuck at batch 2 returned %v, want the injected fault", err)
		}
		if ps.recovers != maxReplays {
			t.Fatalf("recoveries %d, want %d", ps.recovers, maxReplays)
		}
		if want := fmt.Sprintf("fault %d:", maxReplays+1); !strings.HasPrefix(err.Error(), want) {
			t.Fatalf("run returned %q, want the last fault (%s ...)", err, want)
		}
		if len(out.Steps) != 2 {
			t.Fatalf("steps %d, want the 2 committed before the stuck batch", len(out.Steps))
		}
	})
}

// lostReplyPS is a flakyPS whose checkpoint request at batch lost takes
// effect, then loses its reply once: every node queued the checkpoint, but
// the trainer sees a recoverable failure.
type lostReplyPS struct {
	*flakyPS
	lost int64
}

func (f *lostReplyPS) RequestCheckpoint(batch int64) error {
	f.committed = batch
	if batch != f.lost {
		return nil
	}
	f.lost = -1
	return fmt.Errorf("reply lost: %w", errFlaky)
}

// TestReplayAfterLostCheckpointReply: a checkpoint request that took effect
// but lost its reply becomes the commit the replay reads, so the trainer
// must already hold the dense snapshot for it. The run recovers to that
// batch once and completes with every batch recorded once.
func TestReplayAfterLostCheckpointReply(t *testing.T) {
	cfg := trainerConfig(1)
	cfg.BatchSize = 8
	cfg.CheckpointEvery = 1
	ps := &lostReplyPS{flakyPS: newFlakyPS(func(int64, int) bool { return false }), lost: 3}
	tr, err := New(cfg, ps)
	if err != nil {
		t.Fatal(err)
	}
	out, err := tr.Run(6)
	if err != nil {
		t.Fatalf("run with a lost checkpoint reply: %v", err)
	}
	if ps.recovers != 1 {
		t.Fatalf("recoveries %d, want 1", ps.recovers)
	}
	for i, st := range out.Steps {
		if st.Batch != int64(i) {
			t.Fatalf("steps %+v, want batches 0..5 once each", out.Steps)
		}
	}
	if len(out.Steps) != 6 {
		t.Fatalf("steps %d, want 6", len(out.Steps))
	}
}
