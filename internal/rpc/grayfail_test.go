package rpc

import (
	"errors"
	"sync/atomic"
	"testing"

	"openembedding/internal/obs"
)

// Gray-failure hardening tests (DESIGN.md §16): a corruption answer or a
// remote error ends its request on the attempt that got it. Whether a node
// is worth asking at all is the cluster client's health table
// (internal/cluster).

// failBags is a BagServer stub that fails every sum read with a corruption
// error, every mean read with a plain remote error, and counts the requests
// that reach it.
type failBags struct {
	dim   int
	calls atomic.Int64
}

type corruptErr struct{}

func (corruptErr) Error() string        { return "stub: corrupt" }
func (corruptErr) IntegrityError() bool { return true }

func (s *failBags) Dim() int { return s.dim }

func (s *failBags) PullBags(mean bool, _ []uint32, _ []uint64, _ []float32) error {
	s.calls.Add(1)
	if mean {
		return errors.New("stub: remote failure")
	}
	return corruptErr{}
}

// TestBreakerFastFailCostsNoBudget (named for the deleted breaker's
// fast-fail and the deleted retry budget; skipping a down node before the
// wire is the cluster health table's, checked by cluster's
// TestDownOwnerFailsFast): an answer that fails fast — a corruption answer
// or a remote error — ends the request on the attempt that got it, so it
// is sent once however many attempts the retry policy allows.
func TestBreakerFastFailCostsNoBudget(t *testing.T) {
	bags := &failBags{dim: 4}
	srv, err := ServeOpts("127.0.0.1:0", testEngine(t), ServerOptions{Bags: bags})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	reg := obs.NewRegistry()
	c, err := DialOpts(srv.Addr(), Options{
		MaxAttempts: 3,
		Obs:         reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	_, err = c.PullBags(false, []uint32{0, 2}, []uint64{10, 20})
	if !errors.Is(err, ErrRemoteCorrupt) || IsRetryable(err) {
		t.Fatalf("corrupt read err = %v, want a non-retryable ErrRemoteCorrupt", err)
	}
	_, err = c.PullBags(true, []uint32{0, 1}, []uint64{404})
	if err == nil || IsRetryable(err) || errors.Is(err, ErrRemoteCorrupt) {
		t.Fatalf("remote error = %v, want a non-retryable remote failure", err)
	}
	if got := bags.calls.Load(); got != 2 {
		t.Fatalf("server saw %d requests for 2 fast-failed reads, want 2 (neither retried)", got)
	}
	if got := reg.Snapshot().Counters["rpc_client_retries"]; got != 0 {
		t.Fatalf("rpc_client_retries = %d after fast-failed reads, want 0", got)
	}
}

// FuzzPingDecode fuzzes the client-side decode of MsgPing responses
// (PingInfo's epoch + serving-flag layout): arbitrary bytes must never
// panic, only error.
func FuzzPingDecode(f *testing.F) {
	ok := &Buffer{b: []byte{MsgData}}
	ok.PutI64(7)
	ok.PutU8(1)
	f.Add(ok.Bytes())
	f.Add([]byte{MsgData})
	f.Add([]byte{MsgErr, 'x'})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, body []byte) {
		r, err := DecodeResponse(body)
		if err != nil {
			return
		}
		epoch, err := r.I64()
		if err != nil {
			return
		}
		serving, err := r.U8()
		if err != nil {
			return
		}
		_, _ = epoch, serving
	})
}
