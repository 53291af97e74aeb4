package rpc

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"openembedding/internal/obs"
)

// Gray-failure hardening tests (DESIGN.md §16): the shared retry budget
// bounds retry amplification, and a shed (busy) answer is degraded but
// never retried. Whether a node is worth asking at all is the cluster
// client's health table (internal/cluster).

// TestRetryStormBudgetBounded is the retry-storm regression: many clients
// hammering one dead node share a retry budget, so the total connection
// attempts stay near clients + Max instead of clients × MaxAttempts.
func TestRetryStormBudgetBounded(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var accepts atomic.Int64
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			accepts.Add(1)
			conn.Close() // every request attempt fails mid-handshake
		}
	}()

	reg := obs.NewRegistry()
	const clients = 16
	const budgetMax = 8
	budget := NewBudget(budgetMax, 0)
	budget.SetObs(reg)
	opts := Options{
		Retry: RetryPolicy{
			MaxAttempts: 4,
			Backoff:     100 * time.Microsecond,
			MaxBackoff:  time.Millisecond,
			Seed:        9,
		},
		Budget:       budget,
		DialTimeout:  2 * time.Second,
		ReadTimeout:  2 * time.Second,
		WriteTimeout: 2 * time.Second,
	}
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := DialOpts(ln.Addr().String(), opts)
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer c.Close()
			if err := c.Ping(); err == nil {
				t.Error("ping succeeded against a connection-killing listener")
			}
		}()
	}
	wg.Wait()

	// Per client: one initial-dial connect plus one free first attempt;
	// everything beyond that must have withdrawn a budget token.
	limit := int64(clients*2 + budgetMax)
	if got := accepts.Load(); got > limit {
		t.Fatalf("retry storm made %d connection attempts, budget bounds it to %d", got, limit)
	}
	if got := accepts.Load(); got <= clients {
		t.Fatalf("only %d connection attempts for %d clients; storm never happened", got, clients)
	}
	if got := reg.Snapshot().Counters["rpc_retry_budget_exhausted"]; got == 0 {
		t.Fatal("rpc_retry_budget_exhausted = 0; the bucket never emptied under a 48-retry demand")
	}
}

func TestBudgetTokenArithmetic(t *testing.T) {
	reg := obs.NewRegistry()
	b := NewBudget(2, 0.5)
	b.SetObs(reg)
	if !b.TryRetry() || !b.TryRetry() {
		t.Fatal("a full bucket of 2 denied one of its first two retries")
	}
	if b.TryRetry() {
		t.Fatal("empty bucket allowed a retry")
	}
	if got := reg.Snapshot().Counters["rpc_retry_budget_exhausted"]; got != 1 {
		t.Fatalf("exhausted counter = %d, want 1", got)
	}
	b.OnSuccess() // +0.5: still below 1 token
	if b.TryRetry() {
		t.Fatal("0.5 tokens allowed a retry")
	}
	b.OnSuccess() // 1.0
	if !b.TryRetry() {
		t.Fatal("1 token denied a retry")
	}
	for i := 0; i < 100; i++ {
		b.OnSuccess()
	}
	if got := b.Tokens(); got != 2 {
		t.Fatalf("tokens = %v after many successes, want capped at max 2", got)
	}
	// Nil budget allows everything.
	var nilB *Budget
	if !nilB.TryRetry() {
		t.Fatal("nil budget denied a retry")
	}
}

// shedBags is a BagServer stub that sheds every pooled read and counts the
// requests that reach it; replica reads answer as sumBags does.
type shedBags struct {
	sumBags
	calls atomic.Int64
}

type shedErr struct{}

func (shedErr) Error() string { return "stub: shed" }
func (shedErr) Busy() bool    { return true }

func (s *shedBags) PullBags(bool, []uint32, []uint64, []float32) error {
	s.calls.Add(1)
	return shedErr{}
}

func (s *shedBags) PullReplicaBags(offsets []uint32, keys []uint64, out []float32) error {
	s.calls.Add(1)
	return s.sumBags.PullReplicaBags(offsets, keys, out)
}

// TestBreakerFastFailCostsNoBudget (named for the deleted breaker's
// fast-fail; skipping a down node before the wire is now the cluster
// health table's, checked by cluster's TestBreakerPerNode): an answer
// that fails fast — a shed (busy) read or a remote error — ends the
// request on the attempt that got it, so it is sent once and withdraws no
// retry-budget token.
func TestBreakerFastFailCostsNoBudget(t *testing.T) {
	bags := &shedBags{sumBags: sumBags{dim: 4}}
	srv, err := ServeOpts("127.0.0.1:0", testEngine(t), ServerOptions{Bags: bags})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	budget := NewBudget(3, 0)
	c, err := DialOpts(srv.Addr(), Options{
		Retry:  RetryPolicy{MaxAttempts: 3, Backoff: 100 * time.Microsecond, Seed: 3},
		Budget: budget,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	_, err = c.PullBags(false, []uint32{0, 2}, []uint64{10, 20})
	if !errors.Is(err, ErrBusy) || !IsDegraded(err) {
		t.Fatalf("shed read err = %v, want a degraded ErrBusy", err)
	}
	err = c.PullReplicaBagsInto([]uint32{0, 1}, []uint64{404}, make([]float32, 4))
	if err == nil || IsRetryable(err) {
		t.Fatalf("remote error = %v, want a non-retryable failure", err)
	}
	if got := bags.calls.Load(); got != 2 {
		t.Fatalf("server saw %d requests for 2 fast-failed reads, want 2 (neither retried)", got)
	}
	if got := budget.Tokens(); got != 3 {
		t.Fatalf("budget tokens = %v after fast-failed reads, want 3 (fast-fails are free)", got)
	}
}

// TestBusyErrorMappedEndToEnd: a handler error that reports Busy() comes
// back over the wire as MsgErrBusy and decodes to a *BusyError the
// failover layer treats as degraded but the retry loop does not retry.
func TestBusyErrorMappedEndToEnd(t *testing.T) {
	resp := BusyErrBody(errors.New("shed: inflight watermark exceeded"))
	_, err := DecodeResponse(resp)
	if err == nil {
		t.Fatal("busy body decoded as success")
	}
	var be *BusyError
	if !errors.As(err, &be) {
		t.Fatalf("decoded err = %T, want *BusyError", err)
	}
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("err = %v, want Is(ErrBusy)", err)
	}
	if IsRecoverable(err) {
		t.Fatal("busy is retryable; retrying a shedding node makes overload worse")
	}
	if !IsDegraded(err) {
		t.Fatal("busy must count as degraded so reads fail over")
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
