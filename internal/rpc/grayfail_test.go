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
// bounds retry amplification, the per-peer circuit breaker fast-fails a
// persistently failing node, and the server abandons work whose caller's
// propagated deadline already expired.

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

// TestBreakerStateMachine walks the breaker through its whole lifecycle
// as a pure function of call and failure counts.
func TestBreakerStateMachine(t *testing.T) {
	reg := obs.NewRegistry()
	k := NewBreaker(3, 4)
	k.SetObs(reg)

	type step struct {
		op   string // "fail", "ok", "allow"
		want bool   // for "allow": expected verdict
	}
	steps := []step{
		{op: "allow", want: true}, // closed
		{op: "fail"}, {op: "fail"},
		{op: "allow", want: true}, // 2 failures: still closed
		{op: "fail"},              // 3rd consecutive: opens
		{op: "allow", want: false},
		{op: "allow", want: false},
		{op: "allow", want: false},
		{op: "allow", want: true}, // every 4th blocked call probes
		{op: "fail"},              // probe failed: stays open
		{op: "allow", want: false},
		{op: "allow", want: false},
		{op: "allow", want: false},
		{op: "allow", want: true}, // next probe
		{op: "ok"},                // probe succeeded: closes
		{op: "allow", want: true},
		{op: "fail"}, {op: "fail"}, {op: "fail"}, // re-opens
		{op: "allow", want: false},
	}
	for i, s := range steps {
		switch s.op {
		case "fail":
			k.OnFailure()
		case "ok":
			k.OnSuccess()
		case "allow":
			if got := k.Allow(); got != s.want {
				t.Fatalf("step %d: Allow() = %v, want %v (open=%v)", i, got, s.want, k.Open())
			}
		}
	}
	if got := reg.Snapshot().Counters["rpc_breaker_open"]; got != 2 {
		t.Fatalf("rpc_breaker_open = %d, want 2 closed-to-open transitions", got)
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

// TestBreakerFastFailCostsNoBudget: once the breaker is open, blocked
// attempts never withdraw retry tokens — fast-fails are free, so a broken
// peer cannot starve the budget other peers' retries draw from.
func TestBreakerFastFailCostsNoBudget(t *testing.T) {
	// A refused port: listen, note the address, close.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	budget := NewBudget(3, 0)
	bk := NewBreaker(1, 100) // opens on the first failure, probes rarely
	c, err := DialOpts(addr, Options{
		Retry:       RetryPolicy{MaxAttempts: 3, Backoff: 100 * time.Microsecond, Seed: 3},
		Budget:      budget,
		Breaker:     bk,
		DialTimeout: time.Second,
	})
	if err != nil {
		t.Fatalf("dial: %v (initial connect failures defer to redial-on-demand)", err)
	}
	defer c.Close()

	// First ping: the free first attempt fails on the wire and opens the
	// breaker; attempt 2 withdraws a token and is then blocked; attempt 3
	// follows a breaker fast-fail, so it is free.
	err = c.Ping()
	if err == nil {
		t.Fatal("ping to a refused port succeeded")
	}
	if !bk.Open() {
		t.Fatal("breaker still closed after a wire failure with threshold 1")
	}
	if got := budget.Tokens(); got != 2 {
		t.Fatalf("budget tokens = %v after first ping, want 2 (one wire retry)", got)
	}

	// Second ping: every attempt is breaker-blocked; none cost a token.
	err = c.Ping()
	if !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("ping err = %v, want ErrBreakerOpen", err)
	}
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("breaker-open err = %v, want Is(ErrUnavailable) so failover treats it as degraded", err)
	}
	if !IsDegraded(err) {
		t.Fatalf("IsDegraded(%v) = false, want true", err)
	}
	if got := budget.Tokens(); got != 2 {
		t.Fatalf("budget tokens = %v after fast-failed ping, want 2 (fast-fails are free)", got)
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
