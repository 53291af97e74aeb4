package rpc

import (
	"sync"

	"openembedding/internal/obs"
)

// Budget is a token bucket shared across every retry a set of clients
// performs. Each transparent retry withdraws one token; each successful
// request deposits PerSuccess back (capped at Max). When the bucket is
// empty, retries are denied and the request fails with its last error —
// so N concurrent callers hitting one dead node spend at most Max extra
// dial attempts between them, instead of N×MaxAttempts.
//
// First attempts are never budgeted: the budget bounds *amplification*,
// not offered load. A nil *Budget allows everything (legacy behavior).
type Budget struct {
	mu         sync.Mutex
	tokens     float64
	max        float64
	perSuccess float64

	exhausted *obs.Counter // rpc_retry_budget_exhausted (nil-safe)
}

// NewBudget returns a full bucket of max tokens that regains perSuccess
// tokens per successful request. max <= 0 panics: a budget that can never
// allow a retry should be expressed by disabling retries instead.
func NewBudget(max, perSuccess float64) *Budget {
	if max <= 0 {
		panic("rpc: retry budget max must be positive")
	}
	if perSuccess < 0 {
		perSuccess = 0
	}
	return &Budget{tokens: max, max: max, perSuccess: perSuccess}
}

// SetObs registers the rpc_retry_budget_exhausted counter on reg.
func (b *Budget) SetObs(reg *obs.Registry) {
	if b == nil || reg == nil {
		return
	}
	b.mu.Lock()
	b.exhausted = reg.Counter("rpc_retry_budget_exhausted")
	b.mu.Unlock()
}

// TryRetry withdraws one token, reporting whether the retry may proceed.
// A nil budget always allows.
func (b *Budget) TryRetry() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens < 1 {
		b.exhausted.Add(1)
		return false
	}
	b.tokens--
	return true
}

// OnSuccess deposits PerSuccess tokens (capped at Max). Nil-safe.
func (b *Budget) OnSuccess() {
	if b == nil {
		return
	}
	b.mu.Lock()
	if b.tokens += b.perSuccess; b.tokens > b.max {
		b.tokens = b.max
	}
	b.mu.Unlock()
}

// Tokens returns the current token count (tests and oectl).
func (b *Budget) Tokens() float64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.tokens
}
