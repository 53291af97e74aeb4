package cache

import "sync"

// Queue is the Access Queue of Fig. 5: request threads append the entries
// each batch touched, and the cache-maintainer threads drain them later,
// off the critical path. It is a simple mutex-protected FIFO of slices —
// appends are batched per request, so contention is per request rather
// than per key.
//
// The queue is double-buffered: Drain hands the filled slice to the
// maintainer and continues on the slice the maintainer handed back with
// Recycle, so a steady stream of equal-sized batches regrows nothing.
type Queue[T any] struct {
	mu    sync.Mutex
	items []T
	spare []T // a drained slice handed back, empty, its capacity kept
}

// Push appends items to the queue.
func (q *Queue[T]) Push(items ...T) {
	if len(items) == 0 {
		return
	}
	q.mu.Lock()
	q.items = append(q.items, items...)
	q.mu.Unlock()
}

// Drain removes and returns everything queued so far. It returns nil when
// the queue is empty. The slice belongs to the caller, who may hand it back
// with Recycle once done with it.
func (q *Queue[T]) Drain() []T {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.items) == 0 {
		return nil
	}
	out := q.items
	q.items, q.spare = q.spare, nil
	return out
}

// Recycle hands a slice Drain returned back to the queue, which clears it
// and fills it again after the next Drain. The caller must not touch buf
// afterwards.
func (q *Queue[T]) Recycle(buf []T) {
	clear(buf)
	q.mu.Lock()
	if cap(buf) > cap(q.spare) {
		q.spare = buf[:0]
	}
	q.mu.Unlock()
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

// Pool is a bounded free list of recycled values — the DRAM rows evicted
// cache entries leave behind, which promotions and first-touch creations
// take instead of allocating. It is internally locked and a leaf: nothing
// is called while its lock is held.
type Pool[T any] struct {
	mu    sync.Mutex
	items []T
	max   int
}

// NewPool returns a pool that keeps at most max values; Put drops the rest
// to the garbage collector.
func NewPool[T any](max int) *Pool[T] { return &Pool[T]{max: max} }

// Put adds vs to the pool, up to its bound.
func (p *Pool[T]) Put(vs ...T) {
	p.mu.Lock()
	if room := p.max - len(p.items); room < len(vs) {
		vs = vs[:max(room, 0)]
	}
	p.items = append(p.items, vs...)
	p.mu.Unlock()
}

// Get removes one value from the pool; ok is false when it is empty.
func (p *Pool[T]) Get() (v T, ok bool) {
	p.mu.Lock()
	if n := len(p.items); n > 0 {
		v, ok = p.items[n-1], true
		var zero T
		p.items[n-1] = zero
		p.items = p.items[:n-1]
	}
	p.mu.Unlock()
	return v, ok
}

// Take moves up to n values from the pool onto dst and returns it.
func (p *Pool[T]) Take(dst []T, n int) []T {
	p.mu.Lock()
	if n > len(p.items) {
		n = len(p.items)
	}
	cut := len(p.items) - n
	dst = append(dst, p.items[cut:]...)
	clear(p.items[cut:])
	p.items = p.items[:cut]
	p.mu.Unlock()
	return dst
}
