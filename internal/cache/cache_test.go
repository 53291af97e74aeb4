package cache

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func collect(l *List[int]) []int {
	var out []int
	l.Each(func(v int) bool { out = append(out, v); return true })
	return out
}

func TestListPushFrontOrder(t *testing.T) {
	l := NewList[int]()
	for i := 1; i <= 3; i++ {
		l.PushFront(&Node[int]{Value: i})
	}
	got := collect(l)
	want := []int{3, 2, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if l.Len() != 3 {
		t.Fatalf("Len = %d", l.Len())
	}
	if l.Back().Value != 1 || l.Front().Value != 3 {
		t.Fatalf("back/front = %d/%d", l.Back().Value, l.Front().Value)
	}
}

func TestListMoveToFront(t *testing.T) {
	l := NewList[int]()
	nodes := make([]*Node[int], 4)
	for i := range nodes {
		nodes[i] = &Node[int]{Value: i}
		l.PushFront(nodes[i])
	}
	l.MoveToFront(nodes[0]) // LRU becomes MRU
	got := collect(l)
	want := []int{0, 3, 2, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	l.MoveToFront(nodes[0]) // moving the front is a no-op
	if l.Front().Value != 0 {
		t.Fatal("front changed")
	}
}

func TestListRemove(t *testing.T) {
	l := NewList[int]()
	a, b, c := &Node[int]{Value: 1}, &Node[int]{Value: 2}, &Node[int]{Value: 3}
	l.PushFront(a)
	l.PushFront(b)
	l.PushFront(c)
	l.Remove(b)
	if b.InList() {
		t.Fatal("removed node still claims membership")
	}
	got := collect(l)
	if len(got) != 2 || got[0] != 3 || got[1] != 1 {
		t.Fatalf("order after remove = %v", got)
	}
	// Removed node can be reinserted.
	l.PushFront(b)
	if l.Front() != b {
		t.Fatal("reinsert failed")
	}
}

func TestListEmpty(t *testing.T) {
	l := NewList[int]()
	if l.Back() != nil || l.Front() != nil || l.Len() != 0 {
		t.Fatal("empty list not empty")
	}
}

func TestListPrev(t *testing.T) {
	l := NewList[int]()
	a, b := &Node[int]{Value: 1}, &Node[int]{Value: 2}
	l.PushFront(a)
	l.PushFront(b) // order: b, a
	if l.Prev(a) != b {
		t.Fatal("Prev(a) != b")
	}
	if l.Prev(b) != nil {
		t.Fatal("Prev(front) != nil")
	}
}

func TestListDoubleInsertPanics(t *testing.T) {
	l := NewList[int]()
	n := &Node[int]{Value: 1}
	l.PushFront(n)
	defer func() {
		if recover() == nil {
			t.Fatal("double insert did not panic")
		}
	}()
	l.PushFront(n)
}

func TestListForeignNodePanics(t *testing.T) {
	l1, l2 := NewList[int](), NewList[int]()
	n := &Node[int]{Value: 1}
	l1.PushFront(n)
	defer func() {
		if recover() == nil {
			t.Fatal("foreign MoveToFront did not panic")
		}
	}()
	l2.MoveToFront(n)
}

// TestListMatchesReferenceLRU drives the intrusive list and a slice-based
// reference model with the same random operations and checks they agree.
func TestListMatchesReferenceLRU(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := NewList[int]()
		nodes := map[int]*Node[int]{}
		var ref []int // front at index 0

		refRemove := func(v int) {
			for i, x := range ref {
				if x == v {
					ref = append(ref[:i], ref[i+1:]...)
					return
				}
			}
		}
		for op := 0; op < 200; op++ {
			v := rng.Intn(20)
			n, in := nodes[v]
			switch {
			case !in || !n.InList():
				if n == nil {
					n = &Node[int]{Value: v}
					nodes[v] = n
				}
				l.PushFront(n)
				ref = append([]int{v}, ref...)
			case rng.Intn(2) == 0:
				l.MoveToFront(n)
				refRemove(v)
				ref = append([]int{v}, ref...)
			default:
				l.Remove(n)
				refRemove(v)
			}
			got := collect(l)
			if len(got) != len(ref) {
				return false
			}
			for i := range ref {
				if got[i] != ref[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQueuePushDrain(t *testing.T) {
	var q Queue[int]
	q.Push(1, 2)
	q.Push(3)
	if q.Len() != 3 {
		t.Fatalf("Len = %d", q.Len())
	}
	got := q.Drain()
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("Drain = %v", got)
	}
	if q.Drain() != nil {
		t.Fatal("second drain not nil")
	}
	q.Push() // empty push is a no-op
	if q.Len() != 0 {
		t.Fatal("empty push added items")
	}
}

func TestQueueConcurrentProducers(t *testing.T) {
	var q Queue[int]
	var wg sync.WaitGroup
	const producers, each = 8, 500
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				q.Push(i)
			}
		}()
	}
	wg.Wait()
	if got := len(q.Drain()); got != producers*each {
		t.Fatalf("drained %d, want %d", got, producers*each)
	}
}

// TestQueueRecycleStopsRegrowth: with the drained slice handed back, a
// steady stream of equal-sized batches alternates between two backing
// arrays instead of regrowing one from nil every batch.
func TestQueueRecycleStopsRegrowth(t *testing.T) {
	var q Queue[*int]
	batch := make([]*int, 100)
	for i := range batch {
		batch[i] = new(int)
	}
	arrays := map[**int]bool{} // distinct backing arrays, by first-element address
	for round := 0; round < 10; round++ {
		q.Push(batch...)
		got := q.Drain()
		if len(got) != len(batch) {
			t.Fatalf("round %d: drained %d", round, len(got))
		}
		arrays[&got[0]] = true
		q.Recycle(got)
		for _, p := range got {
			if p != nil {
				t.Fatal("Recycle left pointers in the spare slice")
			}
		}
	}
	if len(arrays) > 2 {
		t.Fatalf("ten equal batches used %d backing arrays, want 2 (double buffer)", len(arrays))
	}
	if q.Len() != 0 || q.Drain() != nil {
		t.Fatal("queue not empty after the rounds")
	}
}

func TestPoolBoundAndOrder(t *testing.T) {
	p := NewPool[int](3)
	if _, ok := p.Get(); ok {
		t.Fatal("Get from an empty pool")
	}
	p.Put(1, 2)
	p.Put(3, 4, 5) // only one more fits
	if got := p.Take(nil, 10); len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("Take = %v, want [1 2 3]", got)
	}
	p.Put(7)
	p.Put(8)
	if v, ok := p.Get(); !ok || v != 8 {
		t.Fatalf("Get = %v, %v", v, ok)
	}
	if got := p.Take([]int{0}, 1); len(got) != 2 || got[1] != 7 {
		t.Fatalf("Take onto dst = %v", got)
	}
	NewPool[int](0).Put(1) // a zero bound keeps nothing and must not panic
}
