package sim

import (
	"sync"
	"testing"
	"time"
)

func TestPerMillisecond(t *testing.T) {
	var tr Trace
	tr.record(2*time.Millisecond, true, 150)
	tr.record(0, false, 100)
	tr.record(500*time.Microsecond, false, 50) // same ms bucket
	buckets := tr.PerMillisecond()
	if len(buckets) != 3 {
		t.Fatalf("buckets = %d", len(buckets))
	}
	if buckets[0].Pulls != 150 || buckets[0].Pushes != 0 {
		t.Fatalf("bucket 0 = %+v", buckets[0])
	}
	if buckets[1].Pulls != 0 || buckets[1].Pushes != 0 {
		t.Fatalf("bucket 1 not idle: %+v", buckets[1])
	}
	if buckets[2].Ms != 2 || buckets[2].Pushes != 150 {
		t.Fatalf("bucket 2 = %+v", buckets[2])
	}
}

func TestPerMillisecondEmpty(t *testing.T) {
	var tr Trace
	if got := tr.PerMillisecond(); got != nil {
		t.Fatalf("empty trace buckets = %v", got)
	}
}

func TestPairCounts(t *testing.T) {
	var tr Trace
	tr.record(0, false, 7)
	tr.record(time.Millisecond, true, 7)
	tr.record(2*time.Millisecond, false, 3)
	pulls, pushes := tr.PairCounts()
	if pulls != 10 || pushes != 7 {
		t.Fatalf("pulls=%d pushes=%d", pulls, pushes)
	}
}

func TestTraceConcurrent(t *testing.T) {
	var tr Trace
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				tr.record(time.Duration(j)*time.Millisecond, false, 1)
			}
		}()
	}
	wg.Wait()
	if pulls, _ := tr.PairCounts(); pulls != 800 {
		t.Fatalf("pulls = %d, want 800", pulls)
	}
}
