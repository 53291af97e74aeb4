package rpc

import (
	"testing"

	"openembedding/internal/engines/dramps"
	"openembedding/internal/optim"
	"openembedding/internal/psengine"
)

func benchSetup(b *testing.B, opts Options) (*Client, []uint64, []float32) {
	b.Helper()
	eng, err := dramps.New(psengine.Config{
		Dim: 16, Optimizer: optim.NewSGD(0.1), Capacity: 1 << 16, CacheEntries: 1 << 16,
	}, dramps.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { eng.Close() })
	srv, err := Serve("127.0.0.1:0", eng)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	cl, err := DialOpts(srv.Addr(), opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { cl.Close() })
	keys := make([]uint64, 64)
	for i := range keys {
		keys[i] = uint64(i + 1)
	}
	grads := make([]float32, len(keys)*16)
	if _, err := cl.Pull(0, keys); err != nil {
		b.Fatal(err)
	}
	return cl, keys, grads
}

// BenchmarkClientPull measures the fault-free request path without retry
// machinery — the baseline the retry-enabled variant must stay within noise
// of.
func BenchmarkClientPull(b *testing.B) {
	cl, keys, rows := benchSetup(b, Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cl.PullInto(0, keys, rows); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClientPullRetryEnabled is the same request path with the retry
// policy and (idle) injection hooks armed: the fault-free overhead of fault
// tolerance.
func BenchmarkClientPullRetryEnabled(b *testing.B) {
	cl, keys, rows := benchSetup(b, Options{MaxAttempts: 3})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cl.PullInto(0, keys, rows); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClientPush measures the mutating path, which additionally
// carries the clientID+seq pair and passes the server's dedup layer.
func BenchmarkClientPush(b *testing.B) {
	cl, keys, grads := benchSetup(b, Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cl.Push(0, keys, grads); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClientPushRetryEnabled: the mutating path with dedup sequence
// numbers active server-side.
func BenchmarkClientPushRetryEnabled(b *testing.B) {
	cl, keys, grads := benchSetup(b, Options{MaxAttempts: 3})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cl.Push(0, keys, grads); err != nil {
			b.Fatal(err)
		}
	}
}

// stubBags answers every gather with whatever out already holds: the
// serving tier costs nothing, so what is measured is the wire path.
type stubBags struct{ dim int }

func (s stubBags) Dim() int { return s.dim }

func (stubBags) PullBags(bool, []uint32, []uint64, []float32) error { return nil }

// bagShape is the serving benchmark's request: bags one-key bags (the
// Criteo 26 fields x 128 samples), each pooling to one dim-16 row.
func bagShape(bags int) (offs []uint32, keys []uint64) {
	offs = make([]uint32, bags+1)
	keys = make([]uint64, bags)
	for i := range keys {
		offs[i+1] = uint32(i + 1)
		keys[i] = uint64(i + 1)
	}
	return offs, keys
}

// BenchmarkClientPullBags measures the 26x128 gather's wire path alone:
// 40 KB of request, 213 KB of response, a serving tier that does nothing.
func BenchmarkClientPullBags(b *testing.B) {
	srv, err := ServeOpts("127.0.0.1:0", nil, ServerOptions{Bags: stubBags{dim: 16}})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	cl, err := Dial(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { cl.Close() })
	offs, keys := bagShape(26 * 128)
	out := make([]float32, len(keys)*16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cl.PullBagsInto(false, offs, keys, out); err != nil {
			b.Fatal(err)
		}
	}
}
