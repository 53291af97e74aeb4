package rpc

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"openembedding/internal/engines/dramps"
	"openembedding/internal/obs"
	"openembedding/internal/optim"
	"openembedding/internal/psengine"
)

func timeoutTestEngine(t *testing.T) psengine.Engine {
	t.Helper()
	eng, err := dramps.New(psengine.Config{
		Dim: 4, Optimizer: optim.NewSGD(0.1), Capacity: 1024, CacheEntries: 1024,
	}, dramps.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	return eng
}

func TestOptionsWithDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Timeout != DefaultTimeout || o.Dial == nil {
		t.Fatalf("zero options did not default to a 30s TCP dial: %+v", o)
	}
	if o.MaxAttempts != 3 {
		t.Fatalf("zero options did not default to 3 attempts: %+v", o)
	}
	o = Options{Timeout: time.Second, MaxAttempts: 1}.withDefaults()
	if o.Timeout != time.Second || o.MaxAttempts != 1 {
		t.Fatalf("explicit options overridden: %+v", o)
	}
	if o.Dial == nil {
		t.Fatalf("unset fields beside explicit ones not defaulted: %+v", o)
	}
}

// TestBackoffBounded: the delay before a retry is positive and at most the
// 250 ms cap with its jitter, however many attempts a client is allowed —
// the doubling stops at the cap instead of overflowing past it.
func TestBackoffBounded(t *testing.T) {
	const limit = 375 * time.Millisecond // 1.5 × the cap
	c := &Client{opts: Options{}.withDefaults(), rng: 1}
	for a := 1; a <= 100; a++ {
		if d := c.backoff(a); d <= 0 || d > limit {
			t.Fatalf("backoff(%d) = %v, want in (0, %v]", a, d, limit)
		}
	}
}

// TestReadTimeoutOnHungServer talks to a server that completes the
// handshake and then swallows every request: the request must fail with the
// typed timeout error after the configured read deadline, not hang — and
// once the server heals, the same client redials and succeeds (a timeout
// breaks the connection, never the client).
func TestReadTimeoutOnHungServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan struct{})
	defer close(done)
	var healed atomic.Bool
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				for {
					body, err := ReadFrame(conn)
					if err != nil {
						return
					}
					switch {
					case body[0] == MsgHello:
						out := &Buffer{b: []byte{MsgData}}
						out.PutI64(0)
						err = WriteFrame(conn, out.Bytes())
					case healed.Load():
						err = WriteFrame(conn, OKBody())
					default:
						<-done // swallow the request, never answer
						return
					}
					if err != nil {
						return
					}
				}
			}()
		}
	}()

	reg := obs.NewRegistry()
	c, err := DialOpts(ln.Addr().String(), Options{
		Timeout: 100 * time.Millisecond,
		Obs:     reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	start := time.Now()
	err = c.Ping()
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("ping of a hung server succeeded")
	}
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("error does not match ErrTimeout: %v", err)
	}
	var te *TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("error is not a *TimeoutError: %v", err)
	}
	if te.Op != "ping" || te.Addr != ln.Addr().String() {
		t.Fatalf("timeout error not attributed: %+v", te)
	}
	if !te.Timeout() {
		t.Fatal("TimeoutError.Timeout() = false")
	}
	if elapsed > 5*time.Second {
		t.Fatalf("three 100ms attempts took %v", elapsed)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["rpc_client_timeouts"]; got != 3 {
		t.Fatalf("rpc_client_timeouts = %d, want 3 (default MaxAttempts)", got)
	}
	if got := snap.Counters["rpc_client_retries"]; got != 2 {
		t.Fatalf("rpc_client_retries = %d, want 2", got)
	}

	// The timed-out connection was closed, not the client: once the server
	// answers again, the next request redials and succeeds.
	healed.Store(true)
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after the server healed: %v", err)
	}
	if got := reg.Snapshot().Counters["rpc_client_redials"]; got < 1 {
		t.Fatalf("rpc_client_redials = %d, want >= 1", got)
	}
}

// TestClientServerMetrics round-trips real requests and checks both sides'
// obs metrics populate.
func TestClientServerMetrics(t *testing.T) {
	serverReg := obs.NewRegistry()
	clientReg := obs.NewRegistry()
	srv, err := ServeOpts("127.0.0.1:0", timeoutTestEngine(t), ServerOptions{Obs: serverReg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := DialOpts(srv.Addr(), Options{Obs: clientReg})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Pull(0, []uint64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := c.Push(0, []uint64{1, 2, 3}, make([]float32, 12)); err != nil {
		t.Fatal(err)
	}

	cs := clientReg.Snapshot()
	// The dial-time handshake is a round trip like any other.
	if got := cs.Histograms["rpc_client_rtt_ns"].Count; got != 4 {
		t.Errorf("client rtt count = %d, want 4 (hello, ping, pull, push)", got)
	}
	if cs.Counters["rpc_client_bytes_out"] == 0 || cs.Counters["rpc_client_bytes_in"] == 0 {
		t.Errorf("client byte counters empty: %+v", cs.Counters)
	}
	if cs.Counters["rpc_client_timeouts"] != 0 {
		t.Errorf("spurious timeouts: %d", cs.Counters["rpc_client_timeouts"])
	}

	deadline := time.Now().Add(2 * time.Second)
	for {
		ss := serverReg.Snapshot()
		if ss.Histograms["rpc_server_pull_ns"].Count == 1 &&
			ss.Histograms["rpc_server_push_ns"].Count == 1 &&
			ss.Counters["rpc_server_requests"] == 4 &&
			ss.Counters["rpc_server_bytes_in"] > 0 &&
			ss.Gauges["rpc_server_conns"] == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server metrics never settled: %+v", ss)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
