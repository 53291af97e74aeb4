package rpc

import (
	"bytes"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"openembedding/internal/faultinject"
	"openembedding/internal/obs"
)

// ftClient dials with short timeouts and a short backoff so injected
// faults turn into fast failures.
func ftClient(t *testing.T, addr string, opts Options) *Client {
	t.Helper()
	if opts.Retry.MaxAttempts == 0 {
		opts.Retry.MaxAttempts = 4
	}
	if opts.Retry.Backoff == 0 {
		opts.Retry.Backoff = time.Millisecond
	}
	opts.Timeout = 2 * time.Second
	cl, err := DialOpts(addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// tcpListen and tcpDial are the default transport as the functions the
// fault injector's wrappers take.
func tcpListen(addr string) (net.Listener, error) { return net.Listen("tcp", addr) }
func tcpDial(addr string) (net.Conn, error)       { return net.DialTimeout("tcp", addr, 2*time.Second) }

// serveInjected serves a test engine on loopback behind a listener whose
// connections read and write through inj under the stream label "server".
func serveInjected(t *testing.T, inj *faultinject.Injector, opts ServerOptions) *Server {
	t.Helper()
	ln, err := inj.WrapListen(tcpListen, "server")("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeListener(ln, testEngine(t), opts)
	t.Cleanup(func() { srv.Close() })
	return srv
}

// countingListener counts the connections it accepts.
type countingListener struct {
	net.Listener
	accepted atomic.Int32
}

func (l *countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return conn, err
}

// TestDialAndListenCarryEveryConnection: Options.Dial and the server's
// listener are the only ways onto the network. A counting Dial sees the
// first connect and each redial after an injected reset, the counting
// listener sees every connection the server answers, and a zero-value
// Options still reaches a TCP server.
func TestDialAndListenCarryEveryConnection(t *testing.T) {
	ln, err := tcpListen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	counted := &countingListener{Listener: ln}
	srv := ServeListener(counted, testEngine(t), ServerOptions{})
	defer srv.Close()

	// Client writes: #1 hello, #2 ping (reset), #3 hello after the redial,
	// #4 the ping's retry, #5 ping (reset), #6 hello, #7 the retry.
	inj := faultinject.New(1,
		faultinject.Rule{Point: faultinject.PointConnWrite, Kind: faultinject.KindReset, Nth: 2},
		faultinject.Rule{Point: faultinject.PointConnWrite, Kind: faultinject.KindReset, Nth: 5},
	)
	var dials atomic.Int32
	dial := inj.WrapDial(func(addr string) (net.Conn, error) {
		dials.Add(1)
		return tcpDial(addr)
	}, func(string) string { return "c" })
	reg := obs.NewRegistry()
	cl := ftClient(t, srv.Addr(), Options{Dial: dial, Obs: reg})
	if got := dials.Load(); got != 1 {
		t.Fatalf("dials after DialOpts = %d, want 1 (the first connect)", got)
	}
	for i := 0; i < 2; i++ {
		if err := cl.Ping(); err != nil {
			t.Fatalf("ping %d through an injected reset: %v", i, err)
		}
	}
	if got, redials := dials.Load(), reg.Snapshot().Counters["rpc_client_redials"]; got != 3 || redials != 2 {
		t.Fatalf("dials = %d with %d redials, want 3 with 2 (one per injected reset)", got, redials)
	}
	if got := counted.accepted.Load(); got != 3 {
		t.Fatalf("listener accepted %d conns, want 3 (one per dial)", got)
	}

	plain, err := DialOpts(srv.Addr(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if err := plain.Ping(); err != nil {
		t.Fatalf("zero-value Options against a TCP server: %v", err)
	}
	if got := counted.accepted.Load(); got != 4 {
		t.Fatalf("listener accepted %d conns, want 4 (the default TCP dial's too)", got)
	}
}

// TestRedialAfterServerRestart: a client survives the server process
// being torn down and re-listened on the same address at the same
// epoch — the redial plus handshake is transparent to the caller.
func TestRedialAfterServerRestart(t *testing.T) {
	eng := testEngine(t)
	srv, err := Serve("127.0.0.1:0", eng)
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	reg := obs.NewRegistry()
	cl := ftClient(t, addr, Options{Obs: reg})
	if _, err := cl.Pull(0, []uint64{1, 2}); err != nil {
		t.Fatal(err)
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	srv2, err := Serve(addr, eng) // same address, same epoch (0)
	if err != nil {
		t.Fatalf("re-listen on %s: %v", addr, err)
	}
	defer srv2.Close()

	if _, err := cl.Pull(0, []uint64{1, 2}); err != nil {
		t.Fatalf("pull across server restart: %v", err)
	}
	if got := reg.Snapshot().Counters["rpc_client_redials"]; got < 1 {
		t.Fatalf("rpc_client_redials = %d, want >= 1", got)
	}
}

// TestPushRetryDedup: the server drops a Push response on the floor (the
// mutation ran, the ack was lost). The client's retry re-delivers the same
// sequence number and the server replays its cached response instead of
// applying the gradient twice.
func TestPushRetryDedup(t *testing.T) {
	reg := obs.NewRegistry()
	// Server connection writes: #1 hello resp, #2 pull resp, #3 push resp.
	inj := faultinject.New(1, faultinject.Rule{
		Point: faultinject.PointConnWrite, Label: "server",
		Kind: faultinject.KindDrop, Nth: 3,
	})
	srv := serveInjected(t, inj, ServerOptions{Obs: reg})
	cl := ftClient(t, srv.Addr(), Options{})

	keys := []uint64{1}
	w1, err := cl.Pull(0, keys)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Push(0, keys, []float32{1, 1, 1, 1}); err != nil {
		t.Fatalf("push through dropped ack: %v", err)
	}
	if err := cl.EndPullPhase(0); err != nil {
		t.Fatal(err)
	}
	if err := cl.EndBatch(0); err != nil {
		t.Fatal(err)
	}
	w2, err := cl.Pull(1, keys)
	if err != nil {
		t.Fatal(err)
	}
	for i := range w2 {
		want := w1[i] - 0.1 // applied exactly once (twice would be -0.2)
		if d := w2[i] - want; d > 1e-6 || d < -1e-6 {
			t.Fatalf("w2[%d] = %v, want %v: push not deduplicated", i, w2[i], want)
		}
	}
	if got := reg.Snapshot().Counters["rpc_server_dedup_hits"]; got != 1 {
		t.Fatalf("rpc_server_dedup_hits = %d, want 1", got)
	}

	// The cached body outlives its request, so it must not be a slice of
	// the connection's scratch: replay one — a refused push, whose MsgErr
	// body carries text — after the same connection has answered other
	// requests from that scratch.
	cn := &srvConn{} // bound to the server's epoch, 0, as after a hello
	push := NewBuffer(MsgPush, 1)
	push.PutI64(77) // client ID
	push.PutI64(1)  // sequence
	push.PutKeys(keys)
	push.PutFloats([]float32{1}) // one float for a dim-4 row: refused
	first := bytes.Clone(srv.dispatch(cn, push.Bytes()))
	if first[0] != MsgErr {
		t.Fatalf("malformed push answered %#x, want MsgErr", first[0])
	}
	pull := NewBuffer(MsgPull, 1)
	pull.PutKeys([]uint64{1, 2, 3, 4, 5, 6, 7, 8})
	for i := 0; i < 3; i++ {
		if resp := srv.dispatch(cn, pull.Bytes()); resp[0] != MsgData {
			t.Fatalf("pull answered %#x", resp[0])
		}
	}
	if replay := srv.dispatch(cn, push.Bytes()); !bytes.Equal(replay, first) {
		t.Fatalf("replayed response %q, first response %q: the dedup cache aliases connection scratch", replay, first)
	}
	if got := reg.Snapshot().Counters["rpc_server_dedup_hits"]; got != 2 {
		t.Fatalf("rpc_server_dedup_hits = %d after the in-process replay, want 2", got)
	}
}

// TestEpochFence: when the server moves to a new epoch (a recovery), the
// stale client's batch-protocol requests fail with a typed *EpochError —
// first from the server, then fast client-side — until AdoptEpoch
// re-synchronizes.
func TestEpochFence(t *testing.T) {
	reg := obs.NewRegistry()
	srv, err := ServeOpts("127.0.0.1:0", testEngine(t), ServerOptions{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := ftClient(t, srv.Addr(), Options{})
	if _, err := cl.Pull(0, []uint64{1}); err != nil {
		t.Fatal(err)
	}
	if got := cl.Epoch(); got != 0 {
		t.Fatalf("client epoch = %d, want 0", got)
	}

	srv.SetEpoch(1) // the node "recovered"

	_, err = cl.Pull(0, []uint64{1})
	if !errors.Is(err, ErrEpochFenced) {
		t.Fatalf("pull after epoch bump: %v, want ErrEpochFenced", err)
	}
	var ee *EpochError
	if !errors.As(err, &ee) || ee.ServerEpoch != 1 {
		t.Fatalf("epoch error not attributed: %v", err)
	}
	// Fenced fast-fail: the second attempt never touches the wire.
	if _, err := cl.Pull(0, []uint64{1}); !errors.Is(err, ErrEpochFenced) {
		t.Fatalf("second pull: %v, want client-side fence", err)
	}
	// Unfenced requests still work while fenced.
	if err := cl.Ping(); err != nil {
		t.Fatalf("ping while fenced: %v", err)
	}

	ep, err := cl.AdoptEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if ep != 1 {
		t.Fatalf("AdoptEpoch = %d, want 1", ep)
	}
	if _, err := cl.Pull(0, []uint64{1}); err != nil {
		t.Fatalf("pull after AdoptEpoch: %v", err)
	}
	if got := reg.Snapshot().Counters["rpc_server_epoch_rejects"]; got < 1 {
		t.Fatalf("rpc_server_epoch_rejects = %d, want >= 1", got)
	}
}

// TestCloseDuringRedialNoLeak: Close racing an in-flight redial must win —
// the freshly dialed connection is discarded, the pending request fails
// with ErrClientClosed, and the server ends with zero live connections.
func TestCloseDuringRedialNoLeak(t *testing.T) {
	reg := obs.NewRegistry()
	srv, err := ServeOpts("127.0.0.1:0", testEngine(t), ServerOptions{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Client write #2 (the ping after the dial-time hello) resets the conn.
	inj := faultinject.New(1, faultinject.Rule{
		Point: faultinject.PointConnWrite, Label: "c",
		Kind: faultinject.KindReset, Nth: 2,
	})
	// Once armed, the dial holds each fresh conn long enough, between dial
	// and install, for Close to land in the window.
	var redialDelay atomic.Int64
	slowDial := func(addr string) (net.Conn, error) {
		conn, err := tcpDial(addr)
		time.Sleep(time.Duration(redialDelay.Load()))
		return conn, err
	}
	cl, err := DialOpts(srv.Addr(), Options{
		Retry:   RetryPolicy{MaxAttempts: 1},
		Dial:    inj.WrapDial(slowDial, func(string) string { return "c" }),
		Timeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Ping(); err == nil {
		t.Fatal("injected reset did not surface")
	}

	// The next request redials, slowly.
	redialDelay.Store(int64(200 * time.Millisecond))
	done := make(chan error, 1)
	go func() { done <- cl.Ping() }()
	time.Sleep(50 * time.Millisecond)
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; !errors.Is(err, ErrClientClosed) {
		t.Fatalf("ping during close = %v, want ErrClientClosed", err)
	}
	if err := cl.Ping(); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("ping after close = %v, want ErrClientClosed", err)
	}

	// No leaked socket: the server's conn gauge must drain to zero.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if reg.Snapshot().Gauges["rpc_server_conns"] == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server conns gauge stuck at %d: redialed conn leaked",
				reg.Snapshot().Gauges["rpc_server_conns"])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServerTornResponse: the server tears a response frame mid-write. A
// single-attempt client surfaces a typed transport error; its next request
// redials and works because the fault was scripted, not systemic.
func TestServerTornResponse(t *testing.T) {
	// Server writes: #1 hello resp, #2 pull resp (torn).
	inj := faultinject.New(1, faultinject.Rule{
		Point: faultinject.PointConnWrite, Label: "server",
		Kind: faultinject.KindTorn, Nth: 2,
	})
	srv := serveInjected(t, inj, ServerOptions{})

	cl, err := DialOpts(srv.Addr(), Options{Timeout: 2 * time.Second, Retry: RetryPolicy{MaxAttempts: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	_, err = cl.Pull(0, []uint64{1})
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("torn response error = %v, want ErrUnavailable", err)
	}
	var te *TransportError
	if !errors.As(err, &te) || te.Op != "pull" {
		t.Fatalf("torn response error not attributed: %v", err)
	}
	if _, err := cl.Pull(0, []uint64{1}); err != nil {
		t.Fatalf("redial after torn response: %v", err)
	}
}

// TestTornResponseRetries: the same torn response is healed transparently
// under the default retry policy.
func TestTornResponseRetries(t *testing.T) {
	reg := obs.NewRegistry()
	// Server writes: #1 hello resp, #2 pull resp (torn), then after the
	// redial #3 hello resp and #4 the pull retry.
	inj := faultinject.New(1, faultinject.Rule{
		Point: faultinject.PointConnWrite, Label: "server",
		Kind: faultinject.KindTorn, Nth: 2,
	})
	srv := serveInjected(t, inj, ServerOptions{})
	cl := ftClient(t, srv.Addr(), Options{Obs: reg})
	if _, err := cl.Pull(0, []uint64{1}); err != nil {
		t.Fatalf("pull through torn response: %v", err)
	}
	snap := reg.Snapshot()
	if snap.Counters["rpc_client_retries"] < 1 {
		t.Fatalf("rpc_client_retries = %d, want >= 1", snap.Counters["rpc_client_retries"])
	}
}

// TestHelloRequiredForBatchProtocol: a batch-protocol request on a
// connection that never said MsgHello is answered MsgErr — an application
// error, not an epoch fence — and the connection stays up: unfenced
// requests still work on it, and after the handshake so does the batch
// protocol. A default-options client handshakes at dial and adopts whatever
// epoch the server is at.
func TestHelloRequiredForBatchProtocol(t *testing.T) {
	srv, err := ServeOpts("127.0.0.1:0", testEngine(t), ServerOptions{Epoch: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	send := func(b *Buffer) []byte {
		t.Helper()
		if err := WriteFrame(conn, b.Bytes()); err != nil {
			t.Fatalf("write: %v", err)
		}
		resp, err := ReadFrame(conn)
		if err != nil {
			t.Fatalf("read (connection dropped?): %v", err)
		}
		return resp
	}
	pull := func() *Buffer {
		b := NewBuffer(MsgPull, 0)
		b.PutKeys([]uint64{1})
		return b
	}
	if resp := send(pull()); resp[0] != MsgErr {
		t.Fatalf("hello-less pull answered 0x%02x, want MsgErr", resp[0])
	}
	endPull := NewBuffer(MsgEndPullPhase, 0)
	endPull.PutI64(77) // client ID
	endPull.PutI64(1)  // sequence
	if resp := send(endPull); resp[0] != MsgErr {
		t.Fatalf("hello-less end-pull-phase answered 0x%02x, want MsgErr", resp[0])
	}
	if resp := send(NewBuffer(MsgPing, 0)); resp[0] != MsgData {
		t.Fatalf("ping on the same connection answered 0x%02x, want MsgData", resp[0])
	}
	hello := NewBuffer(MsgHello, 0)
	hello.PutI64(-1) // adopt the server's epoch
	hello.PutI64(77)
	if resp := send(hello); resp[0] != MsgData {
		t.Fatalf("hello answered 0x%02x, want MsgData", resp[0])
	}
	if resp := send(pull()); resp[0] != MsgData {
		t.Fatalf("pull after hello answered 0x%02x, want MsgData", resp[0])
	}

	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if got := cl.Epoch(); got != 5 {
		t.Fatalf("default client adopted epoch %d, want 5", got)
	}
	if _, err := cl.Pull(0, []uint64{1}); err != nil {
		t.Fatalf("default-options pull against epoch-5 server: %v", err)
	}
	if err := cl.EndPullPhase(0); err != nil {
		t.Fatal(err)
	}
}

// TestClientIDsCollisionFree: the dedup key is 63 random bits, not a
// per-process counter, so two worker processes cannot both present "client
// 1" and shadow each other's sequence numbers in the server's dedup cache
// (worker B's push at a sequence <= worker A's last would be answered
// "stale sequence", or on an equal sequence replaced by A's cached
// response). There is no way left to construct a client with a chosen ID;
// two fresh clients both at sequence 1 must both have their push applied.
func TestClientIDsCollisionFree(t *testing.T) {
	seen := make(map[int64]bool)
	for i := 0; i < 4096; i++ {
		id, err := newClientID()
		if err != nil {
			t.Fatal(err)
		}
		if id < 0 || seen[id] {
			t.Fatalf("client ID %d (draw %d) negative or repeated", id, i)
		}
		seen[id] = true
	}

	reg := obs.NewRegistry()
	srv, err := ServeOpts("127.0.0.1:0", testEngine(t), ServerOptions{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	a, b := ftClient(t, srv.Addr(), Options{}), ftClient(t, srv.Addr(), Options{})
	if a.id == b.id {
		t.Fatalf("two clients share ID %d", a.id)
	}
	keys := []uint64{1}
	w0, err := a.Pull(0, keys)
	if err != nil {
		t.Fatal(err)
	}
	// Both clients' first mutating request carries sequence 1.
	if err := a.Push(0, keys, []float32{1, 1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	if err := b.Push(0, keys, []float32{1, 1, 1, 1}); err != nil {
		t.Fatalf("second client's push at an equal sequence: %v", err)
	}
	if err := a.EndPullPhase(0); err != nil {
		t.Fatal(err)
	}
	if err := a.EndBatch(0); err != nil {
		t.Fatal(err)
	}
	w1, err := a.Pull(1, keys)
	if err != nil {
		t.Fatal(err)
	}
	for i := range w1 {
		want := w0[i] - 0.2 // both pushes applied
		if d := w1[i] - want; d > 1e-6 || d < -1e-6 {
			t.Fatalf("w1[%d] = %v, want %v: one client's push shadowed the other's", i, w1[i], want)
		}
	}
	if got := reg.Snapshot().Counters["rpc_server_dedup_hits"]; got != 0 {
		t.Fatalf("rpc_server_dedup_hits = %d, want 0", got)
	}
}

// TestRollbackUnsupported: MsgRollback against a server without a rollback
// hook is a clean remote error, not a hang or disconnect.
func TestRollbackUnsupported(t *testing.T) {
	_, cl := startServer(t)
	if err := cl.Rollback(0); err == nil {
		t.Fatal("rollback accepted by a server without a rollback hook")
	}
	if err := cl.Ping(); err != nil {
		t.Fatalf("connection broken after rollback error: %v", err)
	}
}
