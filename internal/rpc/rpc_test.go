package rpc

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"openembedding/internal/engines/dramps"
	"openembedding/internal/obs"
	"openembedding/internal/optim"
	"openembedding/internal/psengine"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	body := []byte{1, 2, 3, 4, 5}
	if err := WriteFrame(&buf, body); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, body) {
		t.Fatalf("frame = %v", got)
	}
}

func TestFrameTooLarge(t *testing.T) {
	var hdr [frameHdrSize]byte
	hdr[3] = 0xff // huge length
	if _, err := ReadFrame(bytes.NewReader(append(hdr[:], 0))); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("want ErrFrameTooLarge, got %v", err)
	}
	if err := WriteFrame(&bytes.Buffer{}, make([]byte, MaxFrame+1)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("want ErrFrameTooLarge, got %v", err)
	}
}

func TestBufferReaderRoundTrip(t *testing.T) {
	b := NewBuffer(MsgPull, 42)
	b.PutKeys([]uint64{7, 8, 9})
	b.PutFloats([]float32{1.5, -2.5})
	b.PutString("hello")

	r := NewReader(b.Bytes())
	typ, err := r.Type()
	if err != nil || typ != MsgPull {
		t.Fatalf("type = %v, %v", typ, err)
	}
	batch, err := r.I64()
	if err != nil || batch != 42 {
		t.Fatalf("batch = %d, %v", batch, err)
	}
	keys, err := r.Keys()
	if err != nil || len(keys) != 3 || keys[2] != 9 {
		t.Fatalf("keys = %v, %v", keys, err)
	}
	vals, err := r.Floats()
	if err != nil || vals[0] != 1.5 || vals[1] != -2.5 {
		t.Fatalf("floats = %v, %v", vals, err)
	}
	s, err := r.String()
	if err != nil || s != "hello" {
		t.Fatalf("string = %q, %v", s, err)
	}
}

func TestReaderTruncation(t *testing.T) {
	b := NewBuffer(MsgPull, 1)
	b.PutKeys([]uint64{1, 2, 3})
	full := b.Bytes()
	for cut := 1; cut < len(full); cut++ {
		r := NewReader(full[:cut])
		_, err1 := r.Type()
		if err1 != nil {
			continue
		}
		if _, err := r.I64(); err != nil {
			continue
		}
		if _, err := r.Keys(); err == nil && cut < len(full) {
			t.Fatalf("truncated body at %d decoded fully", cut)
		}
	}
}

func TestDecodeResponseError(t *testing.T) {
	if _, err := DecodeResponse(ErrBody(errors.New("boom"))); err == nil || err.Error() != "rpc: remote: boom" {
		t.Fatalf("err = %v", err)
	}
	if _, err := DecodeResponse(OKBody()); err != nil {
		t.Fatal(err)
	}
	for _, typ := range []byte{0x55, 0x86} { // 0x86 is unused
		_, err := DecodeResponse([]byte{typ, 0, 0, 0, 0})
		if err == nil || !strings.Contains(err.Error(), "unexpected response type") {
			t.Fatalf("type 0x%02x: err = %v, want an unexpected response type", typ, err)
		}
	}
}

func testEngine(t *testing.T) psengine.Engine {
	t.Helper()
	e, err := dramps.New(psengine.Config{Dim: 4, Optimizer: optim.NewSGD(0.1), Capacity: 1024}, dramps.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

func startServer(t *testing.T) (*Server, *Client) {
	t.Helper()
	srv, err := Serve("127.0.0.1:0", testEngine(t))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return srv, cl
}

func TestClientServerPullPush(t *testing.T) {
	_, cl := startServer(t)
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
	keys := []uint64{1, 2}
	w1, err := cl.Pull(0, keys)
	if err != nil {
		t.Fatal(err)
	}
	if len(w1) != 8 {
		t.Fatalf("pull returned %d floats", len(w1))
	}
	grads := []float32{1, 1, 1, 1, 1, 1, 1, 1}
	if err := cl.Push(0, keys, grads); err != nil {
		t.Fatal(err)
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
		want := w1[i] - 0.1
		if d := w2[i] - want; d > 1e-6 || d < -1e-6 {
			t.Fatalf("w2[%d] = %v, want %v", i, w2[i], want)
		}
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != 2 {
		t.Fatalf("stats entries = %d", st.Entries)
	}
}

func TestServerRemoteErrors(t *testing.T) {
	_, cl := startServer(t)
	// Push of an unknown key must surface the remote error.
	if err := cl.Push(0, []uint64{999}, make([]float32, 4)); err == nil {
		t.Fatal("remote error not surfaced")
	}
	// Checkpoint without configuration fails remotely but the connection
	// stays usable.
	if err := cl.RequestCheckpoint(0); err == nil {
		t.Fatal("unconfigured checkpoint accepted")
	}
	if err := cl.Ping(); err != nil {
		t.Fatalf("connection broken after remote error: %v", err)
	}
}

func TestCompletedCheckpointDefault(t *testing.T) {
	_, cl := startServer(t)
	v, err := cl.CompletedCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	if v != -1 {
		t.Fatalf("completed = %d, want -1", v)
	}
}

func TestConcurrentClients(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", testEngine(t))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl, err := Dial(srv.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			keys := []uint64{uint64(i), uint64(100 + i)}
			for b := int64(0); b < 10; b++ {
				if _, err := cl.Pull(b, keys); err != nil {
					errs <- fmt.Errorf("client %d: %w", i, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	srv, _ := startServer(t)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestNoControlRejectsControlMessages: a server that puts a bare engine on
// the wire (no ServerOptions.Control) refuses every control-plane message
// the same way — a remote application error that names the message, not a
// transport failure — and the connection that carried the refusals serves
// the next request.
func TestNoControlRejectsControlMessages(t *testing.T) {
	reg := obs.NewRegistry()
	_, cl := stubServer(t, testEngine(t), ServerOptions{Obs: reg})
	calls := []struct {
		name string
		call func() error
	}{
		{"rollback", func() error { return cl.Rollback(0) }},
		{"scrub", func() error { _, err := cl.Scrub(); return err }},
		{"migrate-range", func() error { _, _, err := cl.MigrateRange(0, 0, 1, nil); return err }},
		{"adopt-range", func() error { return cl.AdoptRange(nil) }},
		{"drop-range", func() error { _, err := cl.DropRange(nil); return err }},
	}
	for _, c := range calls {
		err := c.call()
		if want := "rpc: remote: " + c.name + " unsupported by this node"; err == nil || err.Error() != want {
			t.Fatalf("%s: err = %v, want %q", c.name, err, want)
		}
		if IsRetryable(err) {
			t.Fatalf("%s: %v reads as a transport failure", c.name, err)
		}
	}
	if err := cl.Ping(); err != nil {
		t.Fatalf("connection broken after the refusals: %v", err)
	}
	// One connect for the first request; no refusal cost a redial or a retry.
	snap := reg.Snapshot().Counters
	if snap["rpc_client_retries"] != 0 || snap["rpc_client_redials"] != 0 {
		t.Fatalf("the refusals cost %d retries and %d redials, want none",
			snap["rpc_client_retries"], snap["rpc_client_redials"])
	}
}
