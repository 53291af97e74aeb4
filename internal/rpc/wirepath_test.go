package rpc

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"openembedding/internal/obs"
	"openembedding/internal/psengine"
)

// stubEngine is an engine that costs nothing: Pull leaves dst as it is, Push
// drops the gradients. What a test measures against it is the wire path.
type stubEngine struct {
	psengine.Engine
	dim       int
	pulls     atomic.Int64
	mutations atomic.Int64 // Push, EndPullPhase, EndBatch and RequestCheckpoint calls
}

func (e *stubEngine) Dim() int { return e.dim }

func (e *stubEngine) Pull(int64, []uint64, []float32) error {
	e.pulls.Add(1)
	return nil
}

func (e *stubEngine) Push(int64, []uint64, []float32) error { e.mutations.Add(1); return nil }
func (e *stubEngine) EndPullPhase(int64)                    { e.mutations.Add(1) }
func (e *stubEngine) EndBatch(int64) error                  { e.mutations.Add(1); return nil }
func (e *stubEngine) RequestCheckpoint(int64) error         { e.mutations.Add(1); return nil }
func (e *stubEngine) CompletedCheckpoint() int64            { return -1 }
func (e *stubEngine) WaitCheckpoints() error                { return nil }
func (e *stubEngine) Stats() psengine.Stats                 { return psengine.Stats{} }

// bareServer is a server with no listener behind it: tests and fuzzers
// drive its handlers in process.
func bareServer(eng psengine.Engine, bags BagServer) *Server {
	s := &Server{bags: bags, dedup: make(map[int64]dedupEntry)}
	s.SetEngine(eng)
	return s
}

// stubControl is a Control that does nothing and succeeds; MigrateRange
// answers page.
type stubControl struct{ page []psengine.MigEntry }

func (stubControl) Rollback(int64) error                 { return nil }
func (stubControl) Scrub() (psengine.ScrubReport, error) { return psengine.ScrubReport{}, nil }
func (c stubControl) MigrateRange(int64, uint64, int, []HashInterval) ([]psengine.MigEntry, bool, error) {
	return c.page, false, nil
}
func (stubControl) AdoptRange([]psengine.MigEntry) error  { return nil }
func (stubControl) DropRange([]HashInterval) (int, error) { return 0, nil }

func stubServer(t testing.TB, eng psengine.Engine, opts ServerOptions) (*Server, *Client) {
	t.Helper()
	srv, err := ServeOpts("127.0.0.1:0", eng, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cl, err := DialOpts(srv.Addr(), Options{Obs: opts.Obs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return srv, cl
}

// retained is the capacity, in bytes, a connection's scratch holds on to.
func (sc *wireScratch) retained() int {
	return cap(sc.in) + cap(sc.out.b) + 8*cap(sc.keys) + 4*cap(sc.offs) + 4*cap(sc.vals)
}

// mallocsPerOp is testing.AllocsPerRun without its GOMAXPROCS(1): the
// process-wide malloc count (client and server side of the loopback) per
// call of f, at whatever GOMAXPROCS the test set.
func mallocsPerOp(runs int, f func()) float64 {
	f() // warm up: scratch grows here
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// TestWirePathAllocs pins the data plane's steady state: a PullInto, a
// 26x128 PullBagsInto and a Push over loopback allocate (client and server
// together) at most 2 objects per request, at GOMAXPROCS 1 and 2.
func TestWirePathAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		const dim = 16
		_, cl := stubServer(t, &stubEngine{dim: dim}, ServerOptions{Bags: stubBags{dim: dim}})
		if _, err := cl.Pull(0, []uint64{1}); err != nil { // connect + hello
			t.Fatal(err)
		}
		keys := make([]uint64, 64)
		for i := range keys {
			keys[i] = uint64(i + 1)
		}
		rows := make([]float32, len(keys)*dim)
		offs, bagKeys := bagShape(26 * 128)
		pooled := make([]float32, len(bagKeys)*dim)
		for _, c := range []struct {
			name string
			op   func() error
		}{
			{"PullInto", func() error { return cl.PullInto(0, keys, rows) }},
			{"PullBagsInto", func() error { return cl.PullBagsInto(false, offs, bagKeys, pooled) }},
			{"Push", func() error { return cl.Push(0, keys, rows) }},
		} {
			got := mallocsPerOp(200, func() {
				if err := c.op(); err != nil {
					t.Fatal(err)
				}
			})
			if got > 2 {
				t.Errorf("GOMAXPROCS=%d %s: %.2f allocs/op over client and server, want <= 2", procs, c.name, got)
			}
		}
	}
}

// perElement is the codec as it was before the bulk one: one append per
// element. It is the reference the golden-bytes test holds Buffer to.
type perElement struct{ b []byte }

func (p *perElement) u8(v byte)    { p.b = append(p.b, v) }
func (p *perElement) u32(v uint32) { p.b = binary.LittleEndian.AppendUint32(p.b, v) }
func (p *perElement) i64(v int64)  { p.b = binary.LittleEndian.AppendUint64(p.b, uint64(v)) }
func (p *perElement) keys(ks []uint64) {
	p.u32(uint32(len(ks)))
	for _, k := range ks {
		p.i64(int64(k))
	}
}
func (p *perElement) u32s(vs []uint32) {
	p.u32(uint32(len(vs)))
	for _, v := range vs {
		p.u32(v)
	}
}
func (p *perElement) floats(vs []float32) {
	p.u32(uint32(len(vs)))
	for _, v := range vs {
		p.u32(math.Float32bits(v))
	}
}

// TestBulkCodecGoldenBytes: the bulk encoder emits, byte for byte, the
// pull / push / pull-bag / migrate bodies the per-element encoder did, and
// the Into decoders read them back — including NaN payloads, negative zero
// and the empty list.
func TestBulkCodecGoldenBytes(t *testing.T) {
	keys := []uint64{0, 1, 0x0102030405060708, math.MaxUint64}
	offs := []uint32{0, 1, 1, 3, 4}
	vals := []float32{0, float32(math.Copysign(0, -1)), 1.5, -3.25e-7, float32(math.Inf(1)),
		math.Float32frombits(0x7fc00001), math.Float32frombits(0xffffffff)}

	for _, c := range []struct {
		name string
		bulk func(*Buffer)
		ref  func(*perElement)
	}{
		{"pull", func(b *Buffer) { b.Reset(MsgPull, 7); b.PutKeys(keys) },
			func(p *perElement) { p.u8(MsgPull); p.i64(7); p.keys(keys) }},
		{"pull-empty", func(b *Buffer) { b.Reset(MsgPull, -1); b.PutKeys(nil) },
			func(p *perElement) { p.u8(MsgPull); p.i64(-1); p.keys(nil) }},
		{"push", func(b *Buffer) { b.Reset(MsgPush, 9); b.PutI64(42); b.PutI64(3); b.PutKeys(keys); b.PutFloats(vals) },
			func(p *perElement) {
				p.u8(MsgPush)
				p.i64(9)
				p.i64(42)
				p.i64(3)
				p.keys(keys)
				p.floats(vals)
			}},
		{"pull-bag", func(b *Buffer) { b.Reset(MsgPullBag, 0); b.PutBool(true); b.PutU32s(offs); b.PutKeys(keys) },
			func(p *perElement) { p.u8(MsgPullBag); p.i64(0); p.u8(1); p.u32s(offs); p.keys(keys) }},
		{"pull-response", func(b *Buffer) { b.reset(MsgData); b.PutFloats(vals) },
			func(p *perElement) { p.u8(MsgData); p.floats(vals) }},
		{"migrate-request", func(b *Buffer) {
			b.Reset(MsgMigrateRange, -5)
			b.PutI64(11)
			b.PutI64(100)
			putIntervals(b, []HashInterval{{Lo: 1, Hi: 2}, {Lo: 9, Hi: math.MaxUint64}})
		}, func(p *perElement) {
			p.u8(MsgMigrateRange)
			p.i64(-5)
			p.i64(11)
			p.i64(100)
			p.keys([]uint64{1, 2, 9, math.MaxUint64})
		}},
		{"migrate-response", func(b *Buffer) {
			b.reset(MsgData)
			b.PutBool(false)
			putMigEntries(b, []psengine.MigEntry{{Key: 5, Version: 2, Data: vals}, {Key: 6, Version: -1}})
		}, func(p *perElement) {
			p.u8(MsgData)
			p.u8(0)
			p.i64(2)
			p.i64(5)
			p.i64(2)
			p.floats(vals)
			p.i64(6)
			p.i64(-1)
			p.floats(nil)
		}},
	} {
		var b Buffer
		b.b = []byte("stale bytes of the frame's previous life")
		c.bulk(&b)
		var ref perElement
		c.ref(&ref)
		if !bytes.Equal(b.Bytes(), ref.b) {
			t.Errorf("%s: bulk encoder wrote\n%x\nper-element encoder wrote\n%x", c.name, b.Bytes(), ref.b)
		}
	}

	// Decode a push body back, into scratch that is too small, exact, and
	// larger than the lists.
	var ref perElement
	ref.keys(keys)
	ref.u32s(offs)
	ref.floats(vals)
	for _, spare := range []int{-1, 0, 8} {
		r := NewReader(ref.b)
		gotK, err := r.KeysInto(make([]uint64, 0, len(keys)+spare))
		if err != nil {
			t.Fatal(err)
		}
		gotO, err := r.U32sInto(make([]uint32, 0, len(offs)+spare))
		if err != nil {
			t.Fatal(err)
		}
		gotV, err := r.FloatsInto(make([]float32, 0, len(vals)+spare))
		if err != nil {
			t.Fatal(err)
		}
		if len(gotK) != len(keys) || len(gotO) != len(offs) || len(gotV) != len(vals) {
			t.Fatalf("spare %d: decoded %d/%d/%d elements", spare, len(gotK), len(gotO), len(gotV))
		}
		for i := range keys {
			if gotK[i] != keys[i] {
				t.Errorf("spare %d: key %d = %#x, want %#x", spare, i, gotK[i], keys[i])
			}
		}
		for i := range offs {
			if gotO[i] != offs[i] {
				t.Errorf("spare %d: offset %d = %d, want %d", spare, i, gotO[i], offs[i])
			}
		}
		for i := range vals {
			if math.Float32bits(gotV[i]) != math.Float32bits(vals[i]) {
				t.Errorf("spare %d: float %d = %#x, want %#x", spare, i, math.Float32bits(gotV[i]), math.Float32bits(vals[i]))
			}
		}
	}
}

// TestSwapElems: the one step a big-endian host adds to the bulk codec
// turns memory order into wire order, and is its own inverse.
func TestSwapElems(t *testing.T) {
	be := binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(nil, 0x0102030405060708), 0xa1a2a3a4a5a6a7a8)
	le := binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, 0x0102030405060708), 0xa1a2a3a4a5a6a7a8)
	got := bytes.Clone(be)
	swapElems(got, 8)
	if !bytes.Equal(got, le) {
		t.Fatalf("8-byte swap of %x = %x, want %x", be, got, le)
	}
	swapElems(got, 8)
	if !bytes.Equal(got, be) {
		t.Fatalf("swapping twice gave %x, want %x back", got, be)
	}
	four := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	swapElems(four, 4)
	if want := []byte{4, 3, 2, 1, 8, 7, 6, 5}; !bytes.Equal(four, want) {
		t.Fatalf("4-byte swap = %v, want %v", four, want)
	}
}

// TestOversizedResponseKeepsConnection: a Pull (and a migration page) whose
// answer cannot fit a frame is refused with a remote application error
// before it runs — not executed, written, failed and the connection
// dropped, which the client would then retry three times — and the same
// connection serves the next request.
func TestOversizedResponseKeepsConnection(t *testing.T) {
	reg := obs.NewRegistry()
	eng := &stubEngine{dim: 1 << 20} // 4 MB a row: 17 rows overflow the 64 MB frame
	page := make([]float32, 1<<20)
	entries := make([]psengine.MigEntry, 17)
	for i := range entries {
		entries[i] = psengine.MigEntry{Key: uint64(i), Data: page}
	}
	_, cl := stubServer(t, eng, ServerOptions{Obs: reg, Control: stubControl{page: entries}})
	refused := func(what string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "frame limit") {
			t.Fatalf("%s: err = %v, want the remote frame-limit refusal", what, err)
		}
		if IsRetryable(err) {
			t.Fatalf("%s: %v reads as a transport failure", what, err)
		}
	}
	_, err := cl.Pull(0, make([]uint64, 17))
	refused("oversized pull", err)
	if n := eng.pulls.Load(); n != 0 {
		t.Fatalf("the engine ran %d pulls for the refused request, want 0", n)
	}
	_, _, err = cl.MigrateRange(0, 0, 17, nil)
	refused("oversized migration page", err)

	rows, err := cl.Pull(0, make([]uint64, 2))
	if err != nil || len(rows) != 2<<20 {
		t.Fatalf("pull after the refusals: %d floats, err %v", len(rows), err)
	}
	snap := reg.Snapshot().Counters
	if snap["rpc_client_retries"] != 0 || snap["rpc_client_redials"] != 0 {
		t.Fatalf("retries %d, redials %d: the refusals cost the connection",
			snap["rpc_client_retries"], snap["rpc_client_redials"])
	}
}

// TestScratchBounded: one oversized frame does not stay pinned by the
// connection that carried it — a 32 MB adoption on the server side, an
// 8 MB migration page on the client side — while the small requests after
// it keep reusing scratch under the bound.
func TestScratchBounded(t *testing.T) {
	const dim = 16
	big := []psengine.MigEntry{{Key: 1, Data: make([]float32, 8<<20)}} // 32 MB
	srv := bareServer(&stubEngine{dim: dim}, nil)
	srv.control = stubControl{}
	adopt := NewBuffer(MsgAdoptRange, 0)
	putMigEntries(adopt, big)
	keys := []uint64{1, 2, 3}
	pull := NewBuffer(MsgPull, 0)
	pull.PutKeys(keys)

	var wire bytes.Buffer
	for _, body := range [][]byte{adopt.Bytes(), pull.Bytes(), pull.Bytes()} {
		if err := WriteFrame(&wire, body); err != nil {
			t.Fatal(err)
		}
	}
	br := bufio.NewReader(&wire)
	var answers bytes.Buffer
	bw := bufio.NewWriter(&answers)
	cn := &srvConn{} // bound to the server's epoch, 0, as after a hello
	for i, want := range []byte{MsgOK, MsgData, MsgData} {
		if err := srv.serveOne(cn, br, bw); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		resp, err := ReadFrame(&answers)
		if err != nil || resp[0] != want {
			t.Fatalf("request %d: response %x, err %v, want type %#x", i, resp[:min(len(resp), 8)], err, want)
		}
		if got := cn.sc.retained(); got > maxScratch {
			t.Fatalf("after request %d the connection retains %d bytes, bound %d", i, got, maxScratch)
		}
	}
	if cap(cn.sc.in) == 0 || cap(cn.sc.vals) < len(keys)*dim {
		t.Fatalf("small requests did not keep their scratch (in %d, vals %d)", cap(cn.sc.in), cap(cn.sc.vals))
	}
	if err := srv.serveOne(cn, br, bw); !errors.Is(err, io.EOF) {
		t.Fatalf("drained connection: %v, want EOF", err)
	}

	// Client side: an 8 MB migration page lands in the response scratch.
	_, cl := stubServer(t, &stubEngine{dim: dim}, ServerOptions{
		Control: stubControl{page: []psengine.MigEntry{{Key: 1, Data: make([]float32, 2<<20)}}},
	})
	entries, _, err := cl.MigrateRange(0, 0, 1, nil)
	if err != nil || len(entries) != 1 || len(entries[0].Data) != 2<<20 {
		t.Fatalf("migration page: %d entries, err %v", len(entries), err)
	}
	if got := cl.sc.retained(); got > maxScratch {
		t.Fatalf("after the page the client retains %d bytes, bound %d", got, maxScratch)
	}
	if err := cl.PullInto(0, keys, make([]float32, len(keys)*dim)); err != nil {
		t.Fatal(err)
	}
	if got := cl.sc.retained(); got == 0 || got > maxScratch {
		t.Fatalf("after a small pull the client retains %d bytes, want (0, %d]", got, maxScratch)
	}
}

// TestClientSharedAcrossGoroutines: control-plane answers are decoded from
// the caller's own copy, so goroutines sharing one Client never read a
// frame another request has overwritten.
func TestClientSharedAcrossGoroutines(t *testing.T) {
	const dim = 4
	_, cl := stubServer(t, &stubEngine{dim: dim}, ServerOptions{Bags: stubBags{dim: dim}})
	done := make(chan error, 2)
	go func() {
		keys := make([]uint64, 512)
		dst := make([]float32, len(keys)*dim)
		for i := 0; i < 300; i++ {
			if err := cl.PullInto(0, keys, dst); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	go func() {
		for i := 0; i < 300; i++ {
			h, err := cl.PingInfo()
			if err == nil && (h.Epoch != 0 || !h.Serving) {
				err = errors.New("ping decoded another request's frame")
			}
			if err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
