package rpc

import (
	"bytes"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"net"
	"strings"
	"testing"

	"openembedding/internal/obs"
	"openembedding/internal/psengine"
)

// payloads holds the well-formed payload of every request type that carries
// one (dim 4); the header in front of it is the table's business.
var payloads = map[byte]func(*Buffer){
	MsgPull: func(b *Buffer) { b.PutKeys([]uint64{1, 2}) },
	MsgPush: func(b *Buffer) { b.PutKeys([]uint64{1, 2}); b.PutFloats(make([]float32, 8)) },
	MsgHello: func(b *Buffer) {
		b.PutI64(-1) // adopt the server's epoch
		b.PutI64(77) // client ID
	},
	MsgPullBag: func(b *Buffer) { b.PutU8(bagSum); b.PutU32s([]uint32{0, 2}); b.PutKeys([]uint64{1, 2}) },
	MsgMigrateRange: func(b *Buffer) {
		b.PutI64(0)  // resume cursor
		b.PutI64(16) // page size
		putIntervals(b, []HashInterval{{Lo: 0, Hi: 1 << 63}})
	},
	MsgAdoptRange: func(b *Buffer) { putMigEntries(b, []psengine.MigEntry{{Key: 1, Data: make([]float32, 4)}}) },
	MsgDropRange:  func(b *Buffer) { putIntervals(b, []HashInterval{{Lo: 0, Hi: 1 << 63}}) },
}

// wellFormed builds a request of type t the way a client does: the header
// the type's row asks for (a dedup row carries client 77 and seq), then its
// payload.
func wellFormed(t byte, seq int64) []byte {
	b := NewBuffer(t, 0)
	if msgTable[t].dedup {
		b.PutI64(77)
		b.PutI64(seq)
	}
	if put := payloads[t]; put != nil {
		put(b)
	}
	return b.Bytes()
}

// eachRow calls f with every request type that has a row in msgTable — the
// corpus the fuzzers and the never-panics test seed from.
func eachRow(f func(t byte, spec *msgSpec)) {
	for t := 0; t < 0x80; t++ {
		if spec := specOf(byte(t)); spec != nil {
			f(byte(t), spec)
		}
	}
}

// faulty is an engine, a Control and a BagServer in which everything that
// can fail fails with err.
type faulty struct {
	psengine.Engine
	err error
}

func (f faulty) Dim() int                                           { return 4 }
func (f faulty) Pull(int64, []uint64, []float32) error              { return f.err }
func (f faulty) Push(int64, []uint64, []float32) error              { return f.err }
func (f faulty) EndPullPhase(int64)                                 {}
func (f faulty) EndBatch(int64) error                               { return f.err }
func (f faulty) RequestCheckpoint(int64) error                      { return f.err }
func (f faulty) CompletedCheckpoint() int64                         { return -1 }
func (f faulty) WaitCheckpoints() error                             { return f.err }
func (f faulty) Stats() psengine.Stats                              { return psengine.Stats{} }
func (f faulty) Rollback(int64) error                               { return f.err }
func (f faulty) Scrub() (psengine.ScrubReport, error)               { return psengine.ScrubReport{}, f.err }
func (f faulty) AdoptRange([]psengine.MigEntry) error               { return f.err }
func (f faulty) DropRange([]HashInterval) (int, error)              { return 0, f.err }
func (f faulty) PullBags(bool, []uint32, []uint64, []float32) error { return f.err }
func (f faulty) MigrateRange(int64, uint64, int, []HashInterval) ([]psengine.MigEntry, bool, error) {
	return nil, false, f.err
}

// rotted is an engine error the way internal/pmem flags its corrupt and
// poisoned records.
type rotted struct{}

func (rotted) Error() string        { return "record checksum mismatch" }
func (rotted) IntegrityError() bool { return true }

// requestConsts parses protocol.go for the request constants: the names of
// the Msg block up to numMsgs, whose values count up from 1.
func requestConsts(t *testing.T) []string {
	t.Helper()
	file, err := parser.ParseFile(token.NewFileSet(), "protocol.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, decl := range file.Decls {
		gen, ok := decl.(*ast.GenDecl)
		if !ok || gen.Tok != token.CONST || len(gen.Specs) == 0 || gen.Specs[0].(*ast.ValueSpec).Names[0].Name != "MsgPull" {
			continue
		}
		var names []string
		for i, spec := range gen.Specs {
			vs := spec.(*ast.ValueSpec)
			if vs.Names[0].Name == "numMsgs" {
				return names
			}
			if len(vs.Names) != 1 || (i > 0 && len(vs.Values) != 0) {
				t.Fatalf("request constant %s does not continue the iota run", vs.Names[0].Name)
			}
			names = append(names, vs.Names[0].Name)
		}
	}
	t.Fatal("protocol.go: no const block running from MsgPull to numMsgs")
	return nil
}

// TestMessageTable: the table is the protocol. Every request constant has
// exactly one row, the rows say what the wire has done since the fence and the
// dedup cache exist, and the server does with a request what its row says.
func TestMessageTable(t *testing.T) {
	// What the protocol is, written down once more on purpose: flipping a
	// bit or renaming a request in the table must fail here.
	type row struct {
		name                   string
		fenced, dedup, control bool
	}
	want := map[string]row{
		"MsgPull":          {name: "pull", fenced: true},
		"MsgPush":          {name: "push", fenced: true, dedup: true},
		"MsgEndPullPhase":  {name: "end-pull-phase", fenced: true, dedup: true},
		"MsgEndBatch":      {name: "end-batch", fenced: true, dedup: true},
		"MsgCheckpoint":    {name: "checkpoint", fenced: true, dedup: true},
		"MsgCompletedCkpt": {name: "completed-checkpoint"},
		"MsgStats":         {name: "stats"},
		"MsgPing":          {name: "ping"},
		"MsgHello":         {name: "hello"},
		"MsgRollback":      {name: "rollback", control: true},
		"MsgScrub":         {name: "scrub", control: true},
		"MsgPullBag":       {name: "pull-bag"},
		"MsgMigrateRange":  {name: "migrate-range", control: true},
		"MsgAdoptRange":    {name: "adopt-range", control: true},
		"MsgDropRange":     {name: "drop-range", control: true},
	}
	consts := requestConsts(t)
	if len(consts) != numMsgs-1 || len(consts) != len(want) {
		t.Fatalf("%d request constants, %d table slots, %d rows expected", len(consts), numMsgs-1, len(want))
	}
	names := make(map[string]bool)
	for i, c := range consts {
		typ := byte(i + 1)
		spec := specOf(typ)
		if spec == nil || spec.name == "" || spec.serve == nil {
			t.Fatalf("%s (0x%02x) has no row with a name and a handler", c, typ)
		}
		if got := (row{spec.name, spec.fenced, spec.dedup, spec.control}); got != want[c] {
			t.Errorf("%s: row %+v, want %+v", c, got, want[c])
		}
		if spec.dedup && !spec.fenced {
			t.Errorf("%s: deduplicated but not fenced", c)
		}
		if names[spec.name] {
			t.Errorf("%s: name %q is taken", c, spec.name)
		}
		names[spec.name] = true
	}
	rows := 0
	eachRow(func(byte, *msgSpec) { rows++ })
	if rows != len(consts) {
		t.Fatalf("%d rows for %d request constants", rows, len(consts))
	}

	t.Run("answers", func(t *testing.T) {
		reg := obs.NewRegistry()
		srv, err := ServeOpts("127.0.0.1:0", &stubEngine{dim: 4},
			ServerOptions{Bags: &sumBags{dim: 4}, Control: stubControl{}, Obs: reg})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		eachRow(func(typ byte, spec *msgSpec) {
			if resp := srv.handle(wellFormed(typ, 1)); resp[0] != MsgOK && resp[0] != MsgData {
				_, err := DecodeResponse(resp)
				t.Errorf("%s: well-formed request answered %v", spec.name, err)
			}
			series := "rpc_server_" + strings.ReplaceAll(spec.name, "-", "_") + "_ns"
			if _, ok := reg.Snapshot().Histograms[series]; !ok {
				t.Errorf("%s: no latency series %s", spec.name, series)
			}
		})
		if n := len(reg.Snapshot().Histograms); n != rows {
			t.Errorf("%d server histograms for %d rows", n, rows)
		}
	})

	t.Run("unknown-type", func(t *testing.T) {
		reg := obs.NewRegistry() // with metrics on: such a frame has no series to land in
		srv, err := ServeOpts("127.0.0.1:0", testEngine(t), ServerOptions{Obs: reg})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		for _, typ := range []byte{0, byte(numMsgs), 0x7f} {
			if err := WriteFrame(conn, NewBuffer(typ, 0).Bytes()); err != nil {
				t.Fatal(err)
			}
			resp, err := ReadFrame(conn)
			if err != nil {
				t.Fatalf("type 0x%02x cost the connection: %v", typ, err)
			}
			if _, err := DecodeResponse(resp); err == nil || !strings.Contains(err.Error(), "unknown message type") {
				t.Fatalf("type 0x%02x answered %v, want unknown message type", typ, err)
			}
		}
		if err := WriteFrame(conn, wellFormed(MsgPing, 0)); err != nil {
			t.Fatal(err)
		}
		if resp, err := ReadFrame(conn); err != nil || resp[0] != MsgData {
			t.Fatalf("ping after the refusals: %x, %v", resp, err)
		}
		if got := reg.Snapshot().Counters["rpc_server_requests"]; got != 4 {
			t.Fatalf("rpc_server_requests = %d, want 4", got)
		}
	})

	t.Run("control", func(t *testing.T) {
		srv := bareServer(&stubEngine{dim: 4}, nil)
		eachRow(func(typ byte, spec *msgSpec) {
			_, err := DecodeResponse(srv.handle(wellFormed(typ, 1)))
			refused := err != nil && err.Error() == "rpc: remote: "+spec.name+" unsupported by this node"
			if refused != spec.control {
				t.Errorf("%s (control=%v) on a node without Control: %v", spec.name, spec.control, err)
			}
		})
	})

	t.Run("fence", func(t *testing.T) {
		srv := bareServer(&stubEngine{dim: 4}, &sumBags{dim: 4})
		srv.control = stubControl{}
		srv.SetEpoch(3)
		eachRow(func(typ byte, spec *msgSpec) {
			if typ == MsgHello {
				return // it moves the bound
			}
			for bound, fence := range map[int64]byte{-1: MsgErr, 2: MsgErrEpoch} {
				resp := srv.dispatch(&srvConn{bound: bound}, wellFormed(typ, 1))
				if fenced := resp[0] == fence; fenced != spec.fenced {
					t.Errorf("%s (fenced=%v) on a connection bound to %d answered 0x%02x", spec.name, spec.fenced, bound, resp[0])
				}
			}
		})
	})

	t.Run("dedup", func(t *testing.T) {
		eachRow(func(typ byte, spec *msgSpec) {
			eng := &stubEngine{dim: 4}
			srv := bareServer(eng, nil)
			cn := &srvConn{} // bound to the server's epoch, 0, as after a hello
			send := func(seq int64) []byte { return bytes.Clone(srv.dispatch(cn, wellFormed(typ, seq))) }
			first := send(2)
			if spec.dedup != (eng.mutations.Load() == 1) {
				t.Fatalf("%s (dedup=%v) ran %d mutations", spec.name, spec.dedup, eng.mutations.Load())
			}
			if !spec.dedup {
				return
			}
			if replay := send(2); !bytes.Equal(replay, first) || eng.mutations.Load() != 1 {
				t.Errorf("%s: retried sequence answered %x after %d runs, want the cached %x after 1", spec.name, replay, eng.mutations.Load(), first)
			}
			if _, err := DecodeResponse(send(1)); err == nil || !strings.Contains(err.Error(), "stale sequence 1") || eng.mutations.Load() != 1 {
				t.Errorf("%s: older sequence: %v after %d runs, want a stale-sequence refusal", spec.name, err, eng.mutations.Load())
			}
			if send(3); eng.mutations.Load() != 2 {
				t.Errorf("%s: the next sequence ran %d times in all, want 2", spec.name, eng.mutations.Load())
			}
		})
	})

	t.Run("errors", func(t *testing.T) {
		// Whatever fails behind a row — engine, Control or BagServer — an
		// integrity-flavoured error reaches the wire as MsgErrCorrupt.
		bad := faulty{err: rotted{}}
		srv := bareServer(bad, bad)
		srv.control = bad
		infallible := map[byte]bool{MsgEndPullPhase: true, MsgStats: true, MsgPing: true, MsgHello: true}
		eachRow(func(typ byte, spec *msgSpec) {
			resp := srv.handle(wellFormed(typ, 1))
			if _, err := DecodeResponse(resp); infallible[typ] != (err == nil) || (err != nil && !errors.Is(err, ErrRemoteCorrupt)) {
				t.Errorf("%s: a rotted backend answered 0x%02x (%v)", spec.name, resp[0], err)
			}
		})
	})
}

// TestCheckpointIntegrityErrorReachesClient: an engine whose
// RequestCheckpoint fails on a corrupt record surfaces client-side as
// ErrRemoteCorrupt naming the node — it used to be flattened into a plain
// remote error, the one handler that bypassed errResp.
func TestCheckpointIntegrityErrorReachesClient(t *testing.T) {
	srv, cl := stubServer(t, faulty{err: rotted{}}, ServerOptions{})
	err := cl.RequestCheckpoint(0)
	var ce *RemoteCorruptError
	if !errors.Is(err, ErrRemoteCorrupt) || !errors.As(err, &ce) || ce.Addr != srv.Addr() {
		t.Fatalf("checkpoint on a rotted engine: %v, want ErrRemoteCorrupt at %s", err, srv.Addr())
	}
	if err := cl.Ping(); err != nil {
		t.Fatalf("connection broken after the remote error: %v", err)
	}
}
