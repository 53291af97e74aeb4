package rpc

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"openembedding/internal/obs"
	"openembedding/internal/psengine"
)

// ServerOptions configures a Server.
type ServerOptions struct {
	// Epoch is the server's starting epoch. A node that recovers from a
	// crash restarts its server at a higher epoch, which fences every
	// client still synchronized to the old one.
	Epoch int64
	// Bags, when set, serves MsgPullBag (the serving tier's pooled
	// embedding-bag gather). Nil rejects bag requests with MsgErr; the
	// connection stays alive either way.
	Bags BagServer
	// Control, when set, serves the control-plane messages (rollback,
	// scrub, migration). Nil rejects each of them with MsgErr;
	// the connection stays alive either way.
	Control Control
	// Obs, when set, receives server metrics: one request-service
	// histogram per request type (rpc_server_<name>_ns with the table's
	// name, '-' as '_': rpc_server_pull_ns, rpc_server_pull_bag_ns, ...),
	// rpc_server_bytes_in/out, rpc_server_requests, the rpc_server_conns
	// gauge, and the fault-tolerance counters rpc_server_epoch_rejects and
	// rpc_server_dedup_hits.
	Obs *obs.Registry
}

// Control is the node behind a server's control-plane messages: the
// operations that swap, repair or re-home the engine's state rather than
// read or train it, and so need more than a psengine.Engine. ps.Node is the
// implementation; a bare engine on the wire has none.
type Control interface {
	// Rollback serves MsgRollback: roll the node's engine back to a
	// retained checkpoint.
	Rollback(target int64) error
	// Scrub serves MsgScrub: one full integrity pass over the node's
	// persisted records.
	Scrub() (psengine.ScrubReport, error)
	// MigrateRange serves MsgMigrateRange: export up to max entries of the
	// given hash intervals with dataVersion >= since and key >= from, in
	// ascending key order, with a more flag.
	MigrateRange(since int64, from uint64, max int, ivs []HashInterval) ([]psengine.MigEntry, bool, error)
	// AdoptRange serves MsgAdoptRange: install migrated entries, durably,
	// before replying. It may keep the entries.
	AdoptRange(entries []psengine.MigEntry) error
	// DropRange serves MsgDropRange: remove the intervals' keys from the
	// node's index, cache and durable records; it returns how many entries
	// went.
	DropRange(ivs []HashInterval) (int, error)
}

// dedupEntry caches one client's last mutating request outcome.
type dedupEntry struct {
	seq  int64
	resp []byte
}

// errNoHello answers a batch-protocol request on a connection that never
// said MsgHello: without a bound epoch there is nothing to fence it
// against. An application error — the connection stays up.
var errNoHello = errors.New("rpc: batch-protocol request before MsgHello")

// errNoBags answers MsgPullBag on a node without a serving tier.
var errNoBags = errors.New("bag serving unsupported by this node")

// Server exposes one storage engine (one shard) on a listener. Each accepted
// connection is served by its own goroutine, one request at a time; a
// worker that wants request parallelism opens several connections, as the
// paper's multi-threaded pull handlers do.
//
// Because a connection's loop is sequential it owns its scratch (srvConn)
// with no pool and no lock: the request frame, the keys / offsets /
// gradients decoded from it, the rows the engine or the BagServer fills and
// the response frame encoded from them are reused from request to request,
// so a steady-state Pull, Push or PullBag allocates nothing. The loan ends
// with the request: the engine and the BagServer keep none of the slices
// they are handed, control-plane handlers decode into fresh memory (what
// Adopt installs may be kept), and the dedup cache only ever
// holds the shared okBody or a freshly built error body — never a slice of
// a connection's response frame.
//
// The server carries an epoch: connections bind to it at the MsgHello
// handshake and batch-protocol requests from a connection bound to an
// older epoch are rejected with MsgErrEpoch (from one that never said
// Hello, with MsgErr). A recovered node bumps the epoch
// (ps.Node.Restart), so no stale client can mutate recovered state.
// Mutating requests are deduplicated by their client ID and sequence
// number: a retry of the last request replays the cached response.
type Server struct {
	engine  atomic.Pointer[psengine.Engine] // never nil; see SetEngine
	ln      net.Listener
	epoch   atomic.Int64
	bags    BagServer
	control Control

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
	closed bool

	dedupMu sync.Mutex
	dedup   map[int64]dedupEntry // client ID -> last mutating request

	// metrics (nil, and free, without ServerOptions.Obs)
	reg          *obs.Registry
	serveNS      [numMsgs]*obs.Histogram // by request type
	bytesIn      *obs.Counter
	bytesOut     *obs.Counter
	requests     *obs.Counter
	connsG       *obs.Gauge
	epochRejects *obs.Counter
	dedupHits    *obs.Counter
}

// Serve starts a server for engine on addr ("127.0.0.1:0" picks a free
// port). The returned server is already accepting.
func Serve(addr string, engine psengine.Engine) (*Server, error) {
	return ServeOpts(addr, engine, ServerOptions{})
}

// ServeOpts starts a server with explicit options on a TCP listener.
func ServeOpts(addr string, engine psengine.Engine, opts ServerOptions) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("rpc: listen: %w", err)
	}
	return ServeListener(ln, engine, opts), nil
}

// ServeListener starts a server on ln, which it owns from then on (Close
// closes it). Every connection the server answers comes from ln.Accept, so
// a listener that wraps its conns — with injected faults, say — or one of
// an in-memory network carries the whole server side.
func ServeListener(ln net.Listener, engine psengine.Engine, opts ServerOptions) *Server {
	s := &Server{
		ln:      ln,
		bags:    opts.Bags,
		control: opts.Control,
		conns:   make(map[net.Conn]struct{}),
		dedup:   make(map[int64]dedupEntry),
	}
	s.SetEngine(engine)
	s.epoch.Store(opts.Epoch)
	reg := opts.Obs // nil registry: nil, free metrics
	s.reg = reg
	for t, spec := range msgTable {
		if spec.serve != nil {
			s.serveNS[t] = reg.Histogram("rpc_server_" + strings.ReplaceAll(spec.name, "-", "_") + "_ns")
		}
	}
	s.bytesIn = reg.Counter("rpc_server_bytes_in")
	s.bytesOut = reg.Counter("rpc_server_bytes_out")
	s.requests = reg.Counter("rpc_server_requests")
	s.connsG = reg.Gauge("rpc_server_conns")
	s.epochRejects = reg.Counter("rpc_server_epoch_rejects")
	s.dedupHits = reg.Counter("rpc_server_dedup_hits")
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Epoch returns the server's current epoch.
func (s *Server) Epoch() int64 { return s.epoch.Load() }

// SetEpoch moves the server to a new epoch. Connections bound to the old
// epoch have their next fenced request rejected with MsgErrEpoch.
func (s *Server) SetEpoch(e int64) { s.epoch.Store(e) }

// SetEngine puts eng behind the server — the engine a rollback recovered,
// of the same dimension. Each request loads the engine once, so it is
// answered by one engine throughout; a request already inside the engine
// the caller closed before the swap answers psengine.ErrClosed. The caller
// moves the epoch (SetEpoch) after the swap, so no client bound to the new
// epoch meets the old engine.
func (s *Server) SetEngine(eng psengine.Engine) {
	s.engine.Store(&eng)
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// srvConn is one accepted connection's state: the epoch its MsgHello bound
// it to (negative before the handshake; server epochs never are), the
// scratch its requests are decoded into and answered from, and the request
// in flight. The request lives here rather than on dispatch's stack on
// purpose: it is handed to its handler through the table's func value, so a
// stack one would escape and cost every request an allocation.
type srvConn struct {
	bound int64
	sc    wireScratch
	req   request
}

// request is one request as parse read it and as its handler sees it.
type request struct {
	spec   *msgSpec
	batch  int64
	client int64    // dedup rows only: the client ID ...
	seq    int64    // ... and its sequence number
	r      Reader   // over the body, past the header: the payload
	cn     *srvConn // the connection: its scratch and, for hello, its bound epoch
}

// parse reads body's header — type, batch and, on a dedup row, client ID and
// sequence — into the connection's request, once: everything downstream
// works from the request and the payload reader it leaves behind.
func (cn *srvConn) parse(body []byte) (*request, error) {
	req := &cn.req
	*req = request{cn: cn, r: Reader{b: body}}
	t, err := req.r.Type()
	if err != nil {
		return nil, err
	}
	if req.batch, err = req.r.I64(); err != nil {
		return nil, err
	}
	if req.spec = specOf(t); req.spec == nil {
		return nil, refusef("unknown message type 0x%02x", t)
	}
	if req.spec.dedup {
		if req.client, err = req.r.I64(); err != nil {
			return nil, err
		}
		if req.seq, err = req.r.I64(); err != nil {
			return nil, err
		}
	}
	return req, nil
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	s.connsG.Add(1)
	defer func() {
		s.connsG.Add(-1)
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	br := bufio.NewReaderSize(conn, 1<<16)
	bw := bufio.NewWriterSize(conn, 1<<16)
	cn := &srvConn{bound: -1}
	for s.serveOne(cn, br, bw) == nil {
	}
}

// serveOne reads one request frame into the connection's scratch, answers
// it and lets go of scratch the request grew past maxScratch. An error —
// EOF or a broken connection — ends the connection's loop.
func (s *Server) serveOne(cn *srvConn, br *bufio.Reader, bw *bufio.Writer) error {
	body, err := readFrame(br, &cn.sc.hdr, cn.sc.in)
	if err != nil {
		return err
	}
	cn.sc.in = body
	var start time.Duration
	if s.reg != nil {
		start = s.reg.Now()
	}
	resp := s.dispatch(cn, body)
	if s.reg != nil {
		if cn.req.spec != nil { // a request the table knows: body[0] is its row
			s.serveNS[body[0]].Observe(s.reg.Now() - start)
		}
		s.requests.Add(1)
		s.bytesIn.Add(int64(len(body)) + frameHdrSize)
		s.bytesOut.Add(int64(len(resp)) + frameHdrSize)
	}
	if err := writeFrame(bw, &cn.sc.hdr, resp); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	cn.sc.trim()
	return nil
}

// dispatch answers one request body on its connection: parse, then what the
// request's row in msgTable asks for — the epoch fence, the dedup cache —
// then the row's handler.
func (s *Server) dispatch(cn *srvConn, body []byte) []byte {
	req, err := cn.parse(body)
	if err != nil {
		return ErrBody(err)
	}
	if req.spec.fenced {
		if cn.bound < 0 {
			return ErrBody(errNoHello)
		}
		if cur := s.epoch.Load(); cn.bound != cur {
			s.epochRejects.Add(1)
			return EpochErrBody(cur)
		}
	}
	if req.spec.dedup {
		return s.serveOnce(req)
	}
	return s.serve(req)
}

// serveOnce is serve behind the dedup cache: a retry of the client's last
// sequence is answered from the cache, an older one refused.
func (s *Server) serveOnce(req *request) []byte {
	s.dedupMu.Lock()
	last, ok := s.dedup[req.client]
	s.dedupMu.Unlock()
	if ok {
		if req.seq == last.seq {
			// Retry of the last request: the mutation already ran (or its
			// response was lost in flight after running); replay it.
			s.dedupHits.Add(1)
			return last.resp
		}
		if req.seq < last.seq {
			return ErrBody(refusef("stale sequence %d from client %d (last %d)",
				req.seq, req.client, last.seq))
		}
	}
	// The cached body outlives the request, so it must never be a slice of
	// the connection's scratch: dedup rows answer with the shared okBody or
	// a fresh error body, never from sc.out.
	resp := s.serve(req)
	s.dedupMu.Lock()
	s.dedup[req.client] = dedupEntry{seq: req.seq, resp: resp}
	s.dedupMu.Unlock()
	return resp
}

// serve runs the request's handler and encodes its outcome. It is the one
// error mapping: whatever a handler returns — a decode error, or the
// engine's, the Control's or the BagServer's — goes through errResp. The
// data-plane handlers decode into the connection's scratch and answer from
// it, so their response is only valid until the connection's next request.
func (s *Server) serve(req *request) []byte {
	if req.spec.control && s.control == nil {
		return ErrBody(refusef("%s unsupported by this node", req.spec.name))
	}
	resp, err := req.spec.serve(s, req)
	if err != nil {
		return errResp(err)
	}
	return resp
}

// handle answers one request body with no connection behind it — no
// fencing, no dedup, throw-away scratch — which is how tests and fuzzers
// exercise the handlers in process.
func (s *Server) handle(body []byte) []byte {
	req, err := new(srvConn).parse(body)
	if err != nil {
		return ErrBody(err)
	}
	return s.serve(req)
}

// eng returns the engine behind the server. A handler loads it once, so a
// request is answered by one engine throughout (see SetEngine).
func (s *Server) eng() psengine.Engine { return *s.engine.Load() }

// i64Resp encodes a MsgData response carrying one int64.
func i64Resp(v int64) []byte {
	out := &Buffer{b: []byte{MsgData}}
	out.PutI64(v)
	return out.Bytes()
}

// fieldsResp encodes a MsgData response carrying consecutive int64s — the
// counterpart of readFields.
func fieldsResp(fields []*int64) []byte {
	out := &Buffer{b: []byte{MsgData}}
	for _, f := range fields {
		out.PutI64(*f)
	}
	return out.Bytes()
}

// errTooLarge refuses a request whose answer would not fit a frame —
// before executing it, and as an application error: writing the oversized
// response would fail and cost the client its connection (and three
// retries of the same doomed request).
func errTooLarge(floats int) error {
	return refusef("rpc: response of %d floats exceeds the frame limit", floats)
}

// floatsResp encodes the data-plane response — MsgData and sc.vals as one
// float list — in the connection's response frame.
func floatsResp(sc *wireScratch) []byte {
	sc.out.reset(MsgData)
	sc.out.PutFloats(sc.vals)
	return sc.out.b
}

// The handlers, one per row of msgTable. Each is handed the parsed request
// (type, batch and any client ID / sequence already consumed) and returns the
// response body or the error serve encodes.

// serveHello binds the connection to an epoch and replies with the server's
// current one. A client epoch < 0 adopts the current epoch. The client ID
// that follows it is informational.
func (s *Server) serveHello(req *request) ([]byte, error) {
	clientEpoch, err := req.r.I64()
	if err != nil {
		return nil, err
	}
	if _, err := req.r.I64(); err != nil {
		return nil, err
	}
	cur := s.epoch.Load()
	if clientEpoch < 0 {
		clientEpoch = cur
	}
	req.cn.bound = clientEpoch
	return i64Resp(cur), nil
}

// servePull answers from the connection's scratch: keys decoded into it,
// rows pulled into it and the response encoded from it.
//
// oevet:hotpath
func (s *Server) servePull(req *request) (_ []byte, err error) {
	eng, sc := s.eng(), &req.cn.sc
	if sc.keys, err = req.r.KeysInto(sc.keys); err != nil {
		return nil, err
	}
	n := len(sc.keys) * eng.Dim()
	if 1+4+4*n > MaxFrame {
		return nil, errTooLarge(n)
	}
	sc.vals = fit(sc.vals, n)
	if err := eng.Pull(req.batch, sc.keys, sc.vals); err != nil {
		return nil, err
	}
	return floatsResp(sc), nil
}

// servePush hands the engine the connection's scratch: it must keep
// neither keys nor grads.
//
// oevet:hotpath
func (s *Server) servePush(req *request) (_ []byte, err error) {
	sc := &req.cn.sc
	if sc.keys, err = req.r.KeysInto(sc.keys); err != nil {
		return nil, err
	}
	if sc.vals, err = req.r.FloatsInto(sc.vals); err != nil {
		return nil, err
	}
	return okBody, s.eng().Push(req.batch, sc.keys, sc.vals)
}

func (s *Server) serveEndPullPhase(req *request) ([]byte, error) {
	s.eng().EndPullPhase(req.batch)
	return okBody, nil
}

func (s *Server) serveEndBatch(req *request) ([]byte, error) {
	return okBody, s.eng().EndBatch(req.batch)
}

func (s *Server) serveCheckpoint(req *request) ([]byte, error) {
	return okBody, s.eng().RequestCheckpoint(req.batch)
}

// serveCompletedCkpt waits for every checkpoint the node has queued, then
// reports its durable progress: one read answers "is batch b durable?",
// even when no more batches are coming to finish it.
func (s *Server) serveCompletedCkpt(*request) ([]byte, error) {
	eng := s.eng()
	if err := eng.WaitCheckpoints(); err != nil {
		return nil, err
	}
	return i64Resp(eng.CompletedCheckpoint()), nil
}

func (s *Server) serveStats(*request) ([]byte, error) {
	st := s.eng().Stats()
	return fieldsResp(statsFields(&st)), nil
}

// servePing answers the health probe with the node's epoch and whether it
// serves bag reads; Ping ignores the payload, PingInfo decodes it.
func (s *Server) servePing(*request) ([]byte, error) {
	out := &Buffer{b: []byte{MsgData}}
	out.PutI64(s.epoch.Load())
	out.PutBool(s.bags != nil)
	return out.Bytes(), nil
}

// servePullBag refuses malformed bags — bad pooling mode, truncated or
// inconsistent offsets, offsets past the end of the key list — with MsgErr;
// the connection stays alive (serveConn only drops a connection on transport
// failure, never on an application error).
//
// oevet:hotpath
func (s *Server) servePullBag(req *request) (_ []byte, err error) {
	if s.bags == nil {
		return nil, errNoBags
	}
	sc := &req.cn.sc
	mode, err := req.r.U8()
	if err != nil {
		return nil, err
	}
	if mode > bagMean {
		return nil, refusef("rpc: bad pooling mode %d", mode)
	}
	if sc.offs, err = req.r.U32sInto(sc.offs); err != nil {
		return nil, err
	}
	if sc.keys, err = req.r.KeysInto(sc.keys); err != nil {
		return nil, err
	}
	if err := ValidateBagOffsets(sc.offs, len(sc.keys)); err != nil {
		return nil, err
	}
	n := (len(sc.offs) - 1) * s.bags.Dim()
	if 1+4+4*n > MaxFrame {
		return nil, errTooLarge(n)
	}
	sc.vals = fit(sc.vals, n)
	if err := s.bags.PullBags(mode == bagMean, sc.offs, sc.keys, sc.vals); err != nil {
		return nil, err
	}
	return floatsResp(sc), nil
}

// The control-plane handlers decode into fresh memory: what AdoptRange
// installs may be kept.

func (s *Server) serveRollback(req *request) ([]byte, error) {
	return okBody, s.control.Rollback(req.batch)
}

func (s *Server) serveScrub(*request) ([]byte, error) {
	rep, err := s.control.Scrub()
	if err != nil {
		return nil, err
	}
	return fieldsResp(scrubFields(&rep)), nil
}

// serveMigrateRange exports one page; the batch field carries the delta
// floor (since).
func (s *Server) serveMigrateRange(req *request) ([]byte, error) {
	from, err := req.r.I64()
	if err != nil {
		return nil, err
	}
	max, err := req.r.I64()
	if err != nil {
		return nil, err
	}
	ivs, err := readIntervals(&req.r)
	if err != nil {
		return nil, err
	}
	entries, more, err := s.control.MigrateRange(req.batch, uint64(from), int(max), ivs)
	if err != nil {
		return nil, err
	}
	size := 1 + 1 + 8
	for _, me := range entries {
		size += 8 + 8 + 4 + 4*len(me.Data)
	}
	if size > MaxFrame {
		return nil, fmt.Errorf("rpc: migration page of %d entries is %d bytes, over the frame limit: ask for fewer than %d",
			len(entries), size, max)
	}
	out := &Buffer{b: make([]byte, 0, size)}
	out.reset(MsgData)
	out.PutBool(more)
	putMigEntries(out, entries)
	return out.Bytes(), nil
}

func (s *Server) serveAdoptRange(req *request) ([]byte, error) {
	entries, err := readMigEntries(&req.r)
	if err != nil {
		return nil, err
	}
	return okBody, s.control.AdoptRange(entries)
}

func (s *Server) serveDropRange(req *request) ([]byte, error) {
	ivs, err := readIntervals(&req.r)
	if err != nil {
		return nil, err
	}
	n, err := s.control.DropRange(ivs)
	if err != nil {
		return nil, err
	}
	return i64Resp(int64(n)), nil
}

// Close stops accepting, closes live connections and waits for handlers.
// The engine is not closed; the caller owns it.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

// errResp encodes an engine failure, distinguishing typed data-integrity
// errors (anything whose chain exposes IntegrityError() bool — the pmem
// package's corrupt/poisoned errors, without importing it here) so clients
// see MsgErrCorrupt instead of a generic MsgErr.
func errResp(err error) []byte {
	var ie interface{ IntegrityError() bool }
	if errors.As(err, &ie) && ie.IntegrityError() {
		return CorruptErrBody(err)
	}
	return ErrBody(err)
}

// scrubFields lists a scrub report's counters in wire order — the one
// list the MsgScrub encoder and decoder both walk.
func scrubFields(rep *psengine.ScrubReport) []*int64 {
	return []*int64{&rep.Scanned, &rep.Corrupt, &rep.Repaired,
		&rep.Restored, &rep.Fenced, &rep.Quarantined}
}

// statsFields lists the engine counters in wire order, as scrubFields does
// for MsgStats.
func statsFields(st *psengine.Stats) []*int64 {
	return []*int64{&st.Entries, &st.CachedEntries, &st.Hits, &st.Misses,
		&st.PMemReads, &st.PMemWrites, &st.Evictions, &st.CheckpointsDone}
}

// readFields fills fields from consecutive int64s.
func readFields(r *Reader, fields []*int64) (err error) {
	for _, f := range fields {
		if *f, err = r.I64(); err != nil {
			return err
		}
	}
	return nil
}

// DecodeScrubReport parses a MsgScrub response payload.
func DecodeScrubReport(r *Reader) (rep psengine.ScrubReport, err error) {
	err = readFields(r, scrubFields(&rep))
	return rep, err
}

// DecodeStats parses a MsgStats response payload.
func DecodeStats(r *Reader) (st psengine.Stats, err error) {
	err = readFields(r, statsFields(&st))
	return st, err
}
