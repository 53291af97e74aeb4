package rpc

import (
	"bufio"
	"bytes"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"sync"
	"time"

	"openembedding/internal/obs"
	"openembedding/internal/psengine"
)

// DefaultTimeout is the dial, per-request write and per-request read
// deadline when Options.Timeout is zero. A hung or partitioned server
// therefore turns into an error instead of blocking a cluster fan-out
// forever.
const DefaultTimeout = 30 * time.Second

// The backoff before a request's retry a (a >= 1) is retryBackoff doubled
// a-1 times and capped at maxRetryBackoff, times a jitter in [0.5, 1.5).
const (
	retryBackoff    = 2 * time.Millisecond
	maxRetryBackoff = 250 * time.Millisecond
)

// Options configures a Client.
type Options struct {
	// Timeout bounds connection establishment, each request's write+flush,
	// and each request's response wait measured from when the request hit
	// the wire. Defaults to DefaultTimeout.
	Timeout time.Duration
	// Dial opens every connection the client uses, the first and each
	// redial: net.DialTimeout("tcp", addr, Timeout) when nil. A dialer that
	// injects faults or reaches an in-memory network goes here; its errors
	// are classified like TCP's (a net.Error timeout is a *TimeoutError,
	// anything else a *TransportError).
	Dial func(addr string) (net.Conn, error)
	// MaxAttempts is the total tries of a request (AdoptEpoch's handshake
	// is one) that fails on the transport, the first included; a broken
	// connection is always redialed, this only says how often one request
	// is re-sent. Defaults to 3; 1 means a request is tried once and its
	// transport error surfaces (oectl), with the connection still redialed
	// by the next request. Remote application errors and epoch fences are
	// never retried. Between tries the client backs off 2 ms, doubling up
	// to 250 ms, jittered by a xorshift stream keyed by the dialed address.
	MaxAttempts int
	// Obs, when set, receives client metrics: rpc_client_rtt_ns,
	// rpc_client_bytes_out/in, rpc_client_inflight, rpc_client_timeouts,
	// rpc_client_retries, rpc_client_redials.
	Obs *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.Timeout <= 0 {
		o.Timeout = DefaultTimeout
	}
	if o.Dial == nil {
		timeout := o.Timeout
		o.Dial = func(addr string) (net.Conn, error) { return net.DialTimeout("tcp", addr, timeout) }
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	return o
}

// ErrTimeout matches (via errors.Is) every request that failed on an I/O
// deadline.
var ErrTimeout = errors.New("rpc: request timed out")

// TimeoutError is the typed error for a request that hit a deadline.
type TimeoutError struct {
	Addr  string        // server address
	Op    string        // request kind ("pull", "push", ...)
	After time.Duration // the deadline that expired
}

// Error implements error.
func (e *TimeoutError) Error() string {
	return fmt.Sprintf("rpc: %s to %s timed out after %v", e.Op, e.Addr, e.After)
}

// Is reports true for ErrTimeout targets so errors.Is(err, rpc.ErrTimeout)
// works without unwrapping to the concrete type.
func (e *TimeoutError) Is(target error) bool { return target == ErrTimeout }

// Timeout implements the net.Error convention.
func (e *TimeoutError) Timeout() bool { return true }

// newClientID draws the dedup key mutating requests carry: 63 random bits,
// so clients in different worker processes cannot present the same ID to a
// server (a per-process counter would — and one client's sequence numbers
// would then shadow the other's in the server's dedup cache).
func newClientID() (int64, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return 0, fmt.Errorf("rpc: drawing a client ID: %w", err)
	}
	return int64(binary.LittleEndian.Uint64(b[:]) >> 1), nil
}

// Client is a connection to one parameter-server node. A Client serializes
// its requests — mu is held across the whole round trip, so exactly one
// request is in flight per connection; workers that want parallelism
// across shards hold one Client per node (as internal/cluster does).
//
// That one-in-flight rule is what the connection's scratch (sc) rests on:
// a data-plane request (Pull, Push, PullBags) is encoded into sc.out, its
// response frame is read into sc.in, and the rows are decoded from there
// into the caller's memory, all under mu, so a steady-state request
// allocates nothing. No slice of sc leaves mu: the Into methods copy out
// into dst, the allocating Pull/PullBags into a fresh slice, and
// control-plane requests (do) decode from their own copy of the frame.
// Scratch one oversized frame grew past maxScratch is dropped when the
// request ends.
//
// Any I/O failure — including a timeout — breaks the current connection:
// the request/response framing may be desynchronized (a late response could
// answer the wrong request), so the client closes the socket. A broken
// connection is redialed — by the failing request (up to
// Options.MaxAttempts tries, with capped exponential backoff and jitter)
// and on demand by later requests. Every connection starts with the MsgHello epoch
// handshake: if the server's epoch moved (it crashed+recovered or rolled
// back), the client is *fenced* — batch-protocol requests fail with a typed
// *EpochError until AdoptEpoch re-synchronizes — so a stale client can
// never keep pushing into a recovered node. Mutating requests carry a
// client-assigned sequence number; the server replays its cached response
// for a retried sequence, making retries at-most-once.
type Client struct {
	addr string
	opts Options
	id   int64 // collision-free client ID for server-side dedup

	mu   sync.Mutex  // serializes requests; guards all fields below
	sc   wireScratch // frames of the request in flight; see the Client doc
	br   *bufio.Reader
	bw   *bufio.Writer
	err  error // last I/O failure; conn is broken while non-nil
	seq  int64 // sequence of the last mutating request
	rng  uint64
	ever bool  // a connection has been established at least once
	ep   int64 // epoch adopted at the first handshake (-1 before)
	se   int64 // server epoch observed most recently

	// connMu guards conn and closed; Close takes it without mu so it can
	// interrupt an in-flight request, and connect installs new conns under
	// it so a racing Close can never leak one.
	connMu sync.Mutex
	conn   net.Conn
	closed bool

	// metrics (nil, and free, without Options.Obs)
	rtt      *obs.Histogram
	bytesIn  *obs.Counter
	bytesOut *obs.Counter
	inflight *obs.Gauge
	timeouts *obs.Counter
	retries  *obs.Counter
	redials  *obs.Counter
}

// Dial connects over TCP with default options (30s deadlines, three
// attempts per request).
func Dial(addr string) (*Client, error) { return DialOpts(addr, Options{}) }

// DialOpts connects to a server with explicit options. A transient failure
// of the first connect (refused, reset, timed out) is not an error here: it
// is healed by the first request's redial exactly like a mid-run
// disconnect, and surfaces there if the server stays away. Permanent errors
// — a server that rejects the handshake — fail the dial.
func DialOpts(addr string, opts Options) (*Client, error) {
	opts = opts.withDefaults()
	id, err := newClientID()
	if err != nil {
		return nil, err
	}
	c := &Client{
		addr: addr,
		opts: opts,
		id:   id,
		ep:   -1,
		se:   -1,
	}
	// The jitter stream is a function of the address only, never of the
	// random client ID. xorshift needs a non-zero state.
	h := fnv.New64a()
	h.Write([]byte(addr))
	if c.rng = h.Sum64(); c.rng == 0 {
		c.rng = 0x9e3779b97f4a7c15
	}
	reg := opts.Obs // nil registry: nil, free metrics
	c.rtt = reg.Histogram("rpc_client_rtt_ns")
	c.bytesIn = reg.Counter("rpc_client_bytes_in")
	c.bytesOut = reg.Counter("rpc_client_bytes_out")
	c.inflight = reg.Gauge("rpc_client_inflight")
	c.timeouts = reg.Counter("rpc_client_timeouts")
	c.retries = reg.Counter("rpc_client_retries")
	c.redials = reg.Counter("rpc_client_redials")
	if err := c.connect(); err != nil && !IsRetryable(err) {
		return nil, err
	}
	return c, nil
}

// Addr returns the server address this client dialed.
func (c *Client) Addr() string { return c.addr }

// Epoch returns the server epoch this client is synchronized to, or -1
// before the first handshake completed.
func (c *Client) Epoch() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ep
}

// wireErr types an I/O failure of op, a dial's included: a deadline expiry
// (a net.Error whose Timeout is true) as *TimeoutError, anything else as
// *TransportError.
func (c *Client) wireErr(op string, err error) error {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return &TimeoutError{Addr: c.addr, Op: op, After: c.opts.Timeout}
	}
	return &TransportError{Addr: c.addr, Op: op, Err: err}
}

// connect dials, installs the connection (unless Close won the race) and
// runs the epoch handshake. Caller holds c.mu.
//
// oevet:coldpath a connection is dialed once, and again only after it broke
func (c *Client) connect() error {
	conn, err := c.opts.Dial(c.addr)
	if err != nil {
		return c.wireErr("dial", err)
	}
	c.connMu.Lock()
	if c.closed {
		c.connMu.Unlock()
		conn.Close()
		return ErrClientClosed
	}
	c.conn = conn
	c.connMu.Unlock()
	c.br = bufio.NewReaderSize(conn, 1<<16)
	c.bw = bufio.NewWriterSize(conn, 1<<16)
	c.err = nil
	if c.ever {
		c.redials.Add(1)
	}
	c.ever = true
	resp, err := c.roundTrip("hello", c.helloFrame())
	if err != nil {
		return err
	}
	return c.learnEpoch(resp)
}

// helloFrame is the epoch handshake every connection opens with: it
// announces the client's known epoch (-1 adopts the server's) and its ID.
func (c *Client) helloFrame() []byte {
	b := NewBuffer(MsgHello, 0)
	b.PutI64(c.ep)
	b.PutI64(c.id)
	return b.Bytes()
}

// learnEpoch reads the server's epoch off a hello reply frame; a client at
// epoch -1 adopts it. Caller holds c.mu.
func (c *Client) learnEpoch(resp []byte) error {
	r, err := DecodeResponse(resp)
	if err != nil {
		return err
	}
	se, err := r.I64()
	if err != nil {
		return err
	}
	c.se = se
	if c.ep < 0 {
		c.ep = se
	}
	return nil
}

// AdoptEpoch re-synchronizes a fenced client: it re-handshakes, as one more
// request on the Options.MaxAttempts ladder, and adopts the server's current
// epoch. The cluster recovery protocol calls it after a rollback; adopting
// an epoch without rolling back would silently ride across a recovery, so
// nothing else does.
func (c *Client) AdoptEpoch() (int64, error) {
	c.mu.Lock()
	defer c.release()
	c.ep = -1
	_, err := c.doLocked(c.helloFrame())
	if err == nil {
		err = c.learnEpoch(c.sc.in)
	}
	return c.ep, err
}

// ensureConn redials a broken (or never established) connection. Caller
// holds c.mu.
func (c *Client) ensureConn() error {
	c.connMu.Lock()
	closed := c.closed
	c.connMu.Unlock()
	if closed {
		return ErrClientClosed
	}
	if c.err == nil && c.ever {
		return nil
	}
	return c.connect()
}

// fail marks the connection broken with the request's error, typed by
// wireErr. Caller holds c.mu.
//
// oevet:coldpath a request that broke its connection is not the steady state
func (c *Client) fail(op string, err error) error {
	err = c.wireErr(op, err)
	if errors.Is(err, ErrTimeout) {
		c.timeouts.Add(1)
	}
	c.err = err
	c.connMu.Lock()
	if c.conn != nil {
		c.conn.Close()
	}
	c.connMu.Unlock()
	return err
}

// roundTrip writes one frame and reads the response frame, into the
// connection's scratch, on the current connection. Caller holds c.mu and
// has ensured a connection.
func (c *Client) roundTrip(op string, body []byte) ([]byte, error) {
	start := c.opts.Obs.Now()
	c.conn.SetWriteDeadline(time.Now().Add(c.opts.Timeout))
	if err := writeFrame(c.bw, &c.sc.hdr, body); err != nil {
		return nil, c.fail(op, err)
	}
	if err := c.bw.Flush(); err != nil {
		return nil, c.fail(op, err)
	}
	c.conn.SetReadDeadline(time.Now().Add(c.opts.Timeout))
	resp, err := readFrame(c.br, &c.sc.hdr, c.sc.in)
	if err != nil {
		return nil, c.fail(op, err)
	}
	c.sc.in = resp
	c.bytesOut.Add(int64(len(body)) + frameHdrSize)
	c.bytesIn.Add(int64(len(resp)) + frameHdrSize)
	c.rtt.Observe(c.opts.Obs.Now() - start)
	return resp, nil
}

// IsRetryable reports whether a failed attempt may be retried: transport
// failures and timeouts only — never remote application errors or epoch
// fences. It is also what the cluster client's node health counts as a
// failed exchange.
func IsRetryable(err error) bool {
	return errors.Is(err, ErrUnavailable) || errors.Is(err, ErrTimeout)
}

// backoff returns the jittered exponential delay before retry attempt a
// (a >= 1). The doubling stops at the cap, so no attempt count overflows
// it. The jitter stream is the client's own, never global math/rand.
func (c *Client) backoff(a int) time.Duration {
	d := retryBackoff
	for i := 1; i < a && d < maxRetryBackoff; i++ {
		d *= 2
	}
	d = min(d, maxRetryBackoff)
	// xorshift step of the client's stream; jitter in [0.5, 1.5).
	c.rng ^= c.rng << 13
	c.rng ^= c.rng >> 7
	c.rng ^= c.rng << 17
	frac := float64(c.rng>>11) / float64(1<<53)
	return time.Duration(float64(d) * (0.5 + frac))
}

// release ends a request: scratch that one oversized frame grew is let go,
// then the connection is handed to the next caller.
func (c *Client) release() {
	c.sc.trim()
	c.mu.Unlock()
}

// do sends one control-plane request body and returns a reader over the
// caller's own copy of the response — the frame itself lives in scratch
// the next request overwrites, and the caller decodes after mu is gone.
// body[0] is the message type (set by NewBuffer).
func (c *Client) do(body []byte) (*Reader, error) {
	c.mu.Lock()
	defer c.release()
	r, err := c.doLocked(body)
	if err != nil {
		return nil, err
	}
	return NewReader(bytes.Clone(r.b[r.off:])), nil
}

// doLocked runs the request with redial + bounded retry and returns a
// reader over the response frame in c.sc.in, valid until the next request.
// body[0] is a request type of msgTable: every caller builds its body with
// one of the Msg constants. Caller holds c.mu.
func (c *Client) doLocked(body []byte) (Reader, error) {
	spec := &msgTable[body[0]]
	c.inflight.Add(1)
	defer c.inflight.Add(-1)
	var lastErr error
	for a := 0; a < c.opts.MaxAttempts; a++ {
		if a > 0 {
			c.retries.Add(1)
			time.Sleep(c.backoff(a))
		}
		dialed := c.err != nil || !c.ever
		if err := c.ensureConn(); err != nil {
			lastErr = err
			if !IsRetryable(err) {
				return Reader{}, err
			}
			continue
		}
		// Client-side fence: a redial that found the server at a newer
		// epoch leaves this client fenced until AdoptEpoch. Failing here
		// (rather than on the wire) keeps the error crisp even when the
		// server is mid-recovery.
		if c.ep >= 0 && c.se != c.ep && spec.fenced {
			return Reader{}, &EpochError{Addr: c.addr, ClientEpoch: c.ep, ServerEpoch: c.se} //oevet:alloc-ok a fenced client stops training until it recovers
		}
		// A hello the redial's handshake just carried is answered by its reply, not sent twice.
		resp, err := c.sc.in, error(nil)
		if body[0] != MsgHello || !dialed {
			resp, err = c.roundTrip(spec.name, body)
		}
		if err != nil {
			lastErr = err
			if !IsRetryable(err) {
				return Reader{}, err
			}
			continue
		}
		r, err := decodeResponse(resp, c.addr, c.ep)
		if err != nil {
			// Server-side fence: record the newer epoch, so the next fenced
			// request fails here instead of on the wire.
			var ee *EpochError
			if errors.As(err, &ee) {
				c.se = ee.ServerEpoch
			}
			return Reader{}, err
		}
		return r, nil
	}
	return Reader{}, lastErr
}

// startMutating opens a mutating request in the connection's request
// frame: the body carries, directly after the batch ID, the client ID and
// the next sequence number (never 0); the caller appends the payload.
// Retried attempts re-send the same frame, hence the same sequence, which
// is what lets the server dedup replays. Caller holds c.mu.
func (c *Client) startMutating(msg byte, batch int64) *Buffer {
	c.seq++
	b := &c.sc.out
	b.Reset(msg, batch)
	b.PutI64(c.id)
	b.PutI64(c.seq)
	return b
}

// doMutating runs one payload-free mutating request.
func (c *Client) doMutating(msg byte, batch int64) error {
	c.mu.Lock()
	defer c.release()
	_, err := c.doLocked(c.startMutating(msg, batch).b)
	return err
}

// pull is the one Pull implementation: the rows are decoded, under mu,
// into dst's array when they fit it (a fresh slice otherwise).
//
// oevet:hotpath
func (c *Client) pull(batch int64, keys []uint64, dst []float32) ([]float32, error) {
	c.mu.Lock()
	defer c.release()
	b := &c.sc.out
	b.Reset(MsgPull, batch)
	b.PutKeys(keys)
	r, err := c.doLocked(b.b)
	if err != nil {
		return nil, err
	}
	return r.FloatsInto(dst)
}

// Pull fetches weights for keys (len(keys)*dim floats) into a fresh slice.
// Pull is idempotent, so it needs no sequence number under retries.
func (c *Client) Pull(batch int64, keys []uint64) ([]float32, error) {
	return c.pull(batch, keys, nil)
}

// PullInto is Pull straight into the caller's memory: dst must be exactly
// the len(keys)*dim floats the server answers with.
func (c *Client) PullInto(batch int64, keys []uint64, dst []float32) error {
	got, err := c.pull(batch, keys, dst[:0:len(dst)])
	return filled(got, dst, err)
}

// filled checks the answer to an Into call: got was decoded into dst's
// array only if the server sent exactly the floats dst holds.
func filled(got, dst []float32, err error) error {
	if err == nil && len(got) != len(dst) {
		return fmt.Errorf("rpc: response carries %d floats, want %d", len(got), len(dst))
	}
	return err
}

// Push sends gradients for keys. The request carries the client ID and a
// sequence number so a retried push is applied at most once.
//
// oevet:hotpath
func (c *Client) Push(batch int64, keys []uint64, grads []float32) error {
	c.mu.Lock()
	defer c.release()
	b := c.startMutating(MsgPush, batch)
	b.PutKeys(keys)
	b.PutFloats(grads)
	_, err := c.doLocked(b.b)
	return err
}

// EndPullPhase signals pull completion for batch.
func (c *Client) EndPullPhase(batch int64) error {
	return c.doMutating(MsgEndPullPhase, batch)
}

// EndBatch seals batch.
func (c *Client) EndBatch(batch int64) error {
	return c.doMutating(MsgEndBatch, batch)
}

// RequestCheckpoint asks the node to checkpoint batch.
func (c *Client) RequestCheckpoint(batch int64) error {
	return c.doMutating(MsgCheckpoint, batch)
}

// CompletedCheckpoint reads the node's durable checkpoint progress after
// the node has finished every checkpoint it had queued.
func (c *Client) CompletedCheckpoint() (int64, error) {
	r, err := c.do(NewBuffer(MsgCompletedCkpt, 0).Bytes())
	if err != nil {
		return 0, err
	}
	return r.I64()
}

// Rollback asks the node to roll its engine back to the given checkpoint
// (exempt from epoch fencing — it is the recovery path). Idempotent, so
// safe under retries without a sequence number.
func (c *Client) Rollback(target int64) error {
	_, err := c.do(NewBuffer(MsgRollback, target).Bytes())
	return err
}

// Scrub asks the node to run one full integrity pass over its persisted
// records and returns the report (exempt from epoch fencing — it is a
// repair operation). Idempotent in effect: a re-run re-verifies already
// healed records.
func (c *Client) Scrub() (psengine.ScrubReport, error) {
	r, err := c.do(NewBuffer(MsgScrub, 0).Bytes())
	if err != nil {
		return psengine.ScrubReport{}, err
	}
	return DecodeScrubReport(r)
}

// Stats fetches the node's counters.
func (c *Client) Stats() (psengine.Stats, error) {
	r, err := c.do(NewBuffer(MsgStats, 0).Bytes())
	if err != nil {
		return psengine.Stats{}, err
	}
	return DecodeStats(r)
}

// Ping round-trips an empty request.
func (c *Client) Ping() error {
	_, err := c.do(NewBuffer(MsgPing, 0).Bytes())
	return err
}

// NodeHealth is what a ping learns about a node: its current epoch,
// whether it serves bag reads, and the measured round-trip time.
type NodeHealth struct {
	Epoch   int64
	Serving bool
	RTT     time.Duration
}

// PingInfo round-trips a health probe and decodes the node's epoch and
// serving status (exempt from epoch fencing, like Ping — it is how
// operators observe a node).
func (c *Client) PingInfo() (NodeHealth, error) {
	start := time.Now()
	r, err := c.do(NewBuffer(MsgPing, 0).Bytes())
	if err != nil {
		return NodeHealth{}, err
	}
	rtt := time.Since(start)
	epoch, err := r.I64()
	if err != nil {
		return NodeHealth{}, err
	}
	serving, err := r.U8()
	if err != nil {
		return NodeHealth{}, err
	}
	return NodeHealth{Epoch: epoch, Serving: serving == 1, RTT: rtt}, nil
}

// MigrateRange exports up to max entries of the given hash intervals with
// dataVersion >= since and key >= from, in ascending key order; more
// reports whether the range continues past the page, whose next page
// starts one past its last key. Idempotent (a read), so safe under
// retries.
func (c *Client) MigrateRange(since int64, from uint64, max int, ivs []HashInterval) ([]psengine.MigEntry, bool, error) {
	b := NewBuffer(MsgMigrateRange, since)
	b.PutI64(int64(from))
	b.PutI64(int64(max))
	putIntervals(b, ivs)
	r, err := c.do(b.Bytes())
	if err != nil {
		return nil, false, err
	}
	moreB, err := r.U8()
	if err != nil {
		return nil, false, err
	}
	entries, err := readMigEntries(r)
	if err != nil {
		return nil, false, err
	}
	return entries, moreB == 1, nil
}

// AdoptRange installs migrated entries on the node; they are durable when
// the call returns. Idempotent — adopting the same entries twice converges
// — so safe under retries.
func (c *Client) AdoptRange(entries []psengine.MigEntry) error {
	b := NewBuffer(MsgAdoptRange, 0)
	putMigEntries(b, entries)
	_, err := c.do(b.Bytes())
	return err
}

// DropRange removes the intervals' keys from the node — index, cache and
// durable records — returning how many entries were dropped. Idempotent,
// so safe under retries.
func (c *Client) DropRange(ivs []HashInterval) (int64, error) {
	b := NewBuffer(MsgDropRange, 0)
	putIntervals(b, ivs)
	r, err := c.do(b.Bytes())
	if err != nil {
		return 0, err
	}
	return r.I64()
}

// Close closes the connection. A redial racing with Close observes the
// closed flag and discards its fresh connection, so Close is final: no
// socket survives it.
func (c *Client) Close() error {
	c.connMu.Lock()
	defer c.connMu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	if c.conn == nil {
		return nil
	}
	if err := c.conn.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
		return err
	}
	return nil
}
