// Package rpc implements the wire protocol between training workers and
// parameter-server nodes: length-prefixed binary frames over TCP (the
// paper's deployment uses RDMA with a low-overhead RPC; TCP via net is the
// portable stand-in, with the network's virtual cost modeled separately by
// the simulator).
//
// The connection is the package's one seam with the network: a Client dials
// through Options.Dial and a Server answers what its listener accepts
// (ServeListener), both TCP by default. Anything that is not TCP — a
// fault-injecting wrapper, an in-memory network — is supplied there, so
// the framing, retry and fencing code above it runs unchanged.
//
// Frame layout: 4-byte little-endian body length, then the body:
//
//	[1]  message type
//	[8]  batch ID (where applicable)
//	[..] type-specific payload (counts are uint32, keys uint64, floats
//	     float32 bit patterns, all little-endian)
//
// Responses reuse the same framing: MsgOK / MsgErr / typed payloads. What a
// request type is — its name, whether it is epoch-fenced, deduplicated or
// control-plane, and the handler that answers it — is one row of msgTable,
// below.
package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"unsafe"

	"openembedding/internal/psengine"
)

// Message types. Requests count up from 1 and each has one row in msgTable;
// responses start at 0x80.
const (
	MsgPull byte = iota + 1
	MsgPush
	MsgEndPullPhase
	MsgEndBatch
	MsgCheckpoint
	MsgCompletedCkpt
	MsgStats
	MsgPing
	// MsgHello is the handshake every client connection opens with: payload
	// is the client's known epoch (-1 to adopt the server's) and its client
	// ID. The response is MsgData with the server's current epoch, and the
	// connection is bound to the client's epoch for fencing. A connection
	// that never said Hello cannot issue batch-protocol requests.
	MsgHello
	// MsgRollback asks the node to roll its engine back to the checkpoint
	// in the batch field (the coordinated replay protocol; see DESIGN.md
	// §10). It is how a fenced cluster re-synchronizes.
	MsgRollback
	// MsgScrub asks the node to run one full integrity pass over its
	// persisted records (DESIGN.md §11). The response is MsgData carrying
	// the scrub report's six counters.
	MsgScrub
	// MsgPullBag is the serving tier's multi-sample embedding-bag gather
	// (DESIGN.md §14): one request carries a pooling mode byte (0 = sum,
	// 1 = mean), a count-prefixed uint32 offsets array (bags+1 entries,
	// offsets[0] == 0, non-decreasing, last == len(keys); a zero-length bag
	// pools to the zero vector) and the concatenated key list. The response
	// is MsgData with bags×dim pooled floats — the server does the pooling,
	// so only one row per bag crosses the wire. Serving is read-only and
	// eventually consistent, decoupled from the training epoch protocol.
	MsgPullBag
	// MsgMigrateRange is the migration coordinator's range export
	// (DESIGN.md §15): the batch field carries the delta floor (only
	// entries with dataVersion >= since are returned; a very negative
	// floor selects everything), and the payload carries the resume
	// cursor, the page size, and the moving hash intervals. The response
	// is MsgData with a more flag and the page's entries. An idempotent
	// admin read, issued by the coordinator that is itself moving the epoch.
	MsgMigrateRange
	// MsgAdoptRange installs migrated entries on the target node,
	// overwriting same-key state and flushing each entry durably before
	// the OK. Idempotent: adopting the same entries twice converges to the
	// same state.
	MsgAdoptRange
	// MsgDropRange removes the keys of the given hash intervals from the
	// node — index, cache, and durable records — after ownership moved
	// away. The response is MsgData with the dropped-entry count.
	// Idempotent: re-dropping a dropped range drops nothing.
	MsgDropRange

	// numMsgs is msgTable's length: one slot per request type, and slot 0
	// for the type byte no request carries.
	numMsgs = int(MsgDropRange) + 1

	MsgOK   byte = 0x80
	MsgErr  byte = 0x81
	MsgData byte = 0x82
	// MsgErrEpoch rejects a request from a connection bound to a stale
	// epoch; the payload carries the server's current epoch.
	MsgErrEpoch byte = 0x84
	// MsgErrCorrupt reports a request that failed because the node detected
	// PMem corruption (a checksum or media poison fault) while serving it.
	// Distinct from MsgErr so clients can tell data-integrity failures from
	// ordinary application errors; NOT transparently retried — healing is
	// the scrubber's and the recovery protocol's job.
	MsgErrCorrupt byte = 0x85
	// 0x86 stays unused: response type numbers are never reused.
)

// msgSpec is everything the protocol knows about one request type.
type msgSpec struct {
	// name labels the request in errors, oectl output and the server's
	// latency series (rpc_server_<name>_ns).
	name string
	// fenced requests are the batch protocol: refused, on both ends, from a
	// connection bound to another epoch than the server's. Everything else
	// is how a fenced client observes and heals the fence, or is outside
	// the training epoch protocol altogether.
	fenced bool
	// dedup requests mutate: their body carries, directly after the batch
	// ID, a client ID and a client-assigned sequence number, and the server
	// replays its cached response when a retry re-delivers the sequence —
	// at most once under retries. The others are reads or idempotent.
	dedup bool
	// control requests are answered by the node's Control; a server without
	// one refuses them by name.
	control bool
	// serve answers the request: the response body, or the error to encode.
	serve func(*Server, *request) ([]byte, error)
}

// msgTable is the protocol: one row per request type, indexed by its type
// byte. Dispatch, fencing (server and client), dedup, the refusal of control
// messages, request names and metric names are all read from here.
var msgTable = [numMsgs]msgSpec{
	MsgPull:          {name: "pull", fenced: true, serve: (*Server).servePull},
	MsgPush:          {name: "push", fenced: true, dedup: true, serve: (*Server).servePush},
	MsgEndPullPhase:  {name: "end-pull-phase", fenced: true, dedup: true, serve: (*Server).serveEndPullPhase},
	MsgEndBatch:      {name: "end-batch", fenced: true, dedup: true, serve: (*Server).serveEndBatch},
	MsgCheckpoint:    {name: "checkpoint", fenced: true, dedup: true, serve: (*Server).serveCheckpoint},
	MsgCompletedCkpt: {name: "completed-checkpoint", serve: (*Server).serveCompletedCkpt},
	MsgStats:         {name: "stats", serve: (*Server).serveStats},
	MsgPing:          {name: "ping", serve: (*Server).servePing},
	MsgHello:         {name: "hello", serve: (*Server).serveHello},
	MsgRollback:      {name: "rollback", control: true, serve: (*Server).serveRollback},
	MsgScrub:         {name: "scrub", control: true, serve: (*Server).serveScrub},
	MsgPullBag:       {name: "pull-bag", serve: (*Server).servePullBag},
	MsgMigrateRange:  {name: "migrate-range", control: true, serve: (*Server).serveMigrateRange},
	MsgAdoptRange:    {name: "adopt-range", control: true, serve: (*Server).serveAdoptRange},
	MsgDropRange:     {name: "drop-range", control: true, serve: (*Server).serveDropRange},
}

// specOf returns t's row, or nil for a type byte no request carries.
func specOf(t byte) *msgSpec {
	if int(t) < numMsgs && msgTable[t].serve != nil {
		return &msgTable[t]
	}
	return nil
}

// MaxFrame bounds a frame body; larger frames indicate protocol corruption.
const MaxFrame = 64 << 20

// ErrFrameTooLarge indicates a frame over MaxFrame.
var ErrFrameTooLarge = errors.New("rpc: frame too large")

// frameHdrSize is the wire header: the body length.
const frameHdrSize = 4

// WriteFrame writes one frame to w.
func WriteFrame(w io.Writer, body []byte) error {
	var hdr [frameHdrSize]byte
	return writeFrame(w, &hdr, body)
}

// writeFrame is WriteFrame with the header bytes supplied by the caller: a
// header declared here would escape through w.Write and cost an allocation
// per frame, so a connection passes the one in its scratch.
func writeFrame(w io.Writer, hdr *[frameHdrSize]byte, body []byte) error {
	if len(body) > MaxFrame {
		return ErrFrameTooLarge
	}
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// ReadFrame reads one frame from r into a fresh body.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [frameHdrSize]byte
	return readFrame(r, &hdr, nil)
}

// readFrame is ReadFrame into the caller's memory: the body lands in buf's
// array (grown when it is too small) and the returned slice aliases it, so
// it is only valid until the caller reuses buf.
func readFrame(r io.Reader, hdr *[frameHdrSize]byte, buf []byte) ([]byte, error) {
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	body := fit(buf, int(n))
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return body, nil
}

// maxScratch bounds, in bytes, each buffer a connection keeps between
// requests: one larger than this (a migration page, a hostile 64 MB
// header) is dropped once its request is done, so no connection pins the
// largest frame it ever saw.
const maxScratch = 4 << 20

// wireScratch is the memory one end of a connection reuses from request
// to request. Exactly one request is in flight per connection — a Client
// holds mu across the round trip, a Server connection is a sequential loop
// — so its owner needs no pool and no lock. Nothing outside that request
// may keep a slice of it: see DESIGN.md "Wire path: who owns which buffer".
type wireScratch struct {
	hdr  [frameHdrSize]byte
	in   []byte // the frame read from the wire
	out  Buffer // the data-plane frame built for the wire
	keys []uint64
	offs []uint32
	vals []float32 // decoded gradients, or the rows / pooled bags to encode
}

// trim drops every buffer that grew past maxScratch.
func (sc *wireScratch) trim() {
	sc.in, sc.out.b = bounded(sc.in), bounded(sc.out.b)
	sc.keys, sc.offs, sc.vals = bounded(sc.keys), bounded(sc.offs), bounded(sc.vals)
}

// bounded is s, or nil when s holds more than maxScratch bytes.
func bounded[T any](s []T) []T {
	var zero T
	if cap(s)*int(unsafe.Sizeof(zero)) > maxScratch {
		return nil
	}
	return s
}

// fit returns s resliced to n elements, in its own array when that is
// large enough; the contents are unspecified (callers overwrite all n).
func fit[T any](s []T, n int) []T {
	if cap(s) < n {
		return refit[T](n)
	}
	return s[:n]
}

// oevet:coldpath scratch grows to the largest request its connection carries, then is reused
func refit[T any](n int) []T {
	// A quarter of headroom, so requests that creep upwards (a trainer's
	// unique keys per step) settle after a few growths, not one per record.
	return make([]T, n, n+n/4)
}

// The bulk codec. A list on the wire is a uint32 count and the elements'
// little-endian bytes back to back — on a little-endian host exactly the
// bytes the slice already holds in memory, so a list is moved with one copy
// instead of one 4- or 8-byte store per element (on the 26x128 gather that
// loop, not the kernel, was most of the wire path's CPU). Only the typed
// slice is ever viewed as bytes, never the frame as typed values, so frame
// alignment does not matter.

// elem is what lists carry: keys, bag offsets, float32 bit patterns.
type elem interface{ uint32 | uint64 | float32 }

// hostLittleEndian says whether memory order is wire order.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// bytesOf views s as its bytes in memory order.
func bytesOf[T elem](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*int(unsafe.Sizeof(s[0])))
}

// swapElems reverses every size-byte element of b in place: the step that
// turns memory order into wire order, and back, on a big-endian host.
func swapElems(b []byte, size int) {
	for ; len(b) >= size; b = b[size:] {
		slices.Reverse(b[:size])
	}
}

// putList appends a count-prefixed list to p.
func putList[T elem](p *Buffer, vals []T) {
	var zero T
	src := bytesOf(vals)
	dst := p.extend(4 + len(src))
	binary.LittleEndian.PutUint32(dst, uint32(len(vals)))
	copy(dst[4:], src)
	if !hostLittleEndian {
		swapElems(dst[4:], int(unsafe.Sizeof(zero)))
	}
}

// listInto consumes a count-prefixed list into dst's array, grown when the
// list does not fit it, and returns the decoded slice.
func listInto[T elem](r *Reader, dst []T) ([]T, error) {
	var zero T
	size := int(unsafe.Sizeof(zero))
	n, err := r.count()
	if err != nil {
		return nil, err
	}
	if r.off+size*n > len(r.b) {
		return nil, ErrTruncated
	}
	dst = fit(dst, n)
	out := bytesOf(dst)
	copy(out, r.b[r.off:])
	if !hostLittleEndian {
		swapElems(out, size)
	}
	r.off += size * n
	return dst, nil
}

// Buffer builds frame bodies. Every Put grows the array at most once, and
// not at all once it has reached its size, so a Buffer that is Reset
// instead of replaced — a connection's request or response frame — builds
// its bodies in place.
type Buffer struct{ b []byte }

// NewBuffer returns a body builder starting with the message type and batch.
func NewBuffer(msg byte, batch int64) *Buffer {
	buf := &Buffer{b: make([]byte, 0, 64)}
	buf.Reset(msg, batch)
	return buf
}

// Reset restarts the body with the message type and batch, keeping the array.
func (p *Buffer) Reset(msg byte, batch int64) {
	p.reset(msg)
	p.PutI64(batch)
}

// reset restarts the body with a bare type byte, as responses begin.
func (p *Buffer) reset(t byte) {
	p.b = p.b[:0]
	p.PutU8(t)
}

// extend lengthens the body by n bytes and returns them.
func (p *Buffer) extend(n int) []byte {
	l := len(p.b)
	if cap(p.b)-l < n {
		p.grow(n)
	}
	p.b = p.b[:l+n]
	return p.b[l:]
}

// oevet:coldpath a reused frame grows to its connection's largest body, then stays
func (p *Buffer) grow(n int) { p.b = slices.Grow(p.b, n) }

// PutI64 appends an int64.
func (p *Buffer) PutI64(v int64) {
	binary.LittleEndian.PutUint64(p.extend(8), uint64(v))
}

// PutKeys appends a count-prefixed key list.
func (p *Buffer) PutKeys(keys []uint64) { putList(p, keys) }

// PutFloats appends a count-prefixed float32 list.
func (p *Buffer) PutFloats(vals []float32) { putList(p, vals) }

// PutU8 appends one raw byte.
func (p *Buffer) PutU8(v byte) { p.extend(1)[0] = v }

// PutBool appends a flag as one byte, 1 or 0 (e.g. a pooling mode).
func (p *Buffer) PutBool(v bool) {
	if v {
		p.PutU8(1)
	} else {
		p.PutU8(0)
	}
}

// PutU32s appends a count-prefixed uint32 list (e.g. bag offsets).
func (p *Buffer) PutU32s(vals []uint32) { putList(p, vals) }

// PutString appends a count-prefixed string.
func (p *Buffer) PutString(s string) {
	dst := p.extend(4 + len(s))
	binary.LittleEndian.PutUint32(dst, uint32(len(s)))
	copy(dst[4:], s)
}

// Bytes returns the built body.
func (p *Buffer) Bytes() []byte { return p.b }

// Reader decodes frame bodies.
type Reader struct {
	b   []byte
	off int
}

// NewReader wraps a frame body.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// ErrTruncated indicates a body shorter than its encoding claims.
var ErrTruncated = errors.New("rpc: truncated frame")

// Type consumes and returns the message type byte.
func (r *Reader) Type() (byte, error) {
	if r.off+1 > len(r.b) {
		return 0, ErrTruncated
	}
	t := r.b[r.off]
	r.off++
	return t, nil
}

// I64 consumes an int64.
func (r *Reader) I64() (int64, error) {
	if r.off+8 > len(r.b) {
		return 0, ErrTruncated
	}
	v := int64(binary.LittleEndian.Uint64(r.b[r.off:]))
	r.off += 8
	return v, nil
}

// Keys consumes a count-prefixed key list into a fresh slice.
func (r *Reader) Keys() ([]uint64, error) { return listInto[uint64](r, nil) }

// KeysInto consumes a count-prefixed key list into dst's array, grown
// when the list does not fit it, and returns the decoded slice.
func (r *Reader) KeysInto(dst []uint64) ([]uint64, error) { return listInto(r, dst) }

// Floats consumes a count-prefixed float32 list into a fresh slice.
func (r *Reader) Floats() ([]float32, error) { return listInto[float32](r, nil) }

// FloatsInto is KeysInto for a float32 list.
func (r *Reader) FloatsInto(dst []float32) ([]float32, error) { return listInto(r, dst) }

// U8 consumes one raw byte.
func (r *Reader) U8() (byte, error) {
	if r.off+1 > len(r.b) {
		return 0, ErrTruncated
	}
	v := r.b[r.off]
	r.off++
	return v, nil
}

// U32sInto is KeysInto for a uint32 list.
func (r *Reader) U32sInto(dst []uint32) ([]uint32, error) { return listInto(r, dst) }

// String consumes a count-prefixed string.
func (r *Reader) String() (string, error) {
	n, err := r.count()
	if err != nil {
		return "", err
	}
	if r.off+n > len(r.b) {
		return "", ErrTruncated
	}
	s := string(r.b[r.off : r.off+n])
	r.off += n
	return s, nil
}

func (r *Reader) count() (int, error) {
	if r.off+4 > len(r.b) {
		return 0, ErrTruncated
	}
	n := int(binary.LittleEndian.Uint32(r.b[r.off:]))
	r.off += 4
	if n < 0 || n > MaxFrame {
		return 0, refusef("rpc: bad count %d", n)
	}
	return n, nil
}

// refusef builds the error that refuses a request: malformed, or asking for
// more than a frame can carry.
//
// oevet:coldpath a refused request is not the steady state
func refusef(format string, args ...any) error { return fmt.Errorf(format, args...) }

// okBody is the one success response body every handler returns; it is
// shared and never written.
var okBody = []byte{MsgOK}

// OKBody is the canonical success response body.
func OKBody() []byte { return okBody }

// errBody encodes an error response of the given type.
//
// oevet:coldpath an error response is not the steady state
func errBody(t byte, err error) []byte {
	b := &Buffer{b: []byte{t}}
	b.PutString(err.Error())
	return b.Bytes()
}

// ErrBody encodes an application-error response.
func ErrBody(err error) []byte { return errBody(MsgErr, err) }

// EpochErrBody encodes an epoch-fence rejection carrying the server's
// current epoch.
func EpochErrBody(serverEpoch int64) []byte {
	b := &Buffer{b: []byte{MsgErrEpoch}}
	b.PutI64(serverEpoch)
	return b.Bytes()
}

// CorruptErrBody encodes a data-integrity error response.
func CorruptErrBody(err error) []byte { return errBody(MsgErrCorrupt, err) }

// HashInterval is a closed range [Lo, Hi] of ring positions (key hashes,
// not keys); a wrapping arc is two intervals. The cluster's placement ring
// produces them and the node's migration hooks turn them into key
// predicates.
type HashInterval struct{ Lo, Hi uint64 }

// KeyHash maps a key to its ring position: the splitmix64 finalizer. This
// is the only ring hash — the cluster's placement ring places keys and
// virtual nodes with it — so an interval computed there selects exactly
// the keys matched here.
func KeyHash(key uint64) uint64 {
	x := key + 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// CoversKey reports whether any interval contains key's ring position.
func CoversKey(ivs []HashInterval, key uint64) bool {
	h := KeyHash(key)
	for _, iv := range ivs {
		if iv.Lo <= h && h <= iv.Hi {
			return true
		}
	}
	return false
}

// putIntervals appends a count-prefixed flat (lo, hi) pair list.
func putIntervals(b *Buffer, ivs []HashInterval) {
	flat := make([]uint64, 0, 2*len(ivs))
	for _, iv := range ivs {
		flat = append(flat, iv.Lo, iv.Hi)
	}
	b.PutKeys(flat)
}

// readIntervals consumes a count-prefixed flat (lo, hi) pair list.
func readIntervals(r *Reader) ([]HashInterval, error) {
	flat, err := r.Keys()
	if err != nil {
		return nil, err
	}
	if len(flat)%2 != 0 {
		return nil, fmt.Errorf("rpc: odd interval list length %d", len(flat))
	}
	ivs := make([]HashInterval, len(flat)/2)
	for i := range ivs {
		ivs[i] = HashInterval{Lo: flat[2*i], Hi: flat[2*i+1]}
	}
	return ivs, nil
}

// putMigEntries appends a count-prefixed migration entry list.
func putMigEntries(b *Buffer, entries []psengine.MigEntry) {
	b.PutI64(int64(len(entries)))
	for _, me := range entries {
		b.PutI64(int64(me.Key))
		b.PutI64(me.Version)
		b.PutFloats(me.Data)
	}
}

// readMigEntries consumes a count-prefixed migration entry list.
func readMigEntries(r *Reader) ([]psengine.MigEntry, error) {
	n, err := r.I64()
	if err != nil {
		return nil, err
	}
	if n < 0 || n > MaxFrame {
		return nil, fmt.Errorf("rpc: bad entry count %d", n)
	}
	// Preallocate from the body size, not the claimed count: each entry
	// occupies at least 20 bytes, so a hostile count cannot balloon memory.
	prealloc := n
	if lim := int64(len(r.b)/20 + 1); prealloc > lim {
		prealloc = lim
	}
	entries := make([]psengine.MigEntry, 0, prealloc)
	for i := int64(0); i < n; i++ {
		key, err := r.I64()
		if err != nil {
			return nil, err
		}
		version, err := r.I64()
		if err != nil {
			return nil, err
		}
		data, err := r.Floats()
		if err != nil {
			return nil, err
		}
		entries = append(entries, psengine.MigEntry{Key: uint64(key), Version: version, Data: data})
	}
	return entries, nil
}

// DecodeResponse inspects a response body: nil error for MsgOK/MsgData
// (returning a reader over the rest, which aliases body), the remote error
// for MsgErr, or a typed *EpochError / *RemoteCorruptError.
func DecodeResponse(body []byte) (Reader, error) {
	return decodeResponse(body, "", -1)
}

// decodeResponse is DecodeResponse on a connection: a typed remote error
// names the peer (addr) and, for an epoch fence, the epoch the client was at.
func decodeResponse(body []byte, addr string, clientEpoch int64) (Reader, error) {
	r := Reader{b: body}
	t, err := r.Type()
	if err != nil {
		return Reader{}, err
	}
	if t == MsgOK || t == MsgData {
		return r, nil
	}
	return Reader{}, remoteErr(t, &r, addr, clientEpoch)
}

// oevet:coldpath an error response is not the steady state
func remoteErr(t byte, r *Reader, addr string, clientEpoch int64) error {
	switch t {
	case MsgErrEpoch:
		se, err := r.I64()
		if err != nil {
			return err
		}
		return &EpochError{Addr: addr, ClientEpoch: clientEpoch, ServerEpoch: se}
	case MsgErr, MsgErrCorrupt:
		msg, err := r.String()
		switch {
		case err != nil:
			return err
		case t == MsgErrCorrupt:
			return &RemoteCorruptError{Addr: addr, Msg: msg}
		}
		return fmt.Errorf("rpc: remote: %s", msg)
	default:
		return fmt.Errorf("rpc: unexpected response type 0x%02x", t)
	}
}
