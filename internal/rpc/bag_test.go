package rpc

import (
	"net"
	"testing"
	"testing/quick"
)

// sumBags is a deterministic BagServer stub: element i of key k's row is
// float32(k) + float32(i), pooled per the request mode.
type sumBags struct{ dim int }

func (s *sumBags) Dim() int { return s.dim }

func (s *sumBags) PullBags(mean bool, offsets []uint32, keys []uint64, out []float32) error {
	for b := 0; b < len(offsets)-1; b++ {
		lo, hi := int(offsets[b]), int(offsets[b+1])
		dst := out[b*s.dim : (b+1)*s.dim]
		for i := range dst {
			dst[i] = 0
		}
		for _, k := range keys[lo:hi] {
			for i := range dst {
				dst[i] += float32(k) + float32(i)
			}
		}
		if mean && hi > lo {
			for i := range dst {
				dst[i] /= float32(hi - lo)
			}
		}
	}
	return nil
}

func TestValidateBagOffsets(t *testing.T) {
	cases := []struct {
		offsets []uint32
		nkeys   int
		ok      bool
	}{
		{[]uint32{0}, 0, true},          // zero bags, zero keys
		{[]uint32{0, 0}, 0, true},       // one zero-length bag
		{[]uint32{0, 2, 2, 5}, 5, true}, // middle bag empty
		{[]uint32{}, 0, false},          // no offsets at all
		{[]uint32{1, 2}, 2, false},      // doesn't start at 0
		{[]uint32{0, 3, 2}, 2, false},   // decreasing
		{[]uint32{0, 2}, 5, false},      // doesn't cover all keys
		{[]uint32{0, 9}, 5, false},      // offset past the end
		{[]uint32{0, 2, 4}, 3, false},   // last offset != len(keys)
		{[]uint32{0, 1, 1, 1}, 1, true}, // trailing empty bags
	}
	for _, c := range cases {
		err := ValidateBagOffsets(c.offsets, c.nkeys)
		if (err == nil) != c.ok {
			t.Errorf("ValidateBagOffsets(%v, %d) = %v, want ok=%v", c.offsets, c.nkeys, err, c.ok)
		}
	}
}

// encodePullBag builds a MsgPullBag body the way Client.PullBags does.
func encodePullBag(mean bool, offsets []uint32, keys []uint64) []byte {
	b := NewBuffer(MsgPullBag, 0)
	if mean {
		b.PutU8(1)
	} else {
		b.PutU8(0)
	}
	b.PutU32s(offsets)
	b.PutKeys(keys)
	return b.Bytes()
}

// TestPullBagRoundTripProperty: arbitrary well-formed bag requests must
// round-trip through the server handler to the stub's exact pooled floats.
func TestPullBagRoundTripProperty(t *testing.T) {
	const dim = 4
	srv := bareServer(testEngine(t), &sumBags{dim: dim})
	f := func(sizes []uint8, rawKeys []uint64, mean bool) bool {
		if len(sizes) > 64 {
			sizes = sizes[:64]
		}
		offsets := make([]uint32, 1, len(sizes)+1)
		var keys []uint64
		next := 0
		for _, sz := range sizes {
			n := int(sz % 8) // bags of 0..7 keys
			for i := 0; i < n; i++ {
				if len(rawKeys) > 0 {
					keys = append(keys, rawKeys[next%len(rawKeys)]%1000)
					next++
				} else {
					keys = append(keys, uint64(next))
					next++
				}
			}
			offsets = append(offsets, uint32(len(keys)))
		}
		resp := srv.handle(encodePullBag(mean, offsets, keys))
		rd, err := DecodeResponse(resp)
		if err != nil {
			return false
		}
		got, err := rd.Floats()
		if err != nil || len(got) != (len(offsets)-1)*dim {
			return false
		}
		want := make([]float32, (len(offsets)-1)*dim)
		(&sumBags{dim: dim}).PullBags(mean, offsets, keys, want) //nolint:errcheck // stub never fails
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPullBagMalformed: the targeted malformed shapes from the wire spec —
// truncated offsets, offsets past the end of the key list, decreasing
// offsets, a bad pooling mode (2 among them: only sum and mean exist) —
// must each come back MsgErr, and legal zero-length bags must not.
func TestPullBagMalformed(t *testing.T) {
	srv := bareServer(testEngine(t), &sumBags{dim: 4})

	// Legal: zero-length bags pool to the zero vector.
	resp := srv.handle(encodePullBag(false, []uint32{0, 0, 2, 2}, []uint64{1, 2}))
	if resp[0] != MsgData {
		t.Fatalf("zero-length bags rejected: %v", resp)
	}

	full := encodePullBag(false, []uint32{0, 2, 4}, []uint64{1, 2, 3, 4})
	cases := map[string][]byte{
		"missing mode":        full[:9],
		"truncated offsets":   full[:12],
		"offset past end":     encodePullBag(false, []uint32{0, 9}, []uint64{1, 2}),
		"decreasing offsets":  encodePullBag(false, []uint32{0, 2, 1, 3}, []uint64{1, 2, 3}),
		"missing leading 0":   encodePullBag(false, []uint32{1, 3}, []uint64{1, 2, 3}),
		"no offsets":          encodePullBag(false, nil, nil),
		"bad pooling mode":    append(append([]byte{}, full[:9]...), 7),
		"pooling mode 2":      append(append(append([]byte{}, full[:9]...), 2), full[10:]...),
		"keys cut mid-stream": full[:len(full)-3],
	}
	for name, body := range cases {
		resp := srv.handle(body)
		if len(resp) == 0 || resp[0] != MsgErr {
			t.Errorf("%s: got response %v, want MsgErr", name, resp)
		}
	}

	// A server without a bag hook must reject, not panic.
	bare := bareServer(testEngine(t), nil)
	if resp := bare.handle(full); resp[0] != MsgErr {
		t.Fatalf("bag-less server answered %v", resp)
	}
}

// FuzzPullBagDecode: arbitrary (mode, offsets, keys) encodings — plus the
// handler-level truncations the fuzzer derives from them — must produce a
// response frame, never a panic, and well-formed inputs must produce
// MsgData.
func FuzzPullBagDecode(f *testing.F) {
	f.Add([]byte{0}, []byte{1, 0, 0, 0, 0, 0, 0, 0}, []byte{}, 0)             // one empty bag
	f.Add([]byte{0}, []byte{2, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0}, []byte{}, 0) // offset past end
	f.Add([]byte{1}, []byte{1, 0, 0, 0}, []byte{}, 3)                         // truncated offsets
	f.Add([]byte{9}, []byte{}, []byte{}, 0)                                   // bad mode
	f.Add([]byte{2}, []byte{2, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0},
		[]byte{1, 0, 0, 0, 148, 1, 0, 0, 0, 0, 0, 0}, 0) // a well-formed bag under mode 2, which is no mode
	f.Fuzz(func(t *testing.T, mode, rawOffsets, rawKeys []byte, cut int) {
		srv := bareServer(testEngine(t), &sumBags{dim: 4})
		body := append([]byte{MsgPullBag, 0, 0, 0, 0, 0, 0, 0, 0}, mode...)
		body = append(body, rawOffsets...)
		body = append(body, rawKeys...)
		if cut < 0 {
			cut = -cut
		}
		if n := cut % (len(body) + 1); n > 0 {
			body = body[:n]
		}
		resp := srv.handle(body)
		if len(resp) == 0 {
			t.Fatalf("empty response for body %v", body)
		}
		switch resp[0] {
		case MsgData, MsgErr, MsgErrCorrupt:
		default:
			t.Fatalf("unexpected response type 0x%02x", resp[0])
		}
	})
}

// TestPullBagConnectionSurvivesMalformed: a malformed bag over a live
// connection must answer MsgErr and leave the connection serving — the
// next request on the same conn succeeds.
func TestPullBagConnectionSurvivesMalformed(t *testing.T) {
	srv, err := ServeOpts("127.0.0.1:0", testEngine(t), ServerOptions{Bags: &sumBags{dim: 4}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	send := func(body []byte) []byte {
		t.Helper()
		if err := WriteFrame(conn, body); err != nil {
			t.Fatalf("write: %v", err)
		}
		resp, err := ReadFrame(conn)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		return resp
	}

	// Offsets claim more keys than the request carries.
	if resp := send(encodePullBag(false, []uint32{0, 5}, []uint64{1})); resp[0] != MsgErr {
		t.Fatalf("malformed bag answered %v, want MsgErr", resp)
	}
	// The same connection must still serve a good request...
	resp := send(encodePullBag(false, []uint32{0, 2}, []uint64{10, 20}))
	if resp[0] != MsgData {
		t.Fatalf("follow-up request answered %v, want MsgData", resp)
	}
	got, err := NewReader(resp[1:]).Floats()
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{30, 32, 34, 36} // (10+i)+(20+i) per element
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pooled row = %v, want %v", got, want)
		}
	}

	// ...and so must a regular high-level client against the same server.
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	vals, err := cl.PullBags(true, []uint32{0, 2}, []uint64{10, 20})
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range []float32{15, 16, 17, 18} { // mean of the two rows
		if vals[i] != w {
			t.Fatalf("client mean pool = %v", vals)
		}
	}
	if _, err := cl.PullBags(false, []uint32{0, 3}, []uint64{1}); err == nil {
		t.Fatal("client-side malformed bag not rejected by server")
	}
	if err := cl.Ping(); err != nil {
		t.Fatalf("client connection broken after remote error: %v", err)
	}
}
