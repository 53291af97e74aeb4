package rpc

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

// TestWireRoundTripProperty: arbitrary key/float/string payloads must
// survive encode -> frame -> decode bit-exactly.
func TestWireRoundTripProperty(t *testing.T) {
	f := func(batch int64, keys []uint64, vals []float32, s string) bool {
		if len(s) > 1<<16 {
			s = s[:1<<16]
		}
		b := NewBuffer(MsgPush, batch)
		b.PutKeys(keys)
		b.PutFloats(vals)
		b.PutString(s)

		var wire bytes.Buffer
		if err := WriteFrame(&wire, b.Bytes()); err != nil {
			return false
		}
		body, err := ReadFrame(&wire)
		if err != nil {
			return false
		}
		r := NewReader(body)
		typ, err := r.Type()
		if err != nil || typ != MsgPush {
			return false
		}
		gotBatch, err := r.I64()
		if err != nil || gotBatch != batch {
			return false
		}
		gotKeys, err := r.Keys()
		if err != nil || len(gotKeys) != len(keys) {
			return false
		}
		for i := range keys {
			if gotKeys[i] != keys[i] {
				return false
			}
		}
		gotVals, err := r.Floats()
		if err != nil || len(gotVals) != len(vals) {
			return false
		}
		for i := range vals {
			if math.Float32bits(gotVals[i]) != math.Float32bits(vals[i]) {
				return false
			}
		}
		gotS, err := r.String()
		return err == nil && gotS == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// FuzzFrameTear: a frame torn at any byte boundary — what the injector's
// KindTorn fault produces on the wire — must decode to an error, never a
// panic, a hang, or silently truncated data.
func FuzzFrameTear(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add(bytes.Repeat([]byte{0xff}, 64), uint16(40))
	eachRow(func(t byte, _ *msgSpec) {
		body := wellFormed(t, 1)
		f.Add(body, uint16(len(body)/2))
	})
	f.Fuzz(func(t *testing.T, body []byte, cutAt uint16) {
		var wire bytes.Buffer
		if err := WriteFrame(&wire, body); err != nil {
			t.Skip("body over MaxFrame")
		}
		full := wire.Bytes()
		cut := int(cutAt) % (len(full) + 1)
		got, err := ReadFrame(bytes.NewReader(full[:cut]))
		if cut < len(full) {
			if err == nil {
				t.Fatalf("frame torn at %d/%d decoded without error", cut, len(full))
			}
			return
		}
		if err != nil {
			t.Fatalf("intact frame failed to decode: %v", err)
		}
		if !bytes.Equal(got, body) {
			t.Fatalf("intact frame decoded to %v, want %v", got, body)
		}
	})
}

// TestServerHandleNeverPanics: arbitrary request bodies must produce a
// response (usually MsgErr), never a panic or a hang.
func TestServerHandleNeverPanics(t *testing.T) {
	srv := bareServer(testEngine(t), nil)
	f := func(body []byte) bool {
		resp := srv.handle(body)
		if len(resp) == 0 {
			return false
		}
		// Every response must decode as OK, Data or a remote error.
		_, err := DecodeResponse(resp)
		_ = err // remote errors are fine; malformed responses are not
		switch resp[0] {
		case MsgOK, MsgData, MsgErr:
			return true
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	// Every row's well-formed request cut short at every byte, and a type
	// with no row: an error response each.
	srv.control = stubControl{}
	cases := [][]byte{{0x7f, 0, 0, 0, 0, 0, 0, 0, 0}}
	eachRow(func(t byte, _ *msgSpec) {
		body := wellFormed(t, 1)
		for cut := range body {
			cases = append(cases, body[:cut])
		}
	})
	for _, body := range cases {
		resp := srv.handle(body)
		if len(resp) == 0 || resp[0] != MsgErr {
			t.Fatalf("malformed body %v got response %v", body, resp)
		}
	}
}
