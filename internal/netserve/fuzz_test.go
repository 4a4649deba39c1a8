package netserve

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/routing"
	"repro/internal/serve"
)

// The wire-protocol fuzzers mirror the schemeio fuzzer contract on the
// network boundary: arbitrary bytes must error, never panic, never
// allocate past a cap that has not been checked; and every ACCEPTED
// message must re-encode to the identical byte string, so the decoders
// admit exactly the canonical spellings their encoders produce.

func FuzzDecodeRequest(f *testing.F) {
	seed, _ := EncodeRequest([]serve.Query{
		{Op: serve.OpRoute, U: 3, V: 9},
		{Op: serve.OpStretch, U: 0, V: 1},
	})
	f.Add(seed)
	f.Add(seed[:len(seed)-1]) // truncated
	f.Add([]byte{})
	f.Add([]byte{0x4e, 0x53, 0x01, 0x01, 0xff, 0xff, 0xff, 0xff, 0x7f}) // huge count
	f.Add(EncodeRefusal(RefuseOverloaded, "x"))                         // wrong type
	f.Fuzz(func(t *testing.T, data []byte) {
		qs, err := DecodeRequestInto(data, nil)
		if err != nil {
			return
		}
		re, err := EncodeRequest(qs)
		if err != nil {
			t.Fatalf("accepted request does not re-encode: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted request re-encodes differently:\n in  %x\n out %x", data, re)
		}
	})
}

func FuzzDecodeResponse(f *testing.F) {
	seed, _ := EncodeResponse([]serve.Result{
		{Len: 4},
		{Len: 6, Dist: 3, Stretch: 2},
		{Len: 1, Hops: []routing.Hop{{Node: 2, Port: 1}, {Node: 5, Port: 0}}},
		{Err: errors.New("serve: pair 1->1 undefined")},
	})
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add(EncodeRefusal(RefuseShutdown, "server draining"))
	f.Add(EncodeRefusal(RefuseOverloaded, ""))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		rs, err := DecodeResponse(data)
		if err != nil {
			var ref *Refusal
			if errors.As(err, &ref) {
				// A refusal is a valid decode travelling the error path;
				// it must re-encode byte-identically like any message.
				if re := EncodeRefusal(ref.Code, ref.Msg); !bytes.Equal(re, data) {
					t.Fatalf("accepted refusal re-encodes differently:\n in  %x\n out %x", data, re)
				}
			}
			return
		}
		re, err := EncodeResponse(rs)
		if err != nil {
			t.Fatalf("accepted reply does not re-encode: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted reply re-encodes differently:\n in  %x\n out %x", data, re)
		}
	})
}
