package netserve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/coding"
	"repro/internal/routing"
	"repro/internal/serve"
)

func TestRequestRoundTrip(t *testing.T) {
	qs := []serve.Query{
		{Op: serve.OpRoute, U: 0, V: 17},
		{Op: serve.OpLen, U: 5, V: 5},
		{Op: serve.OpStretch, U: coding.MaxWireOrder - 1, V: 1},
	}
	b, err := EncodeRequest(qs)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeRequestInto(b, nil)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got) != len(qs) {
		t.Fatalf("got %d queries, want %d", len(got), len(qs))
	}
	for i := range qs {
		if got[i] != qs[i] {
			t.Errorf("query %d: got %+v want %+v", i, got[i], qs[i])
		}
	}
	re, err := EncodeRequest(got)
	if err != nil || !bytes.Equal(re, b) {
		t.Fatalf("re-encode differs (err %v)", err)
	}
}

func TestRequestRejections(t *testing.T) {
	if _, err := EncodeRequest(nil); err == nil {
		t.Error("empty batch encoded")
	}
	if _, err := EncodeRequest([]serve.Query{{Op: 9, U: 0, V: 1}}); err == nil {
		t.Error("unknown op encoded")
	}
	if _, err := EncodeRequest([]serve.Query{{Op: serve.OpLen, U: coding.MaxWireOrder, V: 1}}); err == nil {
		t.Error("out-of-range source encoded")
	}
	if _, err := EncodeRequest([]serve.Query{{Op: serve.OpLen, U: -1, V: 1}}); err == nil {
		t.Error("negative source encoded")
	}
	if _, err := DecodeRequestInto(nil, nil); err == nil {
		t.Error("empty payload decoded")
	}
	// An oversized declared count must be rejected by the cap before the
	// batch slice is allocated: a 16-byte payload claiming 2^40 queries.
	w := coding.NewBitWriter()
	writeEnvelope(w, msgQuery)
	w.WriteUvarint(1 << 40)
	if _, err := DecodeRequestInto(w.Bytes(), nil); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Errorf("oversized count: got %v, want cap error", err)
	}
	// Reply payload handed to the request decoder is a type error.
	resp, _ := EncodeResponse([]serve.Result{{Len: 3}})
	if _, err := DecodeRequestInto(resp, nil); err == nil {
		t.Error("reply decoded as request")
	}
}

func TestResponseRoundTrip(t *testing.T) {
	rs := []serve.Result{
		{Len: 4},
		{Len: 2, Dist: 2, Stretch: 1.0},
		{Len: 7, Dist: 3, Stretch: float64(7) / float64(3)},
		{Len: 2, Hops: []routing.Hop{{Node: 1, Port: 2}, {Node: 9, Port: 1}, {Node: 3, Port: 0}}},
		{Len: 0, Hops: []routing.Hop{}},
		{Err: errors.New("serve: pair 3->3 undefined")},
		{Err: errors.New("")},
	}
	b, err := EncodeResponse(rs)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeResponse(b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got) != len(rs) {
		t.Fatalf("got %d results, want %d", len(got), len(rs))
	}
	for i, want := range rs {
		g := got[i]
		if (g.Err == nil) != (want.Err == nil) {
			t.Fatalf("result %d: err presence mismatch", i)
		}
		if want.Err != nil {
			if g.Err.Error() != want.Err.Error() {
				t.Errorf("result %d: err %q want %q", i, g.Err, want.Err)
			}
			continue
		}
		if g.Len != want.Len || g.Dist != want.Dist || g.Stretch != want.Stretch {
			t.Errorf("result %d: got %+v want %+v", i, g, want)
		}
		if (g.Hops == nil) != (want.Hops == nil) || len(g.Hops) != len(want.Hops) {
			t.Fatalf("result %d: hops shape mismatch", i)
		}
		for j := range want.Hops {
			if g.Hops[j] != want.Hops[j] {
				t.Errorf("result %d hop %d: got %v want %v", i, j, g.Hops[j], want.Hops[j])
			}
		}
	}
	re, err := EncodeResponse(got)
	if err != nil || !bytes.Equal(re, b) {
		t.Fatalf("re-encode differs (err %v)", err)
	}
}

func TestResponseErrorTruncation(t *testing.T) {
	long := strings.Repeat("x", MaxErrBytes+500)
	b, err := EncodeResponse([]serve.Result{{Err: errors.New(long)}})
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeResponse(b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got[0].Err.Error()) != MaxErrBytes {
		t.Errorf("truncated message is %d bytes, want %d", len(got[0].Err.Error()), MaxErrBytes)
	}
}

func TestRefusalRoundTrip(t *testing.T) {
	for _, code := range []RefuseCode{RefuseOverloaded, RefuseMalformed, RefuseShutdown} {
		b := EncodeRefusal(code, "busy right now")
		_, err := DecodeResponse(b)
		var ref *Refusal
		if !errors.As(err, &ref) {
			t.Fatalf("code %v: decoded to %v, want *Refusal", code, err)
		}
		if ref.Code != code || ref.Msg != "busy right now" {
			t.Errorf("code %v: got %+v", code, ref)
		}
		if re := EncodeRefusal(ref.Code, ref.Msg); !bytes.Equal(re, b) {
			t.Errorf("code %v: re-encode differs", code)
		}
	}
	// Refusal code 0 and codes beyond the known set are malformed, not
	// silently accepted (a future code must bump the protocol version).
	w := coding.NewBitWriter()
	writeEnvelope(w, msgRefuse)
	w.WriteUvarint(0)
	w.WriteUvarint(0)
	if _, err := DecodeResponse(w.Bytes()); err == nil || errors.As(err, new(*Refusal)) {
		t.Errorf("refusal code 0: got %v, want malformed error", err)
	}
}

func TestResponseRejectsZeroDistStretch(t *testing.T) {
	// A stretch reply carrying Dist=0 would decode to a Result that
	// re-encodes under the len tag — an aliasing hole. The decoder must
	// reject it.
	w := coding.NewBitWriter()
	writeEnvelope(w, msgReply)
	w.WriteUvarint(1)
	w.WriteUvarint(tagStretch)
	w.WriteUvarint(5) // len
	w.WriteUvarint(0) // dist = 0: invalid
	if _, err := DecodeResponse(w.Bytes()); err == nil {
		t.Error("stretch reply with zero distance decoded")
	}
}

func TestVersionSkewRejected(t *testing.T) {
	w := coding.NewBitWriter()
	w.WriteBits(MsgMagic, 16)
	w.WriteUvarint(ProtoVersion + 1)
	w.WriteUvarint(msgQuery)
	w.WriteUvarint(1)
	if _, err := DecodeRequestInto(w.Bytes(), nil); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("got %v, want version error", err)
	}
}

func TestFrameRoundTripAndCaps(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte{1, 2, 3, 4, 5}
	if err := writeFrame(&buf, payload); err != nil {
		t.Fatalf("writeFrame: %v", err)
	}
	got, err := readFrameInto(bufio.NewReader(&buf), new([]byte))
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("readFrameInto: %v %v", got, err)
	}
	// A declared length beyond the cap errors before allocation.
	var huge bytes.Buffer
	huge.Write([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}) // uvarint ~2^41
	if _, err := readFrameInto(bufio.NewReader(&huge), new([]byte)); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Errorf("oversized frame: got %v, want cap error", err)
	}
	var zero bytes.Buffer
	zero.WriteByte(0)
	if _, err := readFrameInto(bufio.NewReader(&zero), new([]byte)); err == nil {
		t.Error("zero-length frame accepted")
	}
	if err := writeFrame(&bytes.Buffer{}, make([]byte, MaxFrameBytes+1)); err == nil {
		t.Error("oversized frame written")
	}
}

// TestFrameBodyAllocatesWhatArrives pins the large-frame guard: a header
// declaring MaxFrameBytes followed by 16 body bytes and EOF fails as a
// truncated body without allocating anywhere near the declared 64 MiB,
// and a frame several growth chunks long still round-trips byte for
// byte through a reader that delivers it in pieces.
func TestFrameBodyAllocatesWhatArrives(t *testing.T) {
	var lie bytes.Buffer
	var lenBuf [binary.MaxVarintLen64]byte
	lie.Write(lenBuf[:binary.PutUvarint(lenBuf[:], MaxFrameBytes)])
	lie.Write(make([]byte, 16))
	br := bufio.NewReader(&lie)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readFrameInto(br, new([]byte))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "frame body") {
		t.Fatalf("truncated MaxFrameBytes frame: got %v, want a frame body error", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("truncated MaxFrameBytes frame allocated %d B, want < 1 MiB", alloc)
	}

	payload := make([]byte, 5*frameGrowChunk+123)
	for i := range payload {
		payload[i] = byte(i*7 + i>>9)
	}
	var buf bytes.Buffer
	for _, p := range [][]byte{payload, payload[:100]} {
		if err := writeFrame(&buf, p); err != nil {
			t.Fatalf("writeFrame: %v", err)
		}
	}
	br = bufio.NewReader(iotest.HalfReader(&buf))
	var scratch []byte
	for _, want := range [][]byte{payload, payload[:100]} {
		got, err := readFrameInto(br, &scratch)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%d-byte frame did not round-trip: err %v, equal %v", len(want), err, bytes.Equal(got, want))
		}
	}
}

func TestShardMap(t *testing.T) {
	for _, tc := range []struct{ n, k int }{{1, 1}, {5, 2}, {64, 5}, {100, 7}, {7, 7}} {
		m, err := NewShardMap(tc.n, tc.k)
		if err != nil {
			t.Fatalf("n=%d k=%d: %v", tc.n, tc.k, err)
		}
		// Ranges tile [0, n) exactly, every shard non-empty, and Owner
		// agrees with Range for every router.
		next := 0
		for s := 0; s < tc.k; s++ {
			lo, hi := m.Range(s)
			if int(lo) != next || hi <= lo {
				t.Fatalf("n=%d k=%d shard %d: range [%d,%d) after %d", tc.n, tc.k, s, lo, hi, next)
			}
			for u := lo; u < hi; u++ {
				if m.Owner(u) != s {
					t.Fatalf("n=%d k=%d: Owner(%d) = %d, want %d", tc.n, tc.k, u, m.Owner(u), s)
				}
			}
			next = int(hi)
		}
		if next != tc.n {
			t.Fatalf("n=%d k=%d: ranges end at %d", tc.n, tc.k, next)
		}
	}
	for _, tc := range []struct{ n, k int }{{0, 1}, {4, 0}, {4, -1}, {3, 4}} {
		if _, err := NewShardMap(tc.n, tc.k); err == nil {
			t.Errorf("n=%d k=%d accepted", tc.n, tc.k)
		}
	}
}

func TestRefusalErrorStrings(t *testing.T) {
	r := &Refusal{Code: RefuseOverloaded, Msg: "admission limit reached"}
	if !strings.Contains(r.Error(), "overloaded") {
		t.Errorf("refusal error %q does not name its code", r.Error())
	}
	if s := fmt.Sprint(RefuseCode(9)); !strings.Contains(s, "9") {
		t.Errorf("unknown code prints %q", s)
	}
}
