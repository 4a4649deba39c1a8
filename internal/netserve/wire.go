// Package netserve puts a network front end on internal/serve: a TCP
// server speaking a length-prefixed binary query protocol, a shard map
// partitioning the router ID space across k serving shards, and a
// scatter/gather client that fans a batch out to the owning shards and
// reassembles the answers in request order.
//
// The wire format reuses the envelope idioms of internal/coding's
// scheme persistence layer — a magic/version prefix, LEB128 uvarints,
// explicit size caps checked before any allocation — and upholds the
// same contracts the schemeio fuzzers pin:
//
//   - error-never-panic: arbitrary bytes fed to a decoder return an
//     error, never panic, and never allocate proportionally to an
//     attacker-controlled count that has not passed its cap;
//   - canonical bytes: every accepted message re-encodes to the
//     identical byte string, so "decodes successfully" and "re-encodes
//     byte-identically" are the same property on the network boundary
//     exactly as on the persistence boundary;
//   - per-query errors: a failed query is a tagged result inside an
//     ordinary reply; whole-message refusals exist only for transport
//     concerns (overload, malformed frames, shutdown).
//
// Float stretch values never cross the wire: a stretch reply carries
// the integer (Len, Dist) pair and both sides compute
// float64(Len)/float64(Dist), so network answers are bit-identical to
// the in-process serve.Server whatever the platform.
package netserve

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/coding"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/serve"
)

// bitWriterPool and bitReaderPool recycle the codec scratch of the hot
// path — one writer per in-flight encode, one reader per in-flight
// decode, returned after the bytes are flushed or fully copied out.
// Warm servers and clients encode and decode with zero codec
// allocation; EncodeRequest/EncodeResponse keep allocating fresh
// writers because their returned bytes escape.
var (
	bitWriterPool = sync.Pool{New: func() any { return coding.NewBitWriter() }}
	bitReaderPool = sync.Pool{New: func() any { return coding.NewBitReader(nil, 0) }}
)

const (
	// MsgMagic opens every message payload ("NS": netserve).
	MsgMagic uint64 = 0x4e53
	// ProtoVersion is the protocol version; decoders reject any other.
	ProtoVersion = 1

	// Message types, carried after the envelope.
	msgQuery  = 1 // client -> server: a batch of queries
	msgReply  = 2 // server -> client: positional results for one batch
	msgRefuse = 3 // server -> client: whole-message refusal

	// MaxBatchQueries caps the query count one frame may carry. The
	// count is attacker-controlled; the cap is checked before the
	// batch slice is allocated.
	MaxBatchQueries = 1 << 16
	// MaxErrBytes caps one serialized error message. Longer server-side
	// error strings are truncated at encode time, so the cap never
	// rejects a legitimate reply.
	MaxErrBytes = 1 << 10
	// MaxRouteLen caps route lengths and hop counts in replies
	// (routing's default hop budget is 4n+4 with n capped by
	// coding.MaxWireOrder, so honest replies stay far below it).
	MaxRouteLen = 1 << 26
	// MaxFrameBytes caps one length-prefixed frame on the stream —
	// the outermost allocation gate, mirroring schemeio.MaxFileSection.
	MaxFrameBytes = 1 << 26
)

// RefuseCode says why a server refused a whole message instead of
// answering it. Codes are part of the wire format: never renumber.
type RefuseCode uint8

const (
	// RefuseOverloaded: the admission-control semaphore is full. The
	// client should back off; the connection stays usable.
	RefuseOverloaded RefuseCode = 1
	// RefuseMalformed: the frame did not decode; the server closes the
	// connection after sending this (stream state is unrecoverable).
	RefuseMalformed RefuseCode = 2
	// RefuseShutdown: the server is draining and takes no new work.
	RefuseShutdown RefuseCode = 3
)

// String names the code for errors and logs.
func (c RefuseCode) String() string {
	switch c {
	case RefuseOverloaded:
		return "overloaded"
	case RefuseMalformed:
		return "malformed"
	case RefuseShutdown:
		return "shutdown"
	default:
		return fmt.Sprintf("refuse-%d", uint8(c))
	}
}

// Refusal is a decoded whole-message refusal. It implements error so
// DecodeResponse can return it through the ordinary error path while
// callers distinguish it (errors.As) from a malformed frame.
type Refusal struct {
	Code RefuseCode
	Msg  string
}

// Error implements error.
func (r *Refusal) Error() string {
	if r.Msg == "" {
		return fmt.Sprintf("netserve: server refused batch: %s", r.Code)
	}
	return fmt.Sprintf("netserve: server refused batch: %s (%s)", r.Code, r.Msg)
}

// QueryError is a per-query error that crossed the wire: the remote
// server's error message, verbatim. Keeping the message byte-exact is
// what lets a gathered cluster reply re-encode to the same bytes the
// shard sent — and lets the conformance suite compare sharded answers
// to the serial server by encoding both.
type QueryError struct{ Msg string }

// Error implements error.
func (e *QueryError) Error() string { return e.Msg }

// writeEnvelope opens a message: magic, version, type.
func writeEnvelope(w *coding.BitWriter, msgType uint64) {
	w.WriteBits(MsgMagic, 16)
	w.WriteUvarint(ProtoVersion)
	w.WriteUvarint(msgType)
}

// readEnvelope validates the message prefix and returns the type.
func readEnvelope(r *coding.BitReader) (uint64, error) {
	m, err := r.ReadBits(16)
	if err != nil {
		return 0, fmt.Errorf("netserve: message truncated: %w", err)
	}
	if m != MsgMagic {
		return 0, fmt.Errorf("netserve: bad message magic %#x (want %#x)", m, MsgMagic)
	}
	v, err := r.ReadUvarint()
	if err != nil {
		return 0, fmt.Errorf("netserve: protocol version: %w", err)
	}
	if v != ProtoVersion {
		return 0, fmt.Errorf("netserve: unsupported protocol version %d (this peer speaks %d)", v, ProtoVersion)
	}
	t, err := r.ReadUvarint()
	if err != nil {
		return 0, fmt.Errorf("netserve: message type: %w", err)
	}
	return t, nil
}

// finishPayload enforces the schemeio end-of-payload discipline: at
// most 7 trailing bits, all zero — the encoder's byte padding. A set
// pad bit or trailing bytes would let two byte strings alias one
// message, breaking the canonical-bytes contract.
func finishPayload(r *coding.BitReader) error {
	if r.Remaining() >= 8 {
		return fmt.Errorf("netserve: %d trailing bytes after message", r.Remaining()/8)
	}
	for r.Remaining() > 0 {
		b, err := r.ReadBit()
		if err != nil {
			return err
		}
		if b != 0 {
			return fmt.Errorf("netserve: nonzero padding bit after message")
		}
	}
	return nil
}

// EncodeRequest serializes a query batch. Batches must be non-empty,
// at most MaxBatchQueries long, with ops in the known set and node IDs
// inside [0, coding.MaxWireOrder) — the same ranges DecodeRequestInto
// enforces, so encode-side validation and decode-side acceptance agree
// bit for bit.
func EncodeRequest(qs []serve.Query) ([]byte, error) {
	w := coding.NewBitWriter()
	if err := AppendRequest(w, qs); err != nil {
		return nil, err
	}
	return w.Bytes(), nil
}

// AppendRequest is EncodeRequest onto a caller-owned writer (reset
// first for a standalone message) — the pooled-scratch form the
// cluster's shard calls use so a warm client encodes with no writer
// allocation.
//
//repolint:hotpath
func AppendRequest(w *coding.BitWriter, qs []serve.Query) error {
	if len(qs) == 0 {
		return fmt.Errorf("netserve: empty query batch")
	}
	if len(qs) > MaxBatchQueries {
		return fmt.Errorf("netserve: batch of %d queries exceeds limit %d", len(qs), MaxBatchQueries)
	}
	writeEnvelope(w, msgQuery)
	w.WriteUvarint(uint64(len(qs)))
	for i, q := range qs {
		if q.Op > serve.OpStretch {
			return fmt.Errorf("netserve: query %d: unknown op %d", i, q.Op)
		}
		if q.U < 0 || uint64(q.U) >= coding.MaxWireOrder || q.V < 0 || uint64(q.V) >= coding.MaxWireOrder {
			return fmt.Errorf("netserve: query %d: pair %d->%d outside wire range [0,%d)", i, q.U, q.V, coding.MaxWireOrder)
		}
		w.WriteUvarint(uint64(q.Op))
		w.WriteUvarint(uint64(q.U))
		w.WriteUvarint(uint64(q.V))
	}
	return nil
}

// DecodeRequestInto parses a query batch. Malformed bytes error without
// panicking; the count cap is checked before the batch allocation; an
// accepted batch re-encodes to the identical bytes. scratch is a
// caller-recycled query slice (nil allocates): its backing array is
// reused when it is big enough (queries are plain values, nothing from
// earlier batches survives in them). The server's per-connection loop passes each batch's slice
// back in, so a warm connection decodes requests with zero slice
// allocation.
//
//repolint:hotpath
func DecodeRequestInto(payload []byte, scratch []serve.Query) ([]serve.Query, error) {
	r := bitReaderPool.Get().(*coding.BitReader)
	defer bitReaderPool.Put(r)
	r.Reset(payload, len(payload)*8)
	t, err := readEnvelope(r)
	if err != nil {
		return nil, err
	}
	if t != msgQuery {
		return nil, fmt.Errorf("netserve: message type %d is not a query batch", t)
	}
	count, err := r.ReadUvarint()
	if err != nil {
		return nil, fmt.Errorf("netserve: query count: %w", err)
	}
	if count == 0 {
		return nil, fmt.Errorf("netserve: empty query batch")
	}
	if count > MaxBatchQueries {
		return nil, fmt.Errorf("netserve: batch of %d queries exceeds limit %d", count, MaxBatchQueries)
	}
	var qs []serve.Query
	if uint64(cap(scratch)) >= count {
		qs = scratch[:count]
	} else {
		qs = make([]serve.Query, count)
	}
	for i := range qs {
		op, err := r.ReadUvarint()
		if err != nil {
			return nil, fmt.Errorf("netserve: query %d op: %w", i, err)
		}
		if op > uint64(serve.OpStretch) {
			return nil, fmt.Errorf("netserve: query %d: unknown op %d", i, op)
		}
		u, err := r.ReadUvarint()
		if err != nil {
			return nil, fmt.Errorf("netserve: query %d source: %w", i, err)
		}
		v, err := r.ReadUvarint()
		if err != nil {
			return nil, fmt.Errorf("netserve: query %d destination: %w", i, err)
		}
		if u >= coding.MaxWireOrder || v >= coding.MaxWireOrder {
			return nil, fmt.Errorf("netserve: query %d: pair %d->%d outside wire range [0,%d)", i, u, v, coding.MaxWireOrder)
		}
		qs[i] = serve.Query{Op: serve.Op(op), U: graph.NodeID(u), V: graph.NodeID(v)}
	}
	if err := finishPayload(r); err != nil {
		return nil, err
	}
	return qs, nil
}

// Per-result tags inside a reply. The tag is derived from the result
// shape at encode time and reproduced exactly at decode time, so the
// mapping is a bijection and replies stay canonical.
const (
	tagErr     = 0 // Err != nil: error message string
	tagLen     = 1 // OpLen answer: Len
	tagRoute   = 2 // OpRoute answer: Len + hop sequence
	tagStretch = 3 // OpStretch answer: Len + Dist (stretch recomputed)
)

// EncodeResponse serializes positional results. Error messages longer
// than MaxErrBytes are truncated (the cap must never make an honest
// reply unsendable); everything else must be in range, which it is for
// every result an in-process serve.Server produces on a graph the wire
// header could carry.
func EncodeResponse(rs []serve.Result) ([]byte, error) {
	w := coding.NewBitWriter()
	if err := AppendResponse(w, rs); err != nil {
		return nil, err
	}
	return w.Bytes(), nil
}

// AppendResponse is EncodeResponse onto a caller-owned writer (reset
// first for a standalone message) — the pooled-scratch form the
// server's reply path uses: encode into a pooled writer, flush the
// frame, return the writer. Zero encode allocation per warm batch.
//
//repolint:hotpath
func AppendResponse(w *coding.BitWriter, rs []serve.Result) error {
	if len(rs) == 0 {
		return fmt.Errorf("netserve: empty result batch")
	}
	if len(rs) > MaxBatchQueries {
		return fmt.Errorf("netserve: batch of %d results exceeds limit %d", len(rs), MaxBatchQueries)
	}
	writeEnvelope(w, msgReply)
	w.WriteUvarint(uint64(len(rs)))
	for i, res := range rs {
		switch {
		case res.Err != nil:
			w.WriteUvarint(tagErr)
			writeString(w, res.Err.Error())
		case res.Hops != nil:
			if res.Len < 0 || res.Len > MaxRouteLen || len(res.Hops) > MaxRouteLen {
				return fmt.Errorf("netserve: result %d: route of %d hops (len %d) exceeds limit %d", i, len(res.Hops), res.Len, MaxRouteLen)
			}
			w.WriteUvarint(tagRoute)
			w.WriteUvarint(uint64(res.Len))
			w.WriteUvarint(uint64(len(res.Hops)))
			for _, h := range res.Hops {
				if h.Node < 0 || uint64(h.Node) >= coding.MaxWireOrder || h.Port < 0 || uint64(h.Port) >= coding.MaxWireOrder {
					return fmt.Errorf("netserve: result %d: hop %d[%d] outside wire range", i, h.Node, h.Port)
				}
				w.WriteUvarint(uint64(h.Node))
				w.WriteUvarint(uint64(h.Port))
			}
		case res.Dist != 0:
			if res.Len < 0 || res.Len > MaxRouteLen || res.Dist < 0 {
				return fmt.Errorf("netserve: result %d: stretch answer (len %d, dist %d) out of range", i, res.Len, res.Dist)
			}
			w.WriteUvarint(tagStretch)
			w.WriteUvarint(uint64(res.Len))
			w.WriteUvarint(uint64(res.Dist))
		default:
			if res.Len < 0 || res.Len > MaxRouteLen {
				return fmt.Errorf("netserve: result %d: len %d out of range", i, res.Len)
			}
			w.WriteUvarint(tagLen)
			w.WriteUvarint(uint64(res.Len))
		}
	}
	return nil
}

// DecodeResponse parses a reply. A refusal frame decodes successfully
// into a *Refusal returned through the error path (errors.As separates
// it from a genuinely malformed frame). Accepted replies re-encode to
// the identical bytes: per-query errors come back as *QueryError
// carrying the remote message verbatim, and a stretch answer's float
// is recomputed from the integers on the wire.
//
//repolint:hotpath
func DecodeResponse(payload []byte) ([]serve.Result, error) {
	r := bitReaderPool.Get().(*coding.BitReader)
	defer bitReaderPool.Put(r)
	r.Reset(payload, len(payload)*8)
	t, err := readEnvelope(r)
	if err != nil {
		return nil, err
	}
	if t == msgRefuse {
		code, err := r.ReadUvarint()
		if err != nil {
			return nil, fmt.Errorf("netserve: refusal code: %w", err)
		}
		if code == 0 || code > uint64(RefuseShutdown) {
			return nil, fmt.Errorf("netserve: unknown refusal code %d", code)
		}
		msg, err := readString(r)
		if err != nil {
			return nil, fmt.Errorf("netserve: refusal message: %w", err)
		}
		if err := finishPayload(r); err != nil {
			return nil, err
		}
		return nil, &Refusal{Code: RefuseCode(code), Msg: msg}
	}
	if t != msgReply {
		return nil, fmt.Errorf("netserve: message type %d is not a reply", t)
	}
	count, err := r.ReadUvarint()
	if err != nil {
		return nil, fmt.Errorf("netserve: result count: %w", err)
	}
	if count == 0 {
		return nil, fmt.Errorf("netserve: empty result batch")
	}
	if count > MaxBatchQueries {
		return nil, fmt.Errorf("netserve: batch of %d results exceeds limit %d", count, MaxBatchQueries)
	}
	rs := make([]serve.Result, count)
	for i := range rs {
		tag, err := r.ReadUvarint()
		if err != nil {
			return nil, fmt.Errorf("netserve: result %d tag: %w", i, err)
		}
		switch tag {
		case tagErr:
			msg, err := readString(r)
			if err != nil {
				return nil, fmt.Errorf("netserve: result %d error: %w", i, err)
			}
			rs[i] = serve.Result{Err: &QueryError{Msg: msg}}
		case tagLen:
			l, err := r.ReadUvarint()
			if err != nil {
				return nil, fmt.Errorf("netserve: result %d len: %w", i, err)
			}
			if l > MaxRouteLen {
				return nil, fmt.Errorf("netserve: result %d: len %d exceeds limit %d", i, l, MaxRouteLen)
			}
			rs[i] = serve.Result{Len: int(l)}
		case tagRoute:
			l, err := r.ReadUvarint()
			if err != nil {
				return nil, fmt.Errorf("netserve: result %d len: %w", i, err)
			}
			hops, err := r.ReadUvarint()
			if err != nil {
				return nil, fmt.Errorf("netserve: result %d hop count: %w", i, err)
			}
			if l > MaxRouteLen || hops > MaxRouteLen {
				return nil, fmt.Errorf("netserve: result %d: route of %d hops (len %d) exceeds limit %d", i, hops, l, MaxRouteLen)
			}
			hs := make([]routing.Hop, hops)
			for j := range hs {
				node, err := r.ReadUvarint()
				if err != nil {
					return nil, fmt.Errorf("netserve: result %d hop %d node: %w", i, j, err)
				}
				port, err := r.ReadUvarint()
				if err != nil {
					return nil, fmt.Errorf("netserve: result %d hop %d port: %w", i, j, err)
				}
				if node >= coding.MaxWireOrder || port >= coding.MaxWireOrder {
					return nil, fmt.Errorf("netserve: result %d: hop %d[%d] outside wire range", i, node, port)
				}
				hs[j] = routing.Hop{Node: graph.NodeID(node), Port: graph.Port(port)}
			}
			rs[i] = serve.Result{Len: int(l), Hops: hs}
		case tagStretch:
			l, err := r.ReadUvarint()
			if err != nil {
				return nil, fmt.Errorf("netserve: result %d len: %w", i, err)
			}
			d, err := r.ReadUvarint()
			if err != nil {
				return nil, fmt.Errorf("netserve: result %d dist: %w", i, err)
			}
			if l > MaxRouteLen {
				return nil, fmt.Errorf("netserve: result %d: len %d exceeds limit %d", i, l, MaxRouteLen)
			}
			if d == 0 || d > math.MaxInt32 {
				return nil, fmt.Errorf("netserve: result %d: distance %d outside [1,%d]", i, d, math.MaxInt32)
			}
			rs[i] = serve.Result{Len: int(l), Dist: int32(d), Stretch: float64(l) / float64(d)}
		default:
			return nil, fmt.Errorf("netserve: result %d: unknown tag %d", i, tag)
		}
	}
	if err := finishPayload(r); err != nil {
		return nil, err
	}
	return rs, nil
}

// EncodeRefusal serializes a whole-message refusal. Messages longer
// than MaxErrBytes are truncated like per-query errors.
func EncodeRefusal(code RefuseCode, msg string) []byte {
	w := coding.NewBitWriter()
	writeEnvelope(w, msgRefuse)
	w.WriteUvarint(uint64(code))
	writeString(w, msg)
	return w.Bytes()
}

// writeString appends a uvarint-length-prefixed byte string, truncated
// to MaxErrBytes so the decode-side cap never rejects an honest peer.
func writeString(w *coding.BitWriter, s string) {
	if len(s) > MaxErrBytes {
		s = s[:MaxErrBytes]
	}
	w.WriteUvarint(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		w.WriteBits(uint64(s[i]), 8)
	}
}

// readString consumes a length-prefixed byte string, cap-checked
// before allocation.
func readString(r *coding.BitReader) (string, error) {
	n, err := r.ReadUvarint()
	if err != nil {
		return "", err
	}
	if n > MaxErrBytes {
		return "", fmt.Errorf("netserve: message string of %d bytes exceeds limit %d", n, MaxErrBytes)
	}
	buf := make([]byte, n)
	for i := range buf {
		b, err := r.ReadBits(8)
		if err != nil {
			return "", err
		}
		buf[i] = byte(b)
	}
	return string(buf), nil
}
