package netserve

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// This file is the stream layer under the message codecs: each message
// payload travels as one frame, a byte-oriented binary uvarint length
// prefix followed by the payload bytes — the same framing discipline
// schemeio uses for its file sections, with the same rule that the
// attacker-controlled length passes its cap before any allocation.
// Frames carry no sequencing state: the protocol is strictly
// request/reply per connection (a client wanting pipelining opens more
// connections, which is what the cluster's per-shard pool does).

// writeFrame appends one length-prefixed frame to w.
func writeFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrameBytes {
		return fmt.Errorf("netserve: frame of %d bytes exceeds limit %d", len(payload), MaxFrameBytes)
	}
	var lenBuf [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(lenBuf[:], uint64(len(payload)))
	if _, err := w.Write(lenBuf[:k]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// frameGrowChunk is the smallest buffer grown for a frame body that
// does not fit the caller's scratch.
const frameGrowChunk = 64 << 10

// readFrameInto consumes one frame. A declared length beyond
// MaxFrameBytes is an error before any buffer is allocated; a
// zero-length frame is an error too (no message encodes to zero bytes,
// so accepting one would only desynchronize the stream later). The
// payload is read into the caller-recycled *scratch when it is large
// enough, and a larger buffer replaces *scratch otherwise. Both loop ends — the server's
// per-connection read loop and the client's pooled connections — hold
// one scratch per stream, so a warm connection reads frames with zero
// buffer allocation. A frame larger than the scratch is read into a
// buffer that doubles as bytes arrive — from at least frameGrowChunk,
// never past the declared length — so what a peer can make this side
// allocate is bounded by about twice the bytes it actually sent, not by
// the length it declared. The returned slice aliases the scratch and is
// valid only until the next call; every decoder above this layer copies
// what it keeps.
func readFrameInto(r *bufio.Reader, scratch *[]byte) ([]byte, error) {
	length, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	if length == 0 {
		return nil, fmt.Errorf("netserve: zero-length frame")
	}
	if length > MaxFrameBytes {
		return nil, fmt.Errorf("netserve: frame of %d bytes exceeds limit %d", length, MaxFrameBytes)
	}
	n := int(length)
	buf := (*scratch)[:0]
	for len(buf) < n {
		if len(buf) == cap(buf) {
			grown := make([]byte, len(buf), min(max(2*cap(buf), frameGrowChunk), n))
			copy(grown, buf)
			buf = grown
			*scratch = buf
		}
		k, err := io.ReadFull(r, buf[len(buf):min(cap(buf), n)])
		buf = buf[:len(buf)+k]
		if err != nil {
			if err == io.EOF && len(buf) > 0 {
				err = io.ErrUnexpectedEOF // the body ended between chunks
			}
			return nil, fmt.Errorf("netserve: frame body: %w", err)
		}
	}
	return buf, nil
}
