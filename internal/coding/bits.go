// Package coding implements the fixed, self-delimiting coding strategy
// under which the repository measures memory requirements.
//
// The paper defines MEM(G,R,x) as the Kolmogorov complexity of the local
// computation of R at x "for a fixed coding strategy". Kolmogorov
// complexity is uncomputable, so experiments need a concrete stand-in that
// is (a) fixed in advance, (b) self-delimiting, and (c) reasonably tight
// on the structures that appear in routing tables. This package is that
// strategy: a bit-granular writer/reader plus the codes the schemes
// encode with — fixed width, unary, Elias gamma, LEB128 varints and
// permutation (Lehmer/factoradic) ranks. Measured sizes are honest upper
// bounds on Kolmogorov complexity up to an additive constant (the
// decoder program).
package coding

import (
	"encoding/binary"
	"fmt"
)

// BitWriter accumulates bits most-significant-first into a byte slice.
// buf always holds exactly ceil(nbit/8) bytes, with the unused low bits
// of the last byte zero; bytes past len(buf) in its capacity may hold
// stale data and are overwritten, never or-ed into, when the writer
// grows.
type BitWriter struct {
	buf  []byte
	nbit int // total bits written
}

// NewBitWriter returns an empty writer.
func NewBitWriter() *BitWriter { return &BitWriter{} }

// Reset rewinds the writer to empty while keeping its buffer capacity,
// so pooled writers (netserve's per-connection scratch) stop allocating
// once warm. The slice returned by an earlier Bytes() is overwritten by
// subsequent writes — callers must copy or consume it before resetting.
func (w *BitWriter) Reset() {
	w.buf = w.buf[:0]
	w.nbit = 0
}

// Len returns the number of bits written so far.
func (w *BitWriter) Len() int { return w.nbit }

// Bytes returns the written bits padded with zeros to a byte boundary.
func (w *BitWriter) Bytes() []byte { return w.buf }

// WriteBit appends a single bit (any non-zero b writes 1).
func (w *BitWriter) WriteBit(b uint) {
	if w.nbit%8 == 0 {
		w.buf = append(w.buf, 0)
	}
	if b != 0 {
		w.buf[w.nbit/8] |= 1 << (7 - uint(w.nbit%8))
	}
	w.nbit++
}

// WriteBits appends the width lowest bits of v, most significant first.
// width may be 0 (writes nothing) up to 64; bits of v above width are
// ignored. The bits go in as at most one partial-byte top-up plus one
// 64-bit store.
func (w *BitWriter) WriteBits(v uint64, width int) {
	if width < 0 || width > 64 {
		panic("coding: width out of range")
	}
	if width == 0 {
		return
	}
	u := v << uint(64-width) // left-justified; bits above width shift out
	if used := w.nbit & 7; used != 0 {
		free := 8 - used
		w.buf[len(w.buf)-1] |= byte(u >> uint(56+used))
		if width <= free {
			w.nbit += width
			return
		}
		u <<= uint(free)
		width -= free
		w.nbit += free
	}
	// Byte-aligned: store a whole word, then keep only the bytes the
	// remaining width covers. The dropped tail bytes stay in capacity,
	// where the next write overwrites them.
	w.buf = binary.BigEndian.AppendUint64(w.buf, u)
	w.buf = w.buf[:len(w.buf)-8+(width+7)>>3]
	w.nbit += width
}

// BitReader consumes bits most-significant-first from a byte slice.
type BitReader struct {
	buf  []byte
	pos  int // next bit index
	nbit int // total readable bits
}

// NewBitReader reads from buf, exposing nbit bits (pass len(buf)*8 to read
// everything).
func NewBitReader(buf []byte, nbit int) *BitReader {
	if nbit > len(buf)*8 {
		panic("coding: nbit exceeds buffer")
	}
	return &BitReader{buf: buf, nbit: nbit}
}

// NewBitReaderAt reads from buf like NewBitReader but starts at bit
// offset off — the random-access entry the mapped scheme container uses
// to decode one router's payload span without scanning everything
// before it. off must lie inside [0, nbit].
func NewBitReaderAt(buf []byte, off, nbit int) *BitReader {
	if nbit > len(buf)*8 {
		panic("coding: nbit exceeds buffer")
	}
	if off < 0 || off > nbit {
		panic("coding: start offset outside buffer")
	}
	return &BitReader{buf: buf, pos: off, nbit: nbit}
}

// Reset repoints the reader at buf (exposing nbit bits from the start),
// reusing the struct — the reader-side twin of BitWriter.Reset for
// pooled decode scratch.
func (r *BitReader) Reset(buf []byte, nbit int) {
	if nbit > len(buf)*8 {
		panic("coding: nbit exceeds buffer")
	}
	r.buf, r.pos, r.nbit = buf, 0, nbit
}

// Pos returns the number of bits consumed so far.
func (r *BitReader) Pos() int { return r.pos }

// Remaining returns the number of unread bits.
func (r *BitReader) Remaining() int { return r.nbit - r.pos }

// ReadBit consumes and returns one bit.
func (r *BitReader) ReadBit() (uint, error) {
	if r.pos >= r.nbit {
		return 0, fmt.Errorf("coding: read past end at bit %d", r.pos)
	}
	b := (r.buf[r.pos/8] >> (7 - uint(r.pos%8))) & 1
	r.pos++
	return uint(b), nil
}

// ReadBits consumes width bits and returns them as the low bits of a
// uint64, most significant first. A read of more bits than remain
// consumes the rest and fails with "read past end at bit nbit".
func (r *BitReader) ReadBits(width int) (uint64, error) {
	if width < 0 || width > 64 {
		return 0, fmt.Errorf("coding: read width %d out of range [0,64]", width)
	}
	if width > r.nbit-r.pos {
		r.pos = r.nbit
		return 0, fmt.Errorf("coding: read past end at bit %d", r.pos)
	}
	if width == 0 {
		return 0, nil
	}
	if width > 56 {
		// One window holds at least 57 bits past pos; split wider reads.
		hi := r.window() >> 32
		r.pos += 32
		lo := r.window() >> uint(96-width)
		r.pos += width - 32
		return hi<<uint(width-32) | lo, nil
	}
	v := r.window() >> uint(64-width)
	r.pos += width
	return v, nil
}

// window returns the buffer bits from pos on, left-justified in a
// uint64: at least 57 of them are buffer bits (fewer near the end of
// buf, zero-filled below). Bits at or past nbit may be among them;
// callers only ever keep bits below nbit.
func (r *BitReader) window() uint64 {
	i := r.pos >> 3
	var w uint64
	if i+8 <= len(r.buf) {
		w = binary.BigEndian.Uint64(r.buf[i:])
	} else {
		for j := i; j < i+8; j++ {
			w <<= 8
			if j < len(r.buf) {
				w |= uint64(r.buf[j])
			}
		}
	}
	return w << uint(r.pos&7)
}

// BitsFor returns the minimum width in bits needed to store values in
// [0, n), i.e. ceil(log2 n), with BitsFor(0) = BitsFor(1) = 0.
func BitsFor(n uint64) int {
	if n <= 1 {
		return 0
	}
	w := 0
	for v := n - 1; v > 0; v >>= 1 {
		w++
	}
	return w
}
