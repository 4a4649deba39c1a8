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
	"math/bits"
	"slices"
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

// WriteFixedFrom appends len(src) consecutive fields of width bits
// (0..32), most significant first, each the low width bits of
// src[i]-bias: the writer-side twin of ReadFixedInto, for rows stored
// with an offset (ports are written as port-1). The buffer grows once
// for the whole run; fields are shifted into a 64-bit accumulator whose
// top 32 pending bits are stored whenever that many are pending.
func (w *BitWriter) WriteFixedFrom(src []int32, bias int32, width int) {
	if width < 0 || width > 32 {
		panic("coding: fixed field width out of range")
	}
	if width == 0 || len(src) == 0 {
		return
	}
	// The partial last byte goes back into the accumulator, so every
	// store below starts on a byte boundary at out. pending < 32 bits
	// wait, right-aligned, in acc; bits above them are already stored.
	out := len(w.buf)
	var acc uint64
	pending := w.nbit & 7
	if pending != 0 {
		out--
		acc = uint64(w.buf[out] >> uint(8-pending))
	}
	w.nbit += len(src) * width
	end := (w.nbit + 7) >> 3
	buf := slices.Grow(w.buf, end+8-len(w.buf))[:end+8] // the last store writes a whole word
	mask := uint64(1)<<uint(width) - 1
	for _, f := range src {
		acc = acc<<uint(width) | uint64(uint32(f-bias))&mask
		if pending += width; pending >= 32 {
			pending -= 32
			binary.BigEndian.PutUint32(buf[out:], uint32(acc>>uint(pending)))
			out += 4
		}
	}
	binary.BigEndian.PutUint64(buf[out:], acc<<uint(64-pending))
	w.buf = buf[:end]
}

// WriteBitsFrom appends bits [off, off+nbits) of src, most significant
// bit of each byte first — the bulk copy of a bit string that another
// writer produced, at any source and destination phase. The span must
// lie inside src. The buffer grows once; each 64-bit store takes one
// unaligned window of src (a word and the byte after it), and the
// partial last byte of the writer goes into the first store.
func (w *BitWriter) WriteBitsFrom(src []byte, off, nbits int) {
	if off < 0 || nbits < 0 || nbits > len(src)*8-off {
		panic("coding: source bits out of range")
	}
	if nbits == 0 {
		return
	}
	out, used := len(w.buf), w.nbit&7
	var head uint64 // the bits of the partial last byte, left-justified
	if used != 0 {
		out--
		head = uint64(w.buf[out]) << 56
	}
	w.nbit += nbits
	end := (w.nbit + 7) >> 3
	buf := slices.Grow(w.buf, end+8-len(w.buf))[:end+8] // every store writes a whole word
	binary.BigEndian.PutUint64(buf[out:], head|srcWindow(src, off)>>uint(used))
	for o, s := out+8, off+64-used; o < end; o, s = o+8, s+64 {
		binary.BigEndian.PutUint64(buf[o:], srcWindow(src, s))
	}
	if tail := w.nbit & 7; tail != 0 {
		buf[end-1] &^= 0xff >> uint(tail) // source bits past the span
	}
	w.buf = buf[:end]
}

// srcWindow returns the 64 bits of src from bit s on, zero past its
// end.
func srcWindow(src []byte, s int) uint64 {
	i, sh := s>>3, uint(s&7)
	if i+9 <= len(src) {
		return binary.BigEndian.Uint64(src[i:])<<sh | uint64(src[i+8])>>(8-sh)
	}
	var v uint64
	for j := i; j < i+8; j++ {
		v <<= 8
		if j < len(src) {
			v |= uint64(src[j])
		}
	}
	return v << sh // src ends before byte i+8
}

// Grow makes room for nbits more bits, so a writer whose final length
// is known up front fills one buffer instead of growing it step by step.
func (w *BitWriter) Grow(nbits int) {
	w.buf = slices.Grow(w.buf, (w.nbit+nbits+7)>>3+8-len(w.buf))
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

// Bytes returns the buffer the reader reads from, so a span already
// read can be copied out whole (BitWriter.WriteBitsFrom).
func (r *BitReader) Bytes() []byte { return r.buf }

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

// ReadFixedInto consumes len(dst) consecutive fields of width bits
// (0..32) into dst, most significant first, each stored as
// int32(ReadBits(width)). Bounds are checked once for the whole run:
// a run longer than what remains consumes the rest and fails with
// "read past end at bit nbit", like ReadBits, leaving dst unwritten.
// Fields come out of 64-bit big-endian windows, as many per window as
// it holds; the fields in the last 7 bytes of buf fall back to ReadBits.
func (r *BitReader) ReadFixedInto(dst []int32, width int) error {
	if width < 0 || width > 32 {
		return fmt.Errorf("coding: fixed field width %d out of range [0,32]", width)
	}
	if len(dst)*width > r.nbit-r.pos {
		r.pos = r.nbit
		return fmt.Errorf("coding: read past end at bit %d", r.pos)
	}
	if width == 0 {
		clear(dst)
		return nil
	}
	buf, pos, i := r.buf, r.pos, 0
	for i < len(dst) && pos>>3+8 <= len(buf) {
		sh := pos & 7
		w := binary.BigEndian.Uint64(buf[pos>>3:]) << uint(sh)
		k := min((64-sh)/width, len(dst)-i)
		for j := i; j < i+k; j++ {
			dst[j] = int32(w >> uint(64-width))
			w <<= uint(width)
		}
		i += k
		pos += k * width
	}
	r.pos = pos
	for ; i < len(dst); i++ {
		v, _ := r.ReadBits(width) // in bounds: checked above
		dst[i] = int32(v)
	}
	return nil
}

// FieldRangeError is ScanFixed's report of the first field not below
// its limit.
type FieldRangeError struct {
	Value, Limit uint64
}

func (e *FieldRangeError) Error() string {
	return fmt.Sprintf("coding: field %d not below %d", e.Value, e.Limit)
}

// ScanFixed consumes count consecutive fields of width bits (0..32),
// the fields ReadFixedInto would unpack, without storing them. It
// returns runs, the number of maximal runs of equal consecutive
// fields, and runs2, the number of those runs of length two or more,
// and fails with a *FieldRangeError naming the first field that is not
// below limit. Bounds are checked first, as in ReadFixedInto: a scan
// longer than what remains consumes the rest and fails with "read past
// end at bit nbit". Otherwise all count fields are consumed, also when
// one is out of range.
//
// The fields are checked in SWAR lanes, 64/width to a 64-bit window,
// each in its own width-bit slice of the word (lane 0, the first field,
// at the top). Per window, one subtraction over the lanes with their top
// bits set compares every field with limit, and the window XOR-ed with
// itself shifted one field marks the lanes that differ from the field
// before them; the last field and its "equal to the one before" flag
// carry into the next window.
//
//repolint:hotpath
func (r *BitReader) ScanFixed(count, width int, limit uint64) (runs, runs2 int, err error) {
	if width < 0 || width > 32 {
		return 0, 0, fmt.Errorf("coding: fixed field width %d out of range [0,32]", width)
	}
	if count < 0 {
		return 0, 0, fmt.Errorf("coding: field count %d is negative", count)
	}
	if count*width > r.nbit-r.pos {
		r.pos = r.nbit
		return 0, 0, fmt.Errorf("coding: read past end at bit %d", r.pos)
	}
	if count == 0 {
		return 0, 0, nil
	}
	if width == 0 {
		if limit == 0 {
			return 0, 0, &FieldRangeError{Value: 0, Limit: limit}
		}
		return 1, min(count-1, 1), nil
	}
	w := uint(width)
	lanes := 64 / width
	// top has each lane's top bit set, low each lane's other bits, lim
	// each lane's low bits of limit. A lane's field f is below limit
	// iff limit's top bit is above f's, or the top bits agree and
	// f's low bits are below limit's; (f|top) - lim keeps its lane's
	// top bit exactly when f's low bits are not below limit's, and
	// borrows from no other lane.
	var top, lim uint64
	for j := 0; j < lanes; j++ {
		top |= 1 << (63 - uint(j)*w)
		lim |= (limit & (1<<(w-1) - 1)) << (64 - uint(j+1)*w)
	}
	step := uint(lanes) * w
	low := ^uint64(0) << (64 - step) &^ top
	checked := top // the lanes range-checked: none if limit >= 2^width
	if limit>>w != 0 {
		checked = 0
	}
	topOr := top // if limit's top bit is clear, a field's set top bit is out of range
	if limit>>(w-1)&1 != 0 {
		topOr = 0
	}
	buf, pos, end := r.buf, r.pos, r.pos+count*width
	r.pos = end
	// carry holds the field before the window in lane 0, and eqLast at
	// bit 63 whether that field equals the one before it. The first field
	// starts a run, so it is preceded by itself with its low bit flipped.
	carry := srcWindow(buf, pos)&^(^uint64(0)>>w) ^ 1<<(64-w)
	var eqLast uint64
	for pos < end {
		used := min(step, uint(end-pos))
		valid := ^uint64(0) << ((64 - used) & 63)
		x := srcWindow(buf, pos) & valid
		ge := (x | top) - lim
		if bad := (ge&(x|topOr) | x&topOr) & checked & valid; bad != 0 {
			j := uint(bits.LeadingZeros64(bad)) / w
			v := x << (j * w & 63) >> ((64 - w) & 63)
			return 0, 0, &FieldRangeError{Value: v, Limit: limit}
		}
		d := x ^ (x>>(w&63) | carry)
		live := top & valid
		ne := ((d&low + low) | d) & live
		eq := live &^ ne
		runs += bits.OnesCount64(ne)
		runs2 += bits.OnesCount64(eq &^ (eq>>(w&63) | eqLast))
		carry = x << ((used - w) & 63)
		eqLast = eq << ((used - w) & 63)
		pos += int(used)
	}
	return runs, runs2, nil
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
