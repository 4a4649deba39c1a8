package coding

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/xrand"
)

// refBitWriter and refBitReader are the bit-at-a-time kernels: one call
// and one bounds check per bit. They are the specification the word
// kernels in bits.go and varint.go must match bit for bit, position for
// position and error text for error text.
type refBitWriter struct {
	buf  []byte
	nbit int
}

func (w *refBitWriter) Reset() { w.buf, w.nbit = w.buf[:0], 0 }

func (w *refBitWriter) WriteBit(b uint) {
	if w.nbit%8 == 0 {
		w.buf = append(w.buf, 0)
	}
	if b != 0 {
		w.buf[w.nbit/8] |= 1 << (7 - uint(w.nbit%8))
	}
	w.nbit++
}

func (w *refBitWriter) WriteBits(v uint64, width int) {
	if width < 0 || width > 64 {
		panic("coding: width out of range")
	}
	for i := width - 1; i >= 0; i-- {
		w.WriteBit(uint((v >> uint(i)) & 1))
	}
}

func (w *refBitWriter) WriteFixedFrom(src []int32, bias int32, width int) {
	if width < 0 || width > 32 {
		panic("coding: fixed field width out of range")
	}
	for _, f := range src {
		w.WriteBits(uint64(uint32(f-bias)), width)
	}
}

func (w *refBitWriter) WriteBitsFrom(src []byte, off, nbits int) {
	if off < 0 || nbits < 0 || nbits > len(src)*8-off {
		panic("coding: source bits out of range")
	}
	for i := off; i < off+nbits; i++ {
		w.WriteBit(uint(src[i/8]>>(7-uint(i%8))) & 1)
	}
}

func (w *refBitWriter) WriteUnary(v uint64) {
	for i := uint64(0); i < v; i++ {
		w.WriteBit(1)
	}
	w.WriteBit(0)
}

type refBitReader struct {
	buf       []byte
	pos, nbit int
}

func (r *refBitReader) ReadBit() (uint, error) {
	if r.pos >= r.nbit {
		return 0, fmt.Errorf("coding: read past end at bit %d", r.pos)
	}
	b := (r.buf[r.pos/8] >> (7 - uint(r.pos%8))) & 1
	r.pos++
	return uint(b), nil
}

func (r *refBitReader) ReadBits(width int) (uint64, error) {
	if width < 0 || width > 64 {
		return 0, fmt.Errorf("coding: read width %d out of range [0,64]", width)
	}
	var v uint64
	for i := 0; i < width; i++ {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		v = v<<1 | uint64(b)
	}
	return v, nil
}

func (r *refBitReader) ReadUnary() (uint64, error) {
	var v uint64
	for {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		if b == 0 {
			return v, nil
		}
		v++
	}
}

func (r *refBitReader) ReadFixedInto(dst []int32, width int) error {
	if width < 0 || width > 32 {
		return fmt.Errorf("coding: fixed field width %d out of range [0,32]", width)
	}
	for i := range dst {
		v, err := r.ReadBits(width)
		if err != nil {
			return err
		}
		dst[i] = int32(v)
	}
	return nil
}

// opStream feeds a differential run its choices; past the end it
// yields zeros, so every byte string is a valid program.
type opStream struct {
	b []byte
	i int
}

func (s *opStream) done() bool { return s.i >= len(s.b) }

func (s *opStream) next() byte {
	if s.done() {
		return 0
	}
	c := s.b[s.i]
	s.i++
	return c
}

func (s *opStream) u64() uint64 {
	var v uint64
	for k := 0; k < 8; k++ {
		v = v<<8 | uint64(s.next())
	}
	return v
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

func panics(f func()) (msg string) {
	defer func() {
		if p := recover(); p != nil {
			msg = fmt.Sprint(p)
		}
	}()
	f()
	return ""
}

// checkBitOps runs the program in prog against both kernels: a write
// phase (bits, words of every width with junk above width, unary runs,
// Grow plus WriteFixedFrom runs of any bias, Grow plus WriteBitsFrom
// spans of any phase, in range or not, resets, bad widths), then a read
// phase over the written bytes with
// junk past nbit, a chosen nbit and start offset, and reads of every
// width, in and out of range, including ones that run past nbit, one
// field at a time or as a ReadFixedInto run.
func checkBitOps(t *testing.T, prog []byte) {
	t.Helper()
	s := &opStream{b: prog}
	w, rw := NewBitWriter(), &refBitWriter{}
	for steps := 0; !s.done() && steps < 256; steps++ {
		op := s.next() % 10
		if op == 8 {
			break
		}
		switch op {
		case 0:
			b := uint(s.next())
			w.WriteBit(b)
			rw.WriteBit(b)
		case 1, 2, 3:
			width, v := int(s.next()%65), s.u64()
			w.WriteBits(v, width)
			rw.WriteBits(v, width)
		case 4:
			v := uint64(s.next())
			w.WriteUnary(v)
			rw.WriteUnary(v)
		case 5:
			w.Reset()
			rw.Reset()
		case 6:
			width := []int{-1, 65, 1 << 20}[s.next()%3]
			got := panics(func() { w.WriteBits(1, width) })
			want := panics(func() { rw.WriteBits(1, width) })
			if got != want {
				t.Fatalf("WriteBits(1, %d) panic %q, reference %q", width, got, want)
			}
		case 7:
			width, bias := int(s.next()%35)-1, int32(s.u64())
			src := make([]int32, s.next()%48)
			for i := range src {
				src[i] = int32(s.u64())
			}
			w.Grow(int(s.next())) // capacity only: nothing observable changes
			got := panics(func() { w.WriteFixedFrom(src, bias, width) })
			want := panics(func() { rw.WriteFixedFrom(src, bias, width) })
			if got != want {
				t.Fatalf("WriteFixedFrom(%d x %d bits) panic %q, reference %q", len(src), width, got, want)
			}
		case 9:
			src := make([]byte, s.next()%40)
			for i := range src {
				src[i] = s.next()
			}
			off, nbits := int(s.next())-4, int(s.next())-4
			if s.next()%4 != 0 { // mostly a span inside src
				off = min(max(off, 0), 8*len(src))
				nbits = min(max(nbits, 0), 8*len(src)-off)
			}
			w.Grow(int(s.next()))
			got := panics(func() { w.WriteBitsFrom(src, off, nbits) })
			want := panics(func() { rw.WriteBitsFrom(src, off, nbits) })
			if got != want {
				t.Fatalf("WriteBitsFrom(%d bytes, %d, %d) panic %q, reference %q", len(src), off, nbits, got, want)
			}
		}
		if w.Len() != rw.nbit || !bytes.Equal(w.Bytes(), rw.buf) {
			t.Fatalf("after write op %d: len %d bytes %x, reference len %d bytes %x", op, w.Len(), w.Bytes(), rw.nbit, rw.buf)
		}
	}

	// The read buffer is the written bytes, with the padding bits of
	// the last byte and some trailing bytes set to junk that no read
	// may return.
	buf := append([]byte(nil), w.Bytes()...)
	if pad := w.Len() & 7; pad != 0 {
		buf[len(buf)-1] |= 0xff >> uint(pad)
	}
	for k := int(s.next() % 10); k > 0; k-- {
		buf = append(buf, s.next()|0x81)
	}
	nbit := w.Len()
	switch s.next() % 3 {
	case 1:
		nbit = 8 * len(buf)
	case 2:
		nbit = int(s.u64() % uint64(8*len(buf)+1))
	}
	off := int(s.next() % 8)
	if off > nbit {
		off = nbit
	}
	r := NewBitReaderAt(buf, off, nbit)
	rr := &refBitReader{buf: buf, pos: off, nbit: nbit}
	for steps := 0; !s.done() && steps < 256; steps++ {
		var got, want uint64
		var gerr, werr error
		op := s.next() % 6
		switch op {
		case 0:
			var gb, wb uint
			gb, gerr = r.ReadBit()
			wb, werr = rr.ReadBit()
			got, want = uint64(gb), uint64(wb)
		case 1, 2:
			width := int(s.next()%67) - 1
			got, gerr = r.ReadBits(width)
			want, werr = rr.ReadBits(width)
		case 3:
			got, gerr = r.ReadUnary()
			want, werr = rr.ReadUnary()
		case 4:
			r.Reset(buf, nbit)
			rr.pos = 0
		case 5:
			width, count := int(s.next()%35)-1, int(s.next()%48)
			gd, wd := make([]int32, count), make([]int32, count)
			gerr, werr = r.ReadFixedInto(gd, width), rr.ReadFixedInto(wd, width)
			if gerr == nil && werr == nil && !slices.Equal(gd, wd) {
				t.Fatalf("ReadFixedInto(%d x %d bits) = %v, reference %v", count, width, gd, wd)
			}
		}
		if got != want || errText(gerr) != errText(werr) || r.Pos() != rr.pos || r.Remaining() != rr.nbit-rr.pos {
			t.Fatalf("read op %d at nbit %d: (%#x, %v) pos %d, reference (%#x, %v) pos %d",
				op, nbit, got, gerr, r.Pos(), want, werr, rr.pos)
		}
	}
}

// TestBitKernelsMatchReferenceSweep drives every width 0..64 from every
// bit phase 0..7, on the writer (with set bits above width) and on the
// reader (against nbit cut 0..9 bits short of a junk-filled buffer, so
// reads end inside the last 8 bytes and cross nbit).
func TestBitKernelsMatchReferenceSweep(t *testing.T) {
	const junk = 0xa5c3_f00f_5a3c_0ff0
	for phase := 0; phase < 8; phase++ {
		for width := 0; width <= 64; width++ {
			w, rw := NewBitWriter(), &refBitWriter{}
			w.WriteBits(0x7f, phase)
			rw.WriteBits(0x7f, phase)
			for k := 0; k < 3; k++ {
				w.WriteBits(junk, width)
				rw.WriteBits(junk, width)
				w.WriteUnary(uint64(width + k))
				rw.WriteUnary(uint64(width + k))
			}
			if w.Len() != rw.nbit || !bytes.Equal(w.Bytes(), rw.buf) {
				t.Fatalf("phase %d width %d: bytes %x, reference %x", phase, width, w.Bytes(), rw.buf)
			}
		}
	}
	buf := make([]byte, 24)
	rng := xrand.New(16)
	for i := range buf {
		buf[i] = byte(rng.Uint64())
	}
	for off := 0; off < 8; off++ {
		for width := 0; width <= 64; width++ {
			for cut := 0; cut < 10; cut++ {
				nbit := 8*len(buf) - cut
				r := NewBitReaderAt(buf, off, nbit)
				rr := &refBitReader{buf: buf, pos: off, nbit: nbit}
				for {
					got, gerr := r.ReadBits(width)
					want, werr := rr.ReadBits(width)
					if got != want || errText(gerr) != errText(werr) || r.Pos() != rr.pos {
						t.Fatalf("off %d width %d nbit %d: (%#x, %v) pos %d, reference (%#x, %v) pos %d",
							off, width, nbit, got, gerr, r.Pos(), want, werr, rr.pos)
					}
					if gerr != nil || width == 0 {
						break
					}
					gu, gerr := r.ReadUnary()
					wu, werr := rr.ReadUnary()
					if gu != wu || errText(gerr) != errText(werr) || r.Pos() != rr.pos {
						t.Fatalf("off %d width %d nbit %d: unary (%d, %v) pos %d, reference (%d, %v) pos %d",
							off, width, nbit, gu, gerr, r.Pos(), wu, werr, rr.pos)
					}
					if gerr != nil {
						break
					}
				}
			}
		}
	}
}

// TestReadFixedIntoMatchesReferenceSweep reads runs of every length
// and every width 0..32 from every bit phase 0..7, against nbit cut
// 0..9 bits short of a junk-filled buffer: runs that end in the last 8
// bytes, where the window fast path hands over to ReadBits, and runs
// that cross nbit and must fail with the reference's error and position.
func TestReadFixedIntoMatchesReferenceSweep(t *testing.T) {
	buf := make([]byte, 40)
	rng := xrand.New(32)
	for i := range buf {
		buf[i] = byte(rng.Uint64())
	}
	for off := 0; off < 8; off++ {
		for width := 0; width <= 32; width++ {
			for cut := 0; cut < 10; cut++ {
				nbit := 8*len(buf) - cut
				maxCount := 3
				if width > 0 {
					maxCount = (nbit-off)/width + 2
				}
				for count := 0; count <= maxCount; count++ {
					r := NewBitReaderAt(buf, off, nbit)
					rr := &refBitReader{buf: buf, pos: off, nbit: nbit}
					got, want := make([]int32, count), make([]int32, count)
					gerr, werr := r.ReadFixedInto(got, width), rr.ReadFixedInto(want, width)
					if errText(gerr) != errText(werr) || r.Pos() != rr.pos || (gerr == nil && !slices.Equal(got, want)) {
						t.Fatalf("off %d width %d nbit %d count %d: (%v, %v) pos %d, reference (%v, %v) pos %d",
							off, width, nbit, count, got, gerr, r.Pos(), want, werr, rr.pos)
					}
				}
			}
		}
	}
}

// TestWriteFixedFromMatchesReferenceSweep writes runs of every length
// 0..47 and every width 0..32 from every bit phase 0..7, with a bias and
// junk above width in every field, then one more word, through a writer
// whose reused buffer holds stale bytes past its length: the partial
// first byte, whole-word flushes, the short last word and the state the
// next write starts from must all match the reference.
func TestWriteFixedFromMatchesReferenceSweep(t *testing.T) {
	rng := xrand.New(48)
	src := make([]int32, 47)
	for i := range src {
		src[i] = int32(rng.Uint64())
	}
	w, rw := NewBitWriter(), &refBitWriter{}
	for i := 0; i < 64; i++ {
		w.WriteBits(^uint64(0), 64) // stale ones for the resets below to leave behind
	}
	for phase := 0; phase < 8; phase++ {
		for width := 0; width <= 32; width++ {
			for count := 0; count <= len(src); count++ {
				w.Reset()
				rw.Reset()
				w.WriteBits(0x55, phase)
				rw.WriteBits(0x55, phase)
				w.WriteFixedFrom(src[:count], 7, width)
				rw.WriteFixedFrom(src[:count], 7, width)
				w.WriteBits(0x2d, 6)
				rw.WriteBits(0x2d, 6)
				if w.Len() != rw.nbit || !bytes.Equal(w.Bytes(), rw.buf) {
					t.Fatalf("phase %d width %d count %d: len %d bytes %x, reference len %d bytes %x",
						phase, width, count, w.Len(), w.Bytes(), rw.nbit, rw.buf)
				}
			}
		}
	}
}

// TestWriteBitsFromMatchesReferenceSweep copies spans of every length
// 0..130 from every source bit phase 0..7 into a writer at every
// destination phase 0..7, then writes one more field, through a writer
// whose reused buffer holds stale ones past its length; the source is
// junk around the span and ends right after it or 1..9 bytes later, so
// both the whole-word windows and the zero-filled tail window run.
func TestWriteBitsFromMatchesReferenceSweep(t *testing.T) {
	rng := xrand.New(64)
	junk := make([]byte, 40)
	for i := range junk {
		junk[i] = byte(rng.Uint64())
	}
	w, rw := NewBitWriter(), &refBitWriter{}
	for i := 0; i < 64; i++ {
		w.WriteBits(^uint64(0), 64)
	}
	for soff := 0; soff < 8; soff++ {
		for phase := 0; phase < 8; phase++ {
			for nbits := 0; nbits <= 130; nbits++ {
				for _, slack := range []int{0, 1, 9} {
					src := junk[:min(len(junk), (soff+nbits+7)/8+slack)]
					w.Reset()
					rw.Reset()
					w.WriteBits(0x55, phase)
					rw.WriteBits(0x55, phase)
					w.WriteBitsFrom(src, soff, nbits)
					rw.WriteBitsFrom(src, soff, nbits)
					w.WriteBits(0x2d, 6)
					rw.WriteBits(0x2d, 6)
					if w.Len() != rw.nbit || !bytes.Equal(w.Bytes(), rw.buf) {
						t.Fatalf("source phase %d, phase %d, %d bits, %d bytes: len %d bytes %x, reference len %d bytes %x",
							soff, phase, nbits, len(src), w.Len(), w.Bytes(), rw.nbit, rw.buf)
					}
				}
			}
		}
	}
}

// TestBitKernelsMatchReferenceRandom runs random programs through
// checkBitOps.
func TestBitKernelsMatchReferenceRandom(t *testing.T) {
	rng := xrand.New(1616)
	for i := 0; i < 3000; i++ {
		prog := make([]byte, 1+rng.Intn(400))
		for j := range prog {
			prog[j] = byte(rng.Uint64())
		}
		checkBitOps(t, prog)
	}
}

// FuzzBitIO decodes its input as a checkBitOps program. The committed
// corpus under testdata/fuzz/FuzzBitIO replays under plain go test.
func FuzzBitIO(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, prog []byte) { checkBitOps(t, prog) })
}
