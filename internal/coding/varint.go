package coding

import (
	"fmt"
	"math/bits"
)

// WriteUnary appends the unary code of v >= 0: v ones then a zero. Used
// as the prefix of gamma codes and for tiny counters.
func (w *BitWriter) WriteUnary(v uint64) {
	for ; v >= 64; v -= 64 {
		w.WriteBits(^uint64(0), 64)
	}
	w.WriteBits((uint64(1)<<v-1)<<1, int(v)+1)
}

// ReadUnary consumes a unary code, counting a window's leading ones at
// a time.
func (r *BitReader) ReadUnary() (uint64, error) {
	var v uint64
	for {
		avail := r.nbit - r.pos
		if avail <= 0 {
			return 0, fmt.Errorf("coding: read past end at bit %d", r.pos)
		}
		k := 64 - r.pos&7 // bits of the window that come from buf
		if k > avail {
			k = avail
		}
		if ones := bits.LeadingZeros64(^r.window()); ones < k {
			r.pos += ones + 1
			return v + uint64(ones), nil
		}
		v += uint64(k)
		r.pos += k
	}
}

// WriteGamma appends the Elias gamma code of v >= 1: unary length prefix
// followed by the remaining bits. Gamma codes v in 2*floor(log2 v)+1 bits.
func (w *BitWriter) WriteGamma(v uint64) {
	if v == 0 {
		panic("coding: gamma undefined for 0")
	}
	nbits := 0
	for t := v; t > 1; t >>= 1 {
		nbits++
	}
	w.WriteUnary(uint64(nbits))
	w.WriteBits(v&((1<<uint(nbits))-1), nbits)
}

// ReadGamma consumes an Elias gamma code.
func (r *BitReader) ReadGamma() (uint64, error) {
	nbits, err := r.ReadUnary()
	if err != nil {
		return 0, err
	}
	if nbits > 63 {
		return 0, fmt.Errorf("coding: gamma length %d too large", nbits)
	}
	rest, err := r.ReadBits(int(nbits))
	if err != nil {
		return 0, err
	}
	return 1<<nbits | rest, nil
}

// WriteGamma0 appends gamma(v+1), extending gamma to v >= 0.
func (w *BitWriter) WriteGamma0(v uint64) { w.WriteGamma(v + 1) }

// ReadGamma0 consumes a gamma0 code.
func (r *BitReader) ReadGamma0() (uint64, error) {
	v, err := r.ReadGamma()
	if err != nil {
		return 0, err
	}
	return v - 1, nil
}

// WriteDelta appends the Elias delta code of v >= 1: gamma-coded length
// followed by the value bits; asymptotically log2 v + 2 log2 log2 v bits.
func (w *BitWriter) WriteDelta(v uint64) {
	if v == 0 {
		panic("coding: delta undefined for 0")
	}
	nbits := 0
	for t := v; t > 1; t >>= 1 {
		nbits++
	}
	w.WriteGamma(uint64(nbits) + 1)
	w.WriteBits(v&((1<<uint(nbits))-1), nbits)
}

// ReadDelta consumes an Elias delta code.
func (r *BitReader) ReadDelta() (uint64, error) {
	l, err := r.ReadGamma()
	if err != nil {
		return 0, err
	}
	nbits := l - 1
	if nbits > 63 {
		return 0, fmt.Errorf("coding: delta length %d too large", nbits)
	}
	rest, err := r.ReadBits(int(nbits))
	if err != nil {
		return 0, err
	}
	return 1<<nbits | rest, nil
}

// WriteRice appends the Golomb–Rice code of v >= 0 with parameter k:
// quotient v>>k in unary, remainder in k fixed bits. Near-optimal for
// geometrically distributed gaps, which is what interval routing tables
// produce.
func (w *BitWriter) WriteRice(v uint64, k int) {
	if k < 0 || k > 63 {
		panic("coding: rice parameter out of range")
	}
	w.WriteUnary(v >> uint(k))
	w.WriteBits(v&((1<<uint(k))-1), k)
}

// ReadRice consumes a Rice code with parameter k.
func (r *BitReader) ReadRice(k int) (uint64, error) {
	if k < 0 || k > 63 {
		return 0, fmt.Errorf("coding: rice parameter %d out of range [0,63]", k)
	}
	q, err := r.ReadUnary()
	if err != nil {
		return 0, err
	}
	rem, err := r.ReadBits(k)
	if err != nil {
		return 0, err
	}
	return q<<uint(k) | rem, nil
}

// GammaLen returns the bit length of the gamma code of v >= 1 without
// writing it.
func GammaLen(v uint64) int {
	nbits := 0
	for t := v; t > 1; t >>= 1 {
		nbits++
	}
	return 2*nbits + 1
}
