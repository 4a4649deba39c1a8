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

// GammaLen returns the bit length of the gamma code of v >= 1 without
// writing it.
func GammaLen(v uint64) int {
	nbits := 0
	for t := v; t > 1; t >>= 1 {
		nbits++
	}
	return 2*nbits + 1
}
