package coding

import (
	"math/big"
	"testing"
	"testing/quick"

	"repro/internal/combinat"
	"repro/internal/xrand"
)

func TestBitWriterReaderRoundTrip(t *testing.T) {
	w := NewBitWriter()
	w.WriteBit(1)
	w.WriteBits(0b1011, 4)
	w.WriteBit(0)
	w.WriteBits(0xdead, 16)
	r := NewBitReader(w.Bytes(), w.Len())
	if b, _ := r.ReadBit(); b != 1 {
		t.Fatal("bit 1")
	}
	if v, _ := r.ReadBits(4); v != 0b1011 {
		t.Fatal("nibble")
	}
	if b, _ := r.ReadBit(); b != 0 {
		t.Fatal("bit 0")
	}
	if v, _ := r.ReadBits(16); v != 0xdead {
		t.Fatal("word")
	}
	if r.Remaining() != 0 {
		t.Fatalf("remaining %d, want 0", r.Remaining())
	}
}

func TestReadPastEnd(t *testing.T) {
	r := NewBitReader([]byte{0xff}, 3)
	if _, err := r.ReadBits(3); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadBit(); err == nil {
		t.Fatal("read past declared end succeeded")
	}
}

func TestBitsFor(t *testing.T) {
	cases := map[uint64]int{0: 0, 1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 1 << 20: 20, 1<<20 + 1: 21}
	for n, want := range cases {
		if got := BitsFor(n); got != want {
			t.Fatalf("BitsFor(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestUnaryRoundTrip(t *testing.T) {
	w := NewBitWriter()
	vals := []uint64{0, 1, 2, 7, 13}
	for _, v := range vals {
		w.WriteUnary(v)
	}
	r := NewBitReader(w.Bytes(), w.Len())
	for _, v := range vals {
		got, err := r.ReadUnary()
		if err != nil || got != v {
			t.Fatalf("unary round trip: got %d (%v), want %d", got, err, v)
		}
	}
}

func TestGammaRoundTripProperty(t *testing.T) {
	check := func(raw []uint32) bool {
		w := NewBitWriter()
		vals := make([]uint64, 0, len(raw))
		for _, x := range raw {
			v := uint64(x) + 1 // gamma needs >= 1
			vals = append(vals, v)
			w.WriteGamma(v)
		}
		r := NewBitReader(w.Bytes(), w.Len())
		for _, v := range vals {
			got, err := r.ReadGamma()
			if err != nil || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGammaLenMatchesWriter(t *testing.T) {
	for _, v := range []uint64{1, 2, 3, 4, 7, 8, 100, 12345, 1 << 40} {
		w := NewBitWriter()
		w.WriteGamma(v)
		if w.Len() != GammaLen(v) {
			t.Fatalf("GammaLen(%d) = %d, writer used %d", v, GammaLen(v), w.Len())
		}
	}
}

func TestPermutationRankUnrank(t *testing.T) {
	check := func(seed uint64, nn uint8) bool {
		n := int(nn%8) + 1
		perm := xrand.New(seed).Perm(n)
		rank := RankPermutation(perm)
		back, err := UnrankPermutation(rank, n)
		if err != nil {
			return false
		}
		for i := range perm {
			if perm[i] != back[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPermutationRankExtremes(t *testing.T) {
	id := []int{0, 1, 2, 3}
	if RankPermutation(id).Sign() != 0 {
		t.Fatal("identity should rank 0")
	}
	rev := []int{3, 2, 1, 0}
	want := new(big.Int).Sub(combinat.Factorial(4), big.NewInt(1))
	if RankPermutation(rev).Cmp(want) != 0 {
		t.Fatalf("reverse should rank n!-1, got %v", RankPermutation(rev))
	}
}

func TestPermutationRanksAreBijective(t *testing.T) {
	seen := make(map[string]bool)
	n := 5
	total := combinat.Factorial(n).Int64()
	for r := int64(0); r < total; r++ {
		p, err := UnrankPermutation(big.NewInt(r), n)
		if err != nil {
			t.Fatal(err)
		}
		k := ""
		for _, v := range p {
			k += string(rune('a' + v))
		}
		if seen[k] {
			t.Fatalf("rank %d collides", r)
		}
		seen[k] = true
		if RankPermutation(p).Int64() != r {
			t.Fatalf("rank(unrank(%d)) = %v", r, RankPermutation(p))
		}
	}
	if int64(len(seen)) != total {
		t.Fatal("not all permutations produced")
	}
}

func TestWriteReadPermutation(t *testing.T) {
	r := xrand.New(2)
	for n := 1; n <= 30; n += 3 {
		perm := r.Perm(n)
		w := NewBitWriter()
		w.WritePermutation(perm)
		if w.Len() != PermutationBits(n) {
			t.Fatalf("n=%d: wrote %d bits, PermutationBits says %d", n, w.Len(), PermutationBits(n))
		}
		rd := NewBitReader(w.Bytes(), w.Len())
		got, err := rd.ReadPermutation(n)
		if err != nil {
			t.Fatal(err)
		}
		for i := range perm {
			if got[i] != perm[i] {
				t.Fatalf("n=%d: permutation round trip failed", n)
			}
		}
	}
}

func TestPermutationBitsGrowth(t *testing.T) {
	// ceil(log2 n!) must be within 1 bit of log2(n!) and Θ(n log n).
	for n := 2; n <= 64; n *= 2 {
		exact := combinat.Log2Factorial(n)
		got := float64(PermutationBits(n))
		if got < exact || got > exact+1 {
			t.Fatalf("PermutationBits(%d) = %v, log2 n! = %v", n, got, exact)
		}
	}
}

func TestBitWriterReset(t *testing.T) {
	w := NewBitWriter()
	w.WriteBits(0xdeadbeef, 32)
	w.WriteBit(1)
	w.Reset()
	if w.Len() != 0 || len(w.Bytes()) != 0 {
		t.Fatalf("reset writer not empty: %d bits, %d bytes", w.Len(), len(w.Bytes()))
	}
	w.WriteBits(0xab, 8)
	if got := w.Bytes(); len(got) != 1 || got[0] != 0xab {
		t.Fatalf("post-reset write corrupted: % x", got)
	}
	// A reset must also clear stale padding bits left in the recycled
	// backing array, or a shorter second message would inherit them.
	w.Reset()
	w.WriteBit(0)
	if got := w.Bytes(); got[0] != 0 {
		t.Fatalf("stale bits survived reset: %08b", got[0])
	}
}

func TestNewBitReaderAt(t *testing.T) {
	w := NewBitWriter()
	w.WriteBits(0b101, 3)
	w.WriteGamma(9)
	w.WriteBits(0x5a, 8)
	buf, total := w.Bytes(), w.Len()
	// Find the bit offset of the last field by replaying the prefix.
	pre := NewBitWriter()
	pre.WriteBits(0b101, 3)
	pre.WriteGamma(9)
	r := NewBitReaderAt(buf, pre.Len(), total)
	got, err := r.ReadBits(8)
	if err != nil || got != 0x5a {
		t.Fatalf("ReadBits at offset %d = %#x, %v; want 0x5a", pre.Len(), got, err)
	}
	if r.Remaining() != 0 {
		t.Fatalf("%d bits remain past the last field", r.Remaining())
	}
	if _, err := r.ReadBit(); err == nil {
		t.Fatal("read past nbit accepted")
	}
}

func TestNewBitReaderAtRejectsBadOffset(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("offset past nbit accepted")
		}
	}()
	NewBitReaderAt([]byte{0xff}, 9, 8)
}

func TestBitReaderReset(t *testing.T) {
	r := NewBitReader([]byte{0xf0}, 8)
	if v, _ := r.ReadBits(4); v != 0xf {
		t.Fatalf("first read = %#x", v)
	}
	r.Reset([]byte{0x0f}, 8)
	if r.Pos() != 0 || r.Remaining() != 8 {
		t.Fatalf("reset reader at pos %d with %d remaining", r.Pos(), r.Remaining())
	}
	if v, _ := r.ReadBits(8); v != 0x0f {
		t.Fatalf("post-reset read = %#x", v)
	}
}
