package coding

import (
	"fmt"
	"testing"

	"repro/internal/xrand"
)

// scanFixedScalar is the scalar check-and-count loop ScanFixed replaced
// in the table row proof, kept as its oracle: unpack every field with
// ReadFixedInto, then walk them once, failing at the first field not
// below limit and counting the runs and, where "equal to the field
// before" rises from 0 to 1, the runs of length two or more.
func scanFixedScalar(r *BitReader, count, width int, limit uint64) (runs, runs2 int, err error) {
	fields := make([]int32, count)
	if err := r.ReadFixedInto(fields, width); err != nil {
		return 0, 0, err
	}
	eq := 0
	for i, f := range fields {
		if v := uint64(uint32(f)); v >= limit {
			return 0, 0, &FieldRangeError{Value: v, Limit: limit}
		}
		was := eq
		eq = 0
		if i > 0 && f == fields[i-1] {
			eq = 1
		}
		runs += 1 - eq
		runs2 += eq &^ was
	}
	return runs, runs2, nil
}

// scanCase is one ScanFixed input: count fields of width bits at bit
// off of buf, readable up to nbit.
type scanCase struct {
	buf          []byte
	off, nbit    int
	count, width int
	limit        uint64
	shape        string
	badAt        int // the planted out-of-range field, or -1
}

// check runs ScanFixed and the scalar oracle on c and compares runs,
// runs2, the end position and the error text.
func (c scanCase) check(t *testing.T) {
	t.Helper()
	r, o := NewBitReaderAt(c.buf, c.off, c.nbit), NewBitReaderAt(c.buf, c.off, c.nbit)
	runs, runs2, err := r.ScanFixed(c.count, c.width, c.limit)
	wruns, wruns2, werr := scanFixedScalar(o, c.count, c.width, c.limit)
	if runs != wruns || runs2 != wruns2 || r.Pos() != o.Pos() || errText(err) != errText(werr) {
		t.Fatalf("%s: width %d off %d count %d limit %d nbit %d bad at %d: (%d, %d, %v) pos %d, scalar (%d, %d, %v) pos %d",
			c.shape, c.width, c.off, c.count, c.limit, c.nbit, c.badAt, runs, runs2, err, r.Pos(), wruns, wruns2, werr, o.Pos())
	}
}

// spell writes fields at bit off of a buffer of junk, then tailBits of
// junk past the last field, so the buffer ends that many bits after it.
func spell(rng *xrand.Rand, off, width int, fields []uint64, tailBits int) ([]byte, int) {
	w := NewBitWriter()
	for i := 0; i < off; i++ {
		w.WriteBit(uint(rng.Intn(2)))
	}
	for _, f := range fields {
		w.WriteBits(f, width)
	}
	end := w.Len()
	for i := 0; i < tailBits; i++ {
		w.WriteBit(uint(rng.Intn(2)))
	}
	return append([]byte(nil), w.Bytes()...), end
}

// scanFields returns count fields below limit (limit >= 1) of the given
// shape: one long run, no two neighbours equal, or runs of random
// lengths.
func scanFields(rng *xrand.Rand, shape string, count int, limit uint64) []uint64 {
	fields := make([]uint64, count)
	pick := func() uint64 { return rng.Uint64() % limit }
	p := pick()
	for i := range fields {
		switch shape {
		case "no-runs":
			if limit > 1 {
				for i > 0 && p == fields[i-1] {
					p = pick()
				}
			}
		case "mixed":
			if rng.Intn(3) == 0 {
				p = pick()
			}
		}
		fields[i] = p
		if shape == "no-runs" {
			p = pick()
		}
	}
	return fields
}

// TestScanFixedMatchesScalar is the differential test of the SWAR
// canonicity scan against the scalar loop: widths 1-16 and 32 at every
// start offset 0-63, counts below, at and across a window's lanes and
// across several windows, buffers that end 0-8 bytes past the last
// field (where the window load falls back to a zero-filled one), rows of
// one long run, rows with no runs and mixed rows, limits on both sides of
// every width's top bit and at 2^width (no range check), one
// out-of-range field planted at every lane of three windows, and scans
// that run past nbit.
func TestScanFixedMatchesScalar(t *testing.T) {
	rng := xrand.New(64)
	widths := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 32}
	for _, width := range widths {
		lanes := 64 / width
		full := uint64(1) << width
		limits := []uint64{full, full/2 + 1 + rng.Uint64()%(full/2), 1 + rng.Uint64()%(full/2)}
		counts := []int{1, 2, lanes - 1, lanes, lanes + 1, 2*lanes + 1, 3*lanes + 2, 1 + rng.Intn(300)}
		for off := 0; off < 64; off++ {
			for _, limit := range limits {
				for _, shape := range []string{"one-run", "no-runs", "mixed"} {
					for _, count := range counts {
						if count < 1 {
							continue
						}
						fields := scanFields(rng, shape, count, limit)
						tail := rng.Intn(72)
						buf, end := spell(rng, off, width, fields, tail)
						c := scanCase{buf: buf, off: off, nbit: end + rng.Intn(tail+1), count: count, width: width,
							limit: limit, shape: shape, badAt: -1}
						c.check(t)
						c.nbit = end - 1 - rng.Intn(width) // runs past nbit
						c.check(t)
					}
				}
			}
			// One out-of-range field at every lane of three windows.
			limit := limits[1]
			if limit == full {
				limit = full - 1
			}
			if width == 1 {
				limit = 1
			}
			count := 3*lanes + 1
			fields := scanFields(rng, "mixed", count, limit)
			for at := 0; at < count; at++ {
				bad := append([]uint64(nil), fields...)
				bad[at] = limit + rng.Uint64()%(full-limit)
				if at+1 < count && rng.Intn(2) == 0 {
					bad[at+1] = limit + rng.Uint64()%(full-limit) // a second one behind it
				}
				buf, end := spell(rng, off, width, bad, rng.Intn(72))
				c := scanCase{buf: buf, off: off, nbit: end, count: count, width: width, limit: limit,
					shape: "out-of-range", badAt: at}
				c.check(t)
			}
		}
	}
}

// TestScanFixedEdges pins what the sweep does not reach: width 0, an
// empty scan, a limit of 0, and widths and counts out of range.
func TestScanFixedEdges(t *testing.T) {
	buf := []byte{0xa5, 0x5a, 0xff, 0x00}
	for _, tc := range []struct {
		count, width int
		limit        uint64
	}{
		{0, 0, 1}, {1, 0, 1}, {2, 0, 1}, {9, 0, 1}, {3, 0, 0},
		{0, 7, 0}, {3, 5, 0}, {4, 7, 1 << 7}, {5, 7, 1 << 7}, {1, 32, 0xa55aff01}, {1, 32, 0xa55aff00},
		{2, 33, 1}, {1, -1, 1},
	} {
		t.Run(fmt.Sprintf("count=%d/width=%d/limit=%d", tc.count, tc.width, tc.limit), func(t *testing.T) {
			scanCase{buf: buf, nbit: 32, count: tc.count, width: tc.width, limit: tc.limit, shape: "edge", badAt: -1}.check(t)
		})
	}
	if _, _, err := NewBitReader(buf, 32).ScanFixed(-1, 4, 16); err == nil {
		t.Fatal("ScanFixed accepts a negative count")
	}
}

// TestScanFixedAllocates pins the kernel allocation-free on success.
func TestScanFixedAllocates(t *testing.T) {
	rng := xrand.New(65)
	buf, end := spell(rng, 3, 12, scanFields(rng, "mixed", 4095, 3000), 64)
	r := NewBitReaderAt(buf, 3, end)
	if allocs := testing.AllocsPerRun(100, func() {
		r.pos = 3
		if _, _, err := r.ScanFixed(4095, 12, 3000); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("ScanFixed allocates %.0f times per scan", allocs)
	}
}
