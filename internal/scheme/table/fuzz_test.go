package table

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/coding"
	"repro/internal/graph"
	"repro/internal/xrand"
)

// canonicalByReencode is the re-encode gate decodeRowInto replaced,
// kept as its oracle: parse the row code at the start of data
// permissively (every port below deg and no run past the row's end,
// nothing else), re-encode the row with encodedRowBits and
// writeRowCode, and accept only if the re-encoding is bit for bit the
// span the parse consumed. It returns the row and the span length.
func canonicalByReencode(data []byte, n int, x graph.NodeID, deg int) ([]graph.Port, int, bool) {
	r := coding.NewBitReader(data, len(data)*8)
	row := make([]graph.Port, n)
	wbits := coding.BitsFor(uint64(deg))
	port := func() (graph.Port, bool) {
		b, err := r.ReadBits(wbits)
		if err != nil || int(b) >= deg {
			return 0, false
		}
		return graph.Port(b + 1), true
	}
	flag, err := r.ReadBit()
	if err != nil {
		return nil, 0, false
	}
	if flag == 0 {
		for v := 0; v < n; v++ {
			if graph.NodeID(v) == x {
				continue
			}
			p, ok := port()
			if !ok {
				return nil, 0, false
			}
			row[v] = p
		}
	} else {
		for v := 0; v < n; {
			if graph.NodeID(v) == x {
				v++
				continue
			}
			runLen, err := r.ReadGamma()
			if err != nil {
				return nil, 0, false
			}
			p, ok := port()
			if !ok {
				return nil, 0, false
			}
			for k := uint64(0); k < runLen; v++ {
				if v >= n {
					return nil, 0, false
				}
				if graph.NodeID(v) != x {
					row[v] = p
					k++
				}
			}
		}
	}
	span := r.Pos()
	w := coding.NewBitWriter()
	writeRowCode(w, row, x, deg, encodedRowBits(row, x, deg))
	if w.Len() != span {
		return nil, 0, false
	}
	got, want := coding.NewBitReader(data, span), coding.NewBitReader(w.Bytes(), span)
	for rem := span; rem > 0; rem-- {
		a, _ := got.ReadBit()
		b, _ := want.ReadBit()
		if a != b {
			return nil, 0, false
		}
	}
	return row, span, true
}

// checkDecodeRow runs DecodeRowFrom and the re-encode oracle on one
// input: they must accept exactly the same inputs, and on an accepted
// one return the same row with the same span, NoPort at x and an
// in-range port everywhere else. The mapped reader's stripe proof must
// agree too (checkProveRow).
func checkDecodeRow(t *testing.T, data []byte, n int, x graph.NodeID, deg int) {
	t.Helper()
	r := coding.NewBitReader(data, len(data)*8)
	row, err := DecodeRowFrom(r, n, x, deg)
	want, span, ok := canonicalByReencode(data, n, x, deg)
	if (err == nil) != ok {
		t.Fatalf("n=%d x=%d deg=%d data %x: DecodeRowFrom err %v, re-encode oracle accepts %v", n, x, deg, data, err, ok)
	}
	checkProveRow(t, data, n, x, deg, row, r.Pos())
	if !ok {
		return
	}
	if !slices.Equal(row, want) || r.Pos() != span {
		t.Fatalf("n=%d x=%d deg=%d data %x: row %v over %d bits, oracle %v over %d", n, x, deg, data, row, r.Pos(), want, span)
	}
	for v, p := range row {
		if graph.NodeID(v) == x {
			if p != graph.NoPort {
				t.Fatalf("own entry must be NoPort, got %d", p)
			}
			continue
		}
		if p < 1 || int(p) > deg {
			t.Fatalf("decoded port %d out of [1,%d] at %d", p, deg, v)
		}
	}
}

// checkProveRow runs proveSpan, the per-router stripe proof, on data
// padded as a stripe copy is, into a scratch row full of stale ports.
// Bounded at all of data it must accept exactly when DecodeRowFrom
// accepted and consumed all of data; bounded at the span DecodeRowFrom
// consumed it must accept whenever DecodeRowFrom did. On acceptance an
// RLE code must come back as DecodeRowFrom's row, and a raw code as nil
// with rawPort answering that row for every destination.
func checkProveRow(t *testing.T, data []byte, n int, x graph.NodeID, deg int, row []graph.Port, span int) {
	t.Helper()
	code := append(slices.Clone(data), make([]byte, 8)...)
	scratch := make([]graph.Port, n)
	for v := range scratch {
		scratch[v] = graph.Port(7*v + 3)
	}
	whole := len(data) * 8
	if _, err := proveSpan(code, 0, whole, scratch, x, deg); (err == nil) != (row != nil && span == whole) {
		t.Fatalf("n=%d x=%d deg=%d data %x: proveSpan over %d bits err %v, DecodeRowFrom row %v over %d bits", n, x, deg, data, whole, err, row, span)
	}
	if row == nil {
		return
	}
	got, err := proveSpan(code, 0, span, scratch, x, deg)
	if err != nil {
		t.Fatalf("n=%d x=%d deg=%d data %x: proveSpan rejects the %d-bit span DecodeRowFrom accepts: %v", n, x, deg, data, span, err)
	}
	if data[0]>>7 == 1 {
		if !slices.Equal(got, row) {
			t.Fatalf("n=%d x=%d deg=%d data %x: proveSpan RLE row %v, DecodeRowFrom %v", n, x, deg, data, got, row)
		}
		return
	}
	if got != nil {
		t.Fatalf("n=%d x=%d deg=%d data %x: proveSpan kept a row for a raw code", n, x, deg, data)
	}
	w := uint(coding.BitsFor(uint64(deg)))
	for dst := range row {
		if d := graph.NodeID(dst); d != x {
			if p := rawPort(code, 0, w, x, d); p != row[dst] {
				t.Fatalf("n=%d x=%d deg=%d data %x: rawPort toward %d = %d, row has %d", n, x, deg, data, dst, p, row[dst])
			}
		}
	}
}

// spellRaw writes a raw row code (flag 0) for row, whatever it costs.
func spellRaw(row []graph.Port, x graph.NodeID, deg int) []byte {
	w := coding.NewBitWriter()
	w.WriteBit(0)
	for v, p := range row {
		if graph.NodeID(v) != x {
			w.WriteBits(uint64(p-1), coding.BitsFor(uint64(deg)))
		}
	}
	return w.Bytes()
}

// spellRuns writes an RLE row code (flag 1) of the given (length, port)
// runs, whatever it costs and however the runs split.
func spellRuns(runs [][2]int, deg int) []byte {
	w := coding.NewBitWriter()
	w.WriteBit(1)
	for _, run := range runs {
		w.WriteGamma(uint64(run[0]))
		w.WriteBits(uint64(run[1]-1), coding.BitsFor(uint64(deg)))
	}
	return w.Bytes()
}

// TestDecodeRowMatchesReencodeOracle is the conformance test of the
// decoder's in-pass canonicity proof against the re-encode gate: both
// must reject the three non-canonical spellings of a row (raw where RLE
// is shorter, RLE with equal-port neighbouring runs, also straddling x,
// and RLE no shorter than raw), and agree on every canonical code of
// random run-structured rows and on bit-flipped and cut copies of them.
func TestDecodeRowMatchesReencodeOracle(t *testing.T) {
	rejects := []struct {
		name   string
		data   []byte
		n, x   int
		deg    int
		reason string
	}{
		{"raw-where-rle-shorter", spellRaw(slices.Repeat([]graph.Port{2}, 16), 3, 4), 16, 3, 4, "raw row"},
		{"split-run", spellRuns([][2]int{{4, 2}, {5, 2}, {6, 1}}, 4), 16, 3, 4, "splits a run"},
		{"split-run-straddling-x", spellRuns([][2]int{{3, 2}, {6, 2}, {6, 1}}, 4), 16, 3, 4, "splits a run"},
		{"rle-not-shorter", spellRuns([][2]int{{1, 1}, {1, 2}, {1, 3}, {1, 4}, {1, 1}}, 4), 6, 0, 4, "RLE row"},
	}
	for _, tc := range rejects {
		_, err := DecodeRowFrom(coding.NewBitReader(tc.data, len(tc.data)*8), tc.n, graph.NodeID(tc.x), tc.deg)
		if err == nil || !strings.Contains(err.Error(), tc.reason) {
			t.Errorf("%s: DecodeRowFrom err %v, want a %q rejection", tc.name, err, tc.reason)
		}
		if _, _, ok := canonicalByReencode(tc.data, tc.n, graph.NodeID(tc.x), tc.deg); ok {
			t.Errorf("%s: the re-encode oracle accepts it", tc.name)
		}
	}

	rng := xrand.New(31)
	for i := 0; i < 4000; i++ {
		n, deg := 2+rng.Intn(40), 1+rng.Intn(9)
		x := graph.NodeID(rng.Intn(n))
		row := make([]graph.Port, n)
		p := graph.Port(1 + rng.Intn(deg))
		for v := range row {
			if rng.Intn(4) == 0 {
				p = graph.Port(1 + rng.Intn(deg))
			}
			if graph.NodeID(v) != x {
				row[v] = p
			}
		}
		w := coding.NewBitWriter()
		AppendPortRowCode(w, row, x, deg)
		data := append([]byte(nil), w.Bytes()...)
		checkDecodeRow(t, data, n, x, deg)
		if got, err := DecodeRowFrom(coding.NewBitReader(data, len(data)*8), n, x, deg); err != nil || !slices.Equal(got, row) {
			t.Fatalf("canonical code of %v: got %v, %v", row, got, err)
		}
		for k := 0; k < 4; k++ {
			bad := append([]byte(nil), data...)
			bad[rng.Intn(len(bad))] ^= 1 << rng.Intn(8)
			checkDecodeRow(t, bad, n, x, deg)
		}
		checkDecodeRow(t, data[:rng.Intn(len(data))], n, x, deg)
	}
}

// FuzzDecodeRow feeds adversarial byte strings to DecodeRowFrom, the row
// decoder of the wire payload and of a generation patch: it must return
// a row or an error, never panic or loop, and accept exactly the inputs
// the re-encode oracle accepts, with the same row, and the stripe proof
// of the mapped reader must accept and answer alike (checkDecodeRow).
// Degrees up to 256 and rows up to 300 destinations reach field widths
// 1-8 and raw rows that span several of the proof's 64-bit windows. The
// seeds add canonical codes at widths 5 and 6, raw and RLE, each row's
// raw spelling (non-canonical for the RLE rows, one of them priced
// exactly because the run bound leaves it in doubt), and each raw
// spelling with one field equal to the degree.
func FuzzDecodeRow(f *testing.F) {
	f.Add([]byte{0x00, 0x12, 0x34}, 8, 1, 3)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, 12, 0, 4)
	f.Add([]byte{0x80, 0x01}, 5, 2, 2)
	rng := xrand.New(37)
	for _, sd := range []struct{ n, x, deg, stay int }{
		{61, 17, 23, 0},    // width 5, raw, no runs
		{150, 149, 29, 21}, // width 5, RLE one bit below raw
		{97, 0, 40, 0},     // width 6, raw, no runs
		{290, 200, 57, 21}, // width 6, raw with runs
		{120, 33, 19, 97},  // width 5, RLE
		{64, 5, 50, 95},    // width 6, RLE
	} {
		x := graph.NodeID(sd.x)
		row := seedRow(rng, sd.n, x, sd.deg, sd.stay)
		w := coding.NewBitWriter()
		AppendPortRowCode(w, row, x, sd.deg)
		f.Add(slices.Clone(w.Bytes()), sd.n, sd.x, sd.deg)
		f.Add(spellRaw(row, x, sd.deg), sd.n, sd.x, sd.deg) // the raw spelling, canonical or not
		row[(sd.x+1)%sd.n] = graph.Port(sd.deg + 1)         // port-1 == deg: out of range
		f.Add(spellRaw(row, x, sd.deg), sd.n, sd.x, sd.deg)
	}
	f.Fuzz(func(t *testing.T, data []byte, n, x, deg int) {
		if n < 2 || n > 300 || deg < 1 || deg > 256 || x < 0 || x >= n {
			return
		}
		checkDecodeRow(t, data, n, graph.NodeID(x), deg)
	})
}

// seedRow returns a row of n ports in [1, deg] (NoPort at x) that keeps
// the previous destination's port with probability stay percent and
// otherwise moves to another port.
func seedRow(rng *xrand.Rand, n int, x graph.NodeID, deg, stay int) []graph.Port {
	row := make([]graph.Port, n)
	prev := graph.NoPort
	for v := range row {
		if graph.NodeID(v) == x {
			continue
		}
		p := prev
		if prev == graph.NoPort || rng.Intn(100) >= stay {
			for p == prev {
				p = graph.Port(1 + rng.Intn(deg))
			}
		}
		row[v], prev = p, p
	}
	return row
}
