package table

import (
	"repro/internal/coding"
	"repro/internal/graph"
)

// Wire codec for the routing-table scheme (schemeio kind "table"). The
// payload is the concatenation, in router order, of the exact
// self-delimiting row codes LocalBits meters (writeRowCode: one flag
// bit, then the raw or run-length-compressed row) — so the serialized form
// IS the fixed coding strategy, byte for byte, and per-router wire bits
// equal LocalBits exactly. Both hop (New) and weighted (NewWeighted)
// tables serialize through this codec: the wire format stores ports,
// not metrics.

// EncodePayload appends the scheme's wire payload after the schemeio
// header and returns the per-router payload bits (here: exactly
// LocalBits(x) for every router) plus the absolute bit offset where
// router 0's span begins — rows are contiguous in router order, so the
// pair (routerStart, rb) locates every row for random access. The
// scheme stores each router's canonical code, so the payload is their
// bit-aligned concatenation (BitWriter.WriteBitsFrom).
func (s *Scheme) EncodePayload(w *coding.BitWriter) (rb []int, routerStart int) {
	routerStart = w.Len()
	rb = make([]int, len(s.rows))
	total := 0
	for x := range s.rows {
		rb[x] = int(s.rows[x].bits)
		total += rb[x]
	}
	w.Grow(total)
	for x := range s.rows {
		w.WriteBitsFrom(s.rows[x].code, 0, rb[x])
	}
	return rb, routerStart
}

// AppendPortRowCode appends the fixed row coding of a standalone row
// (one port per destination, NoPort at x) for a router of the given
// degree — the scheme-free form a decoded delta re-encodes through.
func AppendPortRowCode(w *coding.BitWriter, row []graph.Port, x graph.NodeID, deg int) {
	writeRowCode(w, row, x, deg, encodedRowBits(row, x, deg))
}

// DecodeRowFrom parses one self-delimiting row code from a shared
// reader into a fresh row of n entries — the streaming inverse of
// AppendPortRowCode and of each row EncodePayload writes. It accepts
// only the canonical code of the row (see decodeRowInto).
func DecodeRowFrom(r *coding.BitReader, n int, x graph.NodeID, deg int) ([]graph.Port, error) {
	row := make([]graph.Port, n)
	if err := decodeRowInto(r, row, x, deg); err != nil {
		return nil, err
	}
	return row, nil
}

// DecodePayload parses a payload written by EncodePayload against the
// graph the scheme was built on, returning a scheme that routes
// bit-identically to the encoded one. Each router's span is proven
// canonical (proveRow) into one scratch row and kept as its code bytes.
// Malformed bytes (out-of-range ports, overrunning runs, non-canonical
// row codes, truncation) error, never panic; every allocation is sized
// by g or by the bits already proven, not by attacker-controlled counts.
func DecodePayload(r *coding.BitReader, g *graph.Graph) (*Scheme, error) {
	n := g.Order()
	s := newScheme(g, n)
	scratch := make([]graph.Port, n)
	w := coding.NewBitWriter()
	for x := 0; x < n; x++ {
		xi := graph.NodeID(x)
		deg := g.Degree(xi)
		start := r.Pos()
		rle, err := proveRow(r, scratch, xi, deg)
		if err != nil {
			return nil, err
		}
		w.Reset()
		w.WriteBitsFrom(r.Bytes(), start, r.Pos()-start)
		s.rows[x] = newRowCode(w, rle, deg)
	}
	return s, nil
}
