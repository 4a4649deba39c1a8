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
// pair (routerStart, rb) locates every row for random access.
func (s *Scheme) EncodePayload(w *coding.BitWriter) (rb []int, routerStart int) {
	routerStart = w.Len()
	rb = make([]int, len(s.ports))
	total := 0
	for _, b := range s.bits {
		total += b
	}
	w.Grow(total)
	for x, row := range s.ports {
		start := w.Len()
		writeRowCode(w, row, graph.NodeID(x), s.g.Degree(graph.NodeID(x)), s.bits[x])
		rb[x] = w.Len() - start
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
// bit-identically to the encoded one. Malformed bytes (out-of-range
// ports, overrunning runs, non-canonical row codes, truncation) error,
// never panic; every allocation is sized by g, not by
// attacker-controlled counts.
func DecodePayload(r *coding.BitReader, g *graph.Graph) (*Scheme, error) {
	n := g.Order()
	s := newScheme(g, n)
	for x := 0; x < n; x++ {
		xi := graph.NodeID(x)
		deg := g.Degree(xi)
		start := r.Pos()
		row, err := DecodeRowFrom(r, n, xi, deg)
		if err != nil {
			return nil, err
		}
		s.ports[x] = row
		s.bits[x] = r.Pos() - start // a canonical row code is exactly LocalBits long
	}
	return s, nil
}
