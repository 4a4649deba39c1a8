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
// scheme stores each router's canonical code, a stripe's codes
// contiguously, so the payload is one bit-aligned append per stripe
// (BitWriter.WriteBitsFrom). A lazily opened scheme must be proven
// first (Preload, which schemeio.Encode runs): an unproven or poisoned
// stripe has no code to write.
func (s *Scheme) EncodePayload(w *coding.BitWriter) (rb []int, routerStart int) {
	routerStart = w.Len()
	rb = make([]int, len(s.hdr))
	total := 0
	for x := range rb {
		rb[x] = s.LocalBits(graph.NodeID(x))
		total += rb[x]
	}
	w.Grow(total)
	for _, st := range s.stripes {
		w.WriteBitsFrom(st.code, int(st.bit(0)), int(st.offs[len(st.offs)-1]-st.offs[0]))
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
// only the canonical code of the row (see decodeRowInto), and unpacks
// a raw row after proving it on its packed fields.
func DecodeRowFrom(r *coding.BitReader, n int, x graph.NodeID, deg int) ([]graph.Port, error) {
	row := make([]graph.Port, n)
	if err := decodeRowInto(r, row, x, deg, true); err != nil {
		return nil, err
	}
	return row, nil
}

// DecodePayload parses a payload written by EncodePayload against the
// graph the scheme was built on, returning a scheme that routes
// bit-identically to the encoded one. Each router's span is proven
// canonical (proveRow: a raw row on its packed fields, unpacked into
// one scratch row only when its RLE price is in doubt), in sequence,
// and its code is copied into its stripe. Malformed bytes
// (out-of-range ports, overrunning runs, non-canonical row codes,
// truncation) error, never panic; every allocation is sized by g or by
// the bits already proven, not by attacker-controlled counts.
func DecodePayload(r *coding.BitReader, g *graph.Graph) (*Scheme, error) {
	s := newScheme(g)
	scratch := make([]graph.Port, len(s.hdr))
	var sb stripeBuf
	for si := range s.stripes {
		lo, hi := s.span(si)
		sb.start(s, si)
		for x := lo; x < hi; x++ {
			xi := graph.NodeID(x)
			start := r.Pos()
			row, err := proveRow(r, scratch, xi, g.Degree(xi))
			if err != nil {
				return nil, err
			}
			sb.add(r.Bytes(), start, r.Pos()-start, g.Degree(xi), row)
		}
		s.stripes[si] = sb.finish()
	}
	return s, nil
}
