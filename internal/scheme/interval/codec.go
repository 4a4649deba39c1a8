package interval

import (
	"fmt"

	"repro/internal/coding"
	"repro/internal/graph"
)

// Wire codec for the interval routing scheme (schemeio kind
// "interval"). The payload mirrors what LocalBits meters: the label
// permutation (shared section, n fixed-width values), then per router,
// per port, the cyclic intervals themselves — a gamma-coded count
// followed by two label endpoints per interval (writeIntervalSection).
// Router x's span is LocalBits(x) less its ceil(log2 n)-bit own label,
// which lives in the shared section. Destination-to-port assignment is
// reconstructed by expanding the intervals, so a decoded scheme routes
// bit-identically and recomputes the identical ivals / LocalBits from
// the expanded rows.

// EncodePayload appends the wire payload and returns per-router payload
// bits (the interval sections; the shared label permutation is not
// attributed to any router) plus the absolute bit offset of router 0's
// span — the per-router sections follow the permutation contiguously.
func (s *Scheme) EncodePayload(w *coding.BitWriter) (rb []int, routerStart int) {
	n := len(s.label)
	wn := coding.BitsFor(uint64(n))
	for v := 0; v < n; v++ {
		w.WriteBits(uint64(s.label[v]), wn)
	}
	routerStart = w.Len()
	rb = make([]int, n)
	for x := 0; x < n; x++ {
		start := w.Len()
		s.writeIntervalSection(w, graph.NodeID(x))
		rb[x] = w.Len() - start
	}
	return rb, routerStart
}

// DecodePayload parses a payload written by EncodePayload against the
// graph the scheme was built on. Labels must be a permutation, interval
// endpoints must be in-range labels, and the total expanded coverage
// per router is capped at n labels — so malformed bytes error without
// panicking or doing super-linear work per router.
func DecodePayload(r *coding.BitReader, g *graph.Graph) (*Scheme, error) {
	n := g.Order()
	wn := coding.BitsFor(uint64(n))
	s := &Scheme{
		g:      g,
		label:  make([]int32, n),
		invlab: make([]graph.NodeID, n),
		assign: make([][]graph.Port, n),
		ivals:  make([][]int, n),
		bits:   make([]int, n),
		hdr:    make([]header, n),
	}
	for lab := range s.hdr {
		s.hdr[lab] = header(lab)
	}
	seen := make([]bool, n)
	for v := 0; v < n; v++ {
		lab, err := r.ReadBits(wn)
		if err != nil {
			return nil, fmt.Errorf("interval: label of %d: %w", v, err)
		}
		// Compare in uint64: the label's bit width is derived from n, but
		// the bound must not depend on that arithmetic staying below 63.
		if lab >= uint64(n) || seen[lab] {
			return nil, fmt.Errorf("interval: labels are not a permutation (vertex %d)", v)
		}
		seen[lab] = true
		s.label[v] = int32(lab)
		s.invlab[lab] = graph.NodeID(v)
	}
	for x := 0; x < n; x++ {
		own := s.label[x]
		deg := g.Degree(graph.NodeID(x))
		row := make([]graph.Port, n)
		covered := 0
		for k := 0; k < deg; k++ {
			cnt, err := r.ReadGamma()
			if err != nil {
				return nil, fmt.Errorf("interval: interval count at %d port %d: %w", x, k+1, err)
			}
			// Compare in uint64: converting a count >= 2^63 first would
			// wrap negative and slip past the cap as "zero intervals".
			if cnt-1 > uint64(n) {
				return nil, fmt.Errorf("interval: %d intervals at %d port %d exceed order %d", cnt-1, x, k+1, n)
			}
			c := int(cnt - 1)
			for i := 0; i < c; i++ {
				a, err := r.ReadBits(wn)
				if err != nil {
					return nil, fmt.Errorf("interval: endpoint at %d port %d: %w", x, k+1, err)
				}
				b, err := r.ReadBits(wn)
				if err != nil {
					return nil, fmt.Errorf("interval: endpoint at %d port %d: %w", x, k+1, err)
				}
				if int(a) >= n || int(b) >= n {
					return nil, fmt.Errorf("interval: endpoint out of range at %d port %d", x, k+1)
				}
				for lab := int32(a); ; lab = (lab + 1) % int32(n) {
					if lab != own {
						if covered++; covered > n {
							return nil, fmt.Errorf("interval: intervals at %d cover more than %d labels", x, n)
						}
						row[lab] = graph.Port(k + 1)
					}
					if lab == int32(b) {
						break
					}
				}
			}
		}
		s.assign[x] = row
		s.ivals[x] = countIntervals(row, own, deg)
		s.bits[x] = s.localBits(x)
	}
	return s, nil
}
