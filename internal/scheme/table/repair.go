package table

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/shortest"
)

// Repair brings s, in place, to the tables New builds under pol on the
// faulted graph, and returns the routers whose rows changed
// (ascending). It rebuilds the whole table from apsp on the caller's
// goroutine (build with one worker) and diffs the canonical row codes:
// a router's code is a function of (row, router, degree), and a fault
// keeps every port slot and so every degree, so its code differs
// exactly when its row does (sameCode). Every stripe holding a changed
// router adopts the rebuilt stripe; every other stripe keeps its old
// pointer, so schemes that share it are untouched.
//
// apsp must already be refreshed on the post-fault graph (see
// (*shortest.APSP).RefreshRows), and pol must be the policy the scheme was
// built with — the scheme does not record it, and repairing under the
// wrong policy reports the rows of the other policy as changed. dirty
// is the set of roots whose distance row may have changed
// (internal/faults.DirtyRoots): its ids are range-checked, and it only
// gates the no-op — an empty dirty set on a graph without a dead port
// slot returns nil without reading a stripe. Otherwise every stored
// stripe is proven first, so a poisoned lazy stripe fails the repair
// with its error, and a fault that disconnected the graph fails it with
// graph.ErrNotConnected from build; either leaves s unchanged.
func (s *Scheme) Repair(apsp *shortest.APSP, dirty []graph.NodeID, pol Policy) ([]graph.NodeID, error) {
	g := s.g
	g.Freeze()
	n := g.Order()
	if apsp.Order() != n {
		return nil, fmt.Errorf("table: repair order mismatch: apsp %d, scheme %d", apsp.Order(), n)
	}
	for _, v := range dirty {
		if int(v) < 0 || int(v) >= n {
			return nil, fmt.Errorf("table: dirty root %d outside [0,%d)", v, n)
		}
	}
	if len(dirty) == 0 && !hasDeadSlot(g) {
		return nil, nil
	}
	scratch := make([]graph.Port, n)
	for si := range s.stripes {
		if st := s.stripe(si, scratch); st.err != nil {
			return nil, st.err
		}
	}
	fresh, err := build(g, apsp, nil, pol, 1)
	if err != nil {
		return nil, err
	}
	var changed []graph.NodeID
	for si, st := range s.stripes {
		ft, lo, k := fresh.stripes[si], si*lazyStripe, len(changed)
		for i := range st.wid {
			if !sameCode(st, ft, i) {
				changed = append(changed, graph.NodeID(lo+i))
			}
		}
		if len(changed) == k {
			fresh.stripes[si] = st
		}
	}
	s.stripes = fresh.stripes
	return changed, nil
}

// hasDeadSlot reports whether some router of g has a port slot whose
// edge was removed.
func hasDeadSlot(g *graph.Graph) bool {
	for x := range g.Order() {
		if slices.Contains(g.Arcs(graph.NodeID(x)), graph.DeadEnd) {
			return true
		}
	}
	return false
}

// sameCode reports whether router lo+i holds the same code in stripes a
// and b: the same length and the same bits.
func sameCode(a, b *stripe, i int) bool {
	nbits := a.offs[i+1] - a.offs[i]
	return nbits == b.offs[i+1]-b.offs[i] && bitsEqual(a.code, a.bit(i), b.code, b.bit(i), nbits)
}

// bitsEqual reports whether the nbits bits at bit p of x equal those at
// bit q of y, 64 at a time (window). Either span may start at any bit;
// each slice must hold 8 bytes past its span's last byte, which a
// stripe's pad guarantees.
func bitsEqual(x []byte, p uint64, y []byte, q uint64, nbits uint64) bool {
	for ; nbits >= 64; nbits -= 64 {
		if window(x, p) != window(y, q) {
			return false
		}
		p, q = p+64, q+64
	}
	return nbits == 0 || (window(x, p)^window(y, q))>>(64-nbits) == 0
}

// window returns the 64 bits of c from bit p on, first bit highest. It
// reads the 9 bytes from p's byte on.
func window(c []byte, p uint64) uint64 {
	i, sh := p>>3, p&7
	return binary.BigEndian.Uint64(c[i:])<<sh | uint64(c[i+8])>>(8-sh)
}

// WithRows returns a copy-on-write patch of s bound to g: routers[i]'s
// row becomes rows[i], priced and encoded into its canonical code here
// (rows are not retained). Only the stripes holding a patched router
// are rewritten, their other routers' codes copied bit for bit; every
// other stripe is shared with s by pointer, proven or not. This is how
// a serving shard applies a schemeio fault delta — O(changed) new rows
// plus one pointer per stripe instead of an O(n²) rebuild. Routers must
// be ascending and unique; every patched port must be a live port of g
// (a delta that steers into a dead slot is corrupt). A lazy stripe that
// is rewritten is proven first, and a poisoned one returns its error.
func (s *Scheme) WithRows(g *graph.Graph, routers []graph.NodeID, rows [][]graph.Port) (*Scheme, error) {
	g.Freeze()
	n := g.Order()
	if n != len(s.hdr) {
		return nil, fmt.Errorf("table: patch order mismatch: graph %d, scheme %d", n, len(s.hdr))
	}
	if len(routers) != len(rows) {
		return nil, fmt.Errorf("table: %d routers but %d rows", len(routers), len(rows))
	}
	last := graph.NodeID(-1)
	for i, x := range routers {
		if x <= last || int(x) >= n {
			return nil, fmt.Errorf("table: patched router %d out of order or range", x)
		}
		last = x
		row := rows[i]
		if len(row) != n {
			return nil, fmt.Errorf("table: patched row of %d has %d entries, want %d", x, len(row), n)
		}
		arcs := g.Arcs(x)
		for v, p := range row {
			if graph.NodeID(v) == x {
				if p != graph.NoPort {
					return nil, fmt.Errorf("table: patched row of %d stores port %d at itself", x, p)
				}
				continue
			}
			if p < 1 || int(p) > len(arcs) {
				return nil, fmt.Errorf("table: patched row of %d has invalid port %d toward %d", x, p, v)
			}
			if arcs[p-1] == graph.DeadEnd {
				return nil, fmt.Errorf("table: patched row of %d routes %d into dead port %d", x, v, p)
			}
		}
	}
	c := &Scheme{g: g, hdr: s.hdr, stripes: slices.Clone(s.stripes), payload: s.payload}
	var sb stripeBuf
	for k := 0; k < len(routers); {
		si := int(routers[k]) / lazyStripe
		st := s.stripe(si, nil)
		if st.err != nil {
			return nil, st.err
		}
		lo, hi := s.span(si)
		sb.start(s, si)
		for x := lo; x < hi; x++ {
			xi := graph.NodeID(x)
			deg := g.Degree(xi)
			if k < len(routers) && routers[k] == xi {
				sb.write(rows[k], xi, deg, encodedRowBits(rows[k], xi, deg))
				k++
			} else {
				i := x - lo
				var rle []graph.Port
				if st.wid[i] == rleWidth {
					rle = st.rle[i]
				}
				sb.add(st.code, int(st.bit(i)), int(st.offs[i+1]-st.offs[i]), deg, rle)
			}
		}
		c.stripes[si] = sb.finish()
	}
	return c, nil
}
