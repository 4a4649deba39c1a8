package table

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/graph"
	"repro/internal/shortest"
)

// Repair re-derives, in place, exactly the table entries a set of edge
// removals can have invalidated, and returns the routers whose rows
// changed (ascending). It is the incremental counterpart of a full New
// on the post-fault graph, bit-identical to it by construction:
//
//   - Entry (x,v) is a function of the distance row of v and the live
//     arcs of x. Removals only DELETE candidates from the lowest-port
//     scan, so an entry can change only when v's row changed (v is in
//     the dirty set) or the stored port itself went dead (possible only
//     at endpoints of removed edges, whose arc lists carry holes).
//   - Under RunGreedy an entry additionally depends on the previous
//     destination's chosen port, so any change cascades: subsequent
//     entries of that row are re-derived until one re-derives to its
//     stored value, at which point the chain state matches the build
//     again and the sparse scan resumes.
//
// apsp must already be refreshed on the post-fault graph (see
// shortest.RefreshRows), dirty must contain every root whose distance
// row changed (internal/faults.DirtyRoots computes a sound superset),
// and pol must be the policy the scheme was built with — the scheme does
// not record it, and repairing under the wrong policy diverges from the
// rebuild. Vertex removals are not repairable (a removed vertex
// disconnects the pair space and New on the post-fault graph errors);
// Repair returns an error when any destination became unreachable.
//
// Each visited router's row is decoded from its stored code into one
// scratch row and walked there; the changed rows are then patched in
// with WithRows, so only the stripes holding one are rewritten. A lazy
// stripe is proven before it is read, and a poisoned one fails the
// repair with its error, leaving s unchanged.
func (s *Scheme) Repair(apsp *shortest.APSP, dirty []graph.NodeID, pol Policy) ([]graph.NodeID, error) {
	g := s.g
	g.Freeze()
	n := g.Order()
	if apsp.Order() != n {
		return nil, fmt.Errorf("table: repair order mismatch: apsp %d, scheme %d", apsp.Order(), n)
	}
	inD := make([]bool, n)
	ds := make([]graph.NodeID, 0, len(dirty))
	for _, v := range dirty {
		if int(v) < 0 || int(v) >= n {
			return nil, fmt.Errorf("table: dirty root %d outside [0,%d)", v, n)
		}
		if !inD[v] {
			inD[v] = true
			ds = append(ds, v)
		}
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	scratch := make([]graph.Port, n)
	var changed []graph.NodeID
	var rows [][]graph.Port
	for x := 0; x < n; x++ {
		xi := graph.NodeID(x)
		arcs := g.Arcs(xi)
		hasHole := slices.Contains(arcs, graph.DeadEnd)
		if !hasHole && len(ds) == 0 {
			continue
		}
		if err := s.rowInto(xi, scratch, scratch); err != nil {
			return nil, err
		}
		rowChanged, err := repairRow(apsp, xi, arcs, ds, inD, hasHole, pol, scratch)
		if err != nil {
			return nil, err
		}
		if rowChanged {
			changed = append(changed, xi)
			rows = append(rows, slices.Clone(scratch))
		}
	}
	c, err := s.WithRows(g, changed, rows)
	if err != nil {
		return nil, err
	}
	s.stripes = c.stripes
	return changed, nil
}

// repairRow re-derives the suspect entries of router x's row. hasHole
// flags x as an endpoint of a removed edge: every entry must then be
// checked for a dead stored port, so the walk is dense; otherwise only
// the dirty destinations ds are visited (plus, under RunGreedy, the
// cascade tail after a change). row holds x's stored row, decoded into
// the caller's scratch, and a changed row is left there for Repair to
// patch in.
func repairRow(apsp *shortest.APSP, x graph.NodeID, arcs []graph.NodeID, ds []graph.NodeID, inD []bool, hasHole bool, pol Policy, row []graph.Port) (bool, error) {
	n := len(row)
	rowChanged := false
	cascade := false
	idx := 0 // next unconsumed position in ds during sparse scans
	v := -1
	for {
		if hasHole || cascade {
			v++
		} else {
			// Sparse: jump to the next dirty destination.
			for idx < len(ds) && int(ds[idx]) <= v {
				idx++
			}
			if idx >= len(ds) {
				break
			}
			v = int(ds[idx])
			idx++
		}
		if v >= n {
			break
		}
		if graph.NodeID(v) == x {
			continue
		}
		old := row[v]
		dead := old != graph.NoPort && arcs[old-1] == graph.DeadEnd
		if !cascade && !inD[v] && !dead {
			continue
		}
		rowV := apsp.Row(graph.NodeID(v))
		dxv := rowV[x]
		chosen := graph.NoPort
		if pol == RunGreedy {
			if prev := prevEntry(row, x, v); prev != graph.NoPort {
				if w := arcs[prev-1]; w != graph.DeadEnd && rowV[w]+1 == dxv {
					chosen = prev
				}
			}
		}
		if chosen == graph.NoPort {
			for i, w := range arcs {
				if w == graph.DeadEnd {
					continue
				}
				if rowV[w]+1 == dxv {
					chosen = graph.Port(i + 1)
					break
				}
			}
		}
		if chosen == graph.NoPort {
			return false, fmt.Errorf("table: no shortest first arc %d->%d", x, v)
		}
		if chosen != old {
			row[v] = chosen
			rowChanged = true
			cascade = pol == RunGreedy
		} else if cascade {
			// Chain state equals the build's again; later entries see the
			// same prev they were built with.
			cascade = false
		}
	}
	return rowChanged, nil
}

// prevEntry returns the stored port of the destination immediately
// before v in label order, skipping x — the RunGreedy chain state the
// builder's walk would carry into position v. Entries before v are final
// by the time this is read, so it equals the builder's prev exactly.
func prevEntry(row []graph.Port, x graph.NodeID, v int) graph.Port {
	for u := v - 1; u >= 0; u-- {
		if graph.NodeID(u) == x {
			continue
		}
		return row[u]
	}
	return graph.NoPort
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
