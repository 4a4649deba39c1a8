package table

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/coding"
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
// scratch row and walked there; only a row with a changed entry is
// re-priced and re-encoded, so every other router keeps its code.
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
	scratch, bw := make([]graph.Port, n), coding.NewBitWriter()
	var changed []graph.NodeID
	for x := 0; x < n; x++ {
		xi := graph.NodeID(x)
		arcs := g.Arcs(xi)
		hasHole := false
		for _, w := range arcs {
			if w == graph.DeadEnd {
				hasHole = true
				break
			}
		}
		if !hasHole && len(ds) == 0 {
			continue
		}
		rowChanged, err := s.repairRow(apsp, xi, arcs, ds, inD, hasHole, pol, scratch)
		if err != nil {
			return nil, err
		}
		if rowChanged {
			s.rows[x] = encodeRow(bw, scratch, xi, len(arcs), encodedRowBits(scratch, xi, len(arcs)))
			changed = append(changed, xi)
		}
	}
	return changed, nil
}

// repairRow re-derives the suspect entries of router x's row. hasHole
// flags x as an endpoint of a removed edge: every entry must then be
// checked for a dead stored port, so the walk is dense; otherwise only
// the dirty destinations ds are visited (plus, under RunGreedy, the
// cascade tail after a change). The row is decoded into row, the
// caller's scratch, and a changed row is left there for Repair to
// re-encode.
func (s *Scheme) repairRow(apsp *shortest.APSP, x graph.NodeID, arcs []graph.NodeID, ds []graph.NodeID, inD []bool, hasHole bool, pol Policy, row []graph.Port) (bool, error) {
	s.rowInto(x, row)
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
// (rows are not retained), and every other router's code is shared with
// s. This is how a serving shard applies a schemeio fault delta —
// O(changed) new rows plus one copy of the per-router entries instead of
// an O(n²) rebuild. Routers must be ascending and unique; every patched
// port must be a live port of g (a delta that steers into a dead slot is
// corrupt).
func (s *Scheme) WithRows(g *graph.Graph, routers []graph.NodeID, rows [][]graph.Port) (*Scheme, error) {
	g.Freeze()
	n := g.Order()
	if n != len(s.rows) {
		return nil, fmt.Errorf("table: patch order mismatch: graph %d, scheme %d", n, len(s.rows))
	}
	if len(routers) != len(rows) {
		return nil, fmt.Errorf("table: %d routers but %d rows", len(routers), len(rows))
	}
	c := &Scheme{g: g, rows: slices.Clone(s.rows), hdr: s.hdr}
	bw := coding.NewBitWriter()
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
		c.rows[x] = encodeRow(bw, row, x, len(arcs), encodedRowBits(row, x, len(arcs)))
	}
	return c, nil
}
