package schemeio

import (
	"bytes"
	"fmt"
	"sort"

	"repro/internal/coding"
	"repro/internal/graph"
	"repro/internal/scheme/table"
)

// Delta is a versioned generation patch on the scheme wire envelope —
// the record a fault-repair pipeline ships to serving shards instead of
// a full re-encoded scheme. It names the generation it applies to
// (BaseGen; applying it yields generation BaseGen+1), the edges the
// fault removed, and the replacement table rows the incremental repair
// produced. The port-stability contract of graph.RemoveEdge is what
// makes the record this small: surviving ports keep their labels, so
// unchanged rows stay valid verbatim and only the repaired rows travel.
//
// Wire layout, after the standard WireHeader(KindDelta, order):
//
//	uvarint baseGen
//	uvarint innerKind        (KindTable — the only patchable kind today)
//	uvarint numEdges, then per edge: uvarint u, uvarint v
//	    with u < v and the pairs strictly increasing lexicographically
//	uvarint numRows, then per row: uvarint router (strictly increasing)
//	    followed by the self-delimiting table row code
//
// DecodeDelta enforces the same canonicality gate as Decode: the bytes
// must re-encode to themselves, so no two byte strings alias one patch.
type Delta struct {
	BaseGen uint64            // generation this patch applies to
	Kind    uint64            // inner scheme kind (KindTable)
	Edges   [][2]graph.NodeID // removed edges, u < v, strictly increasing
	Routers []graph.NodeID    // routers with replacement rows, strictly increasing
	Rows    [][]graph.Port    // Rows[i] replaces Routers[i]'s table row
}

// NewGen returns the generation applying the delta produces.
func (d *Delta) NewGen() uint64 { return d.BaseGen + 1 }

// NewDelta assembles the patch record of one repair: the removed edges
// (any order and orientation; they are canonicalized) and the changed
// routers a table Repair reported, with their rows copied out of the
// repaired scheme.
func NewDelta(baseGen uint64, removed [][2]graph.NodeID, repaired *table.Scheme, changed []graph.NodeID) (*Delta, error) {
	d := &Delta{BaseGen: baseGen, Kind: KindTable}
	d.Edges = make([][2]graph.NodeID, len(removed))
	for i, e := range removed {
		u, v := e[0], e[1]
		if u > v {
			u, v = v, u
		}
		if u == v {
			return nil, fmt.Errorf("schemeio: delta edge %d-%d is a self-loop", e[0], e[1])
		}
		d.Edges[i] = [2]graph.NodeID{u, v}
	}
	sort.Slice(d.Edges, func(i, j int) bool {
		if d.Edges[i][0] != d.Edges[j][0] {
			return d.Edges[i][0] < d.Edges[j][0]
		}
		return d.Edges[i][1] < d.Edges[j][1]
	})
	for i := 1; i < len(d.Edges); i++ {
		if d.Edges[i] == d.Edges[i-1] {
			return nil, fmt.Errorf("schemeio: delta removes edge %d-%d twice", d.Edges[i][0], d.Edges[i][1])
		}
	}
	last := graph.NodeID(-1)
	for _, x := range changed {
		if x <= last {
			return nil, fmt.Errorf("schemeio: delta routers not ascending at %d", x)
		}
		last = x
		row, err := repaired.RowCopy(x)
		if err != nil {
			return nil, err
		}
		d.Routers = append(d.Routers, x)
		d.Rows = append(d.Rows, row)
	}
	return d, nil
}

// EncodeDelta serializes d against the BASE graph (generation BaseGen's
// topology — degrees are port-slot counts, identical before and after
// the removals, so either generation's graph yields the same bytes).
func EncodeDelta(g *graph.Graph, d *Delta) ([]byte, error) {
	n := g.Order()
	if d.Kind != KindTable {
		return nil, fmt.Errorf("schemeio: delta for kind %s not supported (table only)", KindName(d.Kind))
	}
	if len(d.Routers) != len(d.Rows) {
		return nil, fmt.Errorf("schemeio: delta has %d routers but %d rows", len(d.Routers), len(d.Rows))
	}
	w := coding.NewBitWriter()
	w.WriteWireHeader(KindDelta, n)
	w.WriteUvarint(d.BaseGen)
	w.WriteUvarint(d.Kind)
	w.WriteUvarint(uint64(len(d.Edges)))
	prev := [2]graph.NodeID{-1, -1}
	for _, e := range d.Edges {
		u, v := e[0], e[1]
		if u < 0 || u >= v || int(v) >= n {
			return nil, fmt.Errorf("schemeio: delta edge %d-%d not canonical in order %d", u, v, n)
		}
		if u < prev[0] || (u == prev[0] && v <= prev[1]) {
			return nil, fmt.Errorf("schemeio: delta edges not strictly increasing at %d-%d", u, v)
		}
		prev = e
		w.WriteUvarint(uint64(u))
		w.WriteUvarint(uint64(v))
	}
	w.WriteUvarint(uint64(len(d.Routers)))
	last := graph.NodeID(-1)
	for i, x := range d.Routers {
		if x <= last || int(x) >= n {
			return nil, fmt.Errorf("schemeio: delta router %d out of order or range", x)
		}
		last = x
		row := d.Rows[i]
		if len(row) != n {
			return nil, fmt.Errorf("schemeio: delta row of %d has %d entries, want %d", x, len(row), n)
		}
		deg := g.Degree(x)
		for v, p := range row {
			if graph.NodeID(v) == x {
				if p != graph.NoPort {
					return nil, fmt.Errorf("schemeio: delta row of %d stores port %d at itself", x, p)
				}
				continue
			}
			if p < 1 || int(p) > deg {
				return nil, fmt.Errorf("schemeio: delta row of %d has invalid port %d toward %d", x, p, v)
			}
		}
		w.WriteUvarint(uint64(x))
		table.AppendPortRowCode(w, row, x, deg)
	}
	return w.Bytes(), nil
}

// DecodeDelta parses a generation patch against the base graph it was
// encoded for. Malformed bytes error, never panic; every count is
// bounds-checked unsigned before it sizes anything; and the bytes must
// be the canonical encoding of the patch they describe (re-encode
// gate), mirroring Decode's contract.
func DecodeDelta(data []byte, g *graph.Graph) (*Delta, error) {
	n := g.Order()
	r := coding.NewBitReader(data, len(data)*8)
	hdr, err := r.ReadWireHeader()
	if err != nil {
		return nil, err
	}
	if hdr.Kind != KindDelta {
		return nil, fmt.Errorf("schemeio: blob is kind %s, not a delta", KindName(hdr.Kind))
	}
	if hdr.Order != n {
		return nil, fmt.Errorf("schemeio: delta is for order %d, graph has order %d", hdr.Order, n)
	}
	d := &Delta{}
	d.BaseGen, err = r.ReadUvarint()
	if err != nil {
		return nil, err
	}
	d.Kind, err = r.ReadUvarint()
	if err != nil {
		return nil, err
	}
	if d.Kind != KindTable {
		return nil, fmt.Errorf("schemeio: delta for kind %s not supported (table only)", KindName(d.Kind))
	}
	ne, err := r.ReadUvarint()
	if err != nil {
		return nil, err
	}
	// A simple graph of order n has fewer than n² edges; anything larger
	// is garbage sizing an allocation (checked unsigned: a 2^63 count
	// must not wrap past a signed bound).
	if ne > uint64(n)*uint64(n) {
		return nil, fmt.Errorf("schemeio: delta claims %d removed edges on order %d", ne, n)
	}
	d.Edges = make([][2]graph.NodeID, 0, ne)
	prev := [2]graph.NodeID{-1, -1}
	for i := uint64(0); i < ne; i++ {
		u, err := r.ReadUvarint()
		if err != nil {
			return nil, err
		}
		v, err := r.ReadUvarint()
		if err != nil {
			return nil, err
		}
		if u >= v || v >= uint64(n) {
			return nil, fmt.Errorf("schemeio: delta edge %d-%d not canonical in order %d", u, v, n)
		}
		e := [2]graph.NodeID{graph.NodeID(u), graph.NodeID(v)}
		if e[0] < prev[0] || (e[0] == prev[0] && e[1] <= prev[1]) {
			return nil, fmt.Errorf("schemeio: delta edges not strictly increasing at %d-%d", u, v)
		}
		prev = e
		d.Edges = append(d.Edges, e)
	}
	nr, err := r.ReadUvarint()
	if err != nil {
		return nil, err
	}
	if nr > uint64(n) {
		return nil, fmt.Errorf("schemeio: delta claims %d patched rows on order %d", nr, n)
	}
	d.Routers = make([]graph.NodeID, 0, nr)
	d.Rows = make([][]graph.Port, 0, nr)
	lastRow := graph.NodeID(-1)
	for i := uint64(0); i < nr; i++ {
		x, err := r.ReadUvarint()
		if err != nil {
			return nil, err
		}
		if x >= uint64(n) {
			return nil, fmt.Errorf("schemeio: delta router %d outside order %d", x, n)
		}
		xi := graph.NodeID(x)
		if xi <= lastRow {
			return nil, fmt.Errorf("schemeio: delta routers not strictly increasing at %d", x)
		}
		lastRow = xi
		row, err := table.DecodeRowFrom(r, n, xi, g.Degree(xi))
		if err != nil {
			return nil, err
		}
		d.Routers = append(d.Routers, xi)
		d.Rows = append(d.Rows, row)
	}
	if r.Remaining() >= 8 {
		return nil, fmt.Errorf("schemeio: %d trailing bytes after delta", r.Remaining()/8)
	}
	for r.Remaining() > 0 {
		b, err := r.ReadBit()
		if err != nil {
			return nil, err
		}
		if b != 0 {
			return nil, fmt.Errorf("schemeio: nonzero padding bit after delta")
		}
	}
	// Canonicality gate, same contract as Decode: accepting a
	// non-canonical spelling would let two byte strings alias one patch.
	re, err := EncodeDelta(g, d)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(re, data) {
		return nil, fmt.Errorf("schemeio: blob is not the canonical encoding of its delta")
	}
	return d, nil
}

// ApplyDelta replays d on generation BaseGen's pair (g, sch): it clones
// g, removes the delta's edges, and patches the repaired rows in
// copy-on-write (table.Scheme.WithRows — O(changed) new state, shared
// stripes elsewhere). g and sch are untouched, so a serving shard keeps
// answering on the old generation while the new one is assembled, then
// hot-swaps (serve.HotServer.Swap).
func ApplyDelta(g *graph.Graph, sch *table.Scheme, d *Delta) (*graph.Graph, *table.Scheme, error) {
	if d.Kind != KindTable {
		return nil, nil, fmt.Errorf("schemeio: delta for kind %s not supported (table only)", KindName(d.Kind))
	}
	h := g.Clone()
	for _, e := range d.Edges {
		if !h.HasEdge(e[0], e[1]) {
			return nil, nil, fmt.Errorf("schemeio: delta removes %d-%d, not an edge of the base graph", e[0], e[1])
		}
		h.RemoveEdge(e[0], e[1])
	}
	h.Freeze()
	ns, err := sch.WithRows(h, d.Routers, d.Rows)
	if err != nil {
		return nil, nil, err
	}
	return h, ns, nil
}
