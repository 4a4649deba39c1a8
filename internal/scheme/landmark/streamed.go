package landmark

import (
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/shortest"
)

// NewStreamed samples landmarks and builds all tables — nearest
// assignments, ports, clusters, address paths and LocalBits, exactly as
// the package comment defines them — without ever materializing the n²
// distance table, so it serves every order, including those where the
// dense table no longer fits in RAM. It returns graph.ErrNotConnected
// on a disconnected graph.
//
// Every column access d(·,v) of the definitions becomes a read of some
// BFS labelling we are willing to keep:
//
//   - the |L| landmark rows d(l_i, ·) = d(·, l_i), computed by
//     shortest.MSBFSInto in blocks of MSBFSWidth landmarks into one
//     |L|×n block (O(|L|·n) memory, which the lmPort tables the scheme
//     must store are anyway), give the nearest landmarks and, through
//     firstArc on each finished row, the whole lmPort table;
//   - per destination v, a BFS from v truncated at radius d(v, l(v))
//     answers the rest. v's cluster entries live at the x with
//     d(x,v) < d(v,l(v)), and its address path climbs from distance
//     d(v,l(v)) down to v, so a port is only ever asked of a vertex at
//     distance <= d(v,l(v)) and only reads the labels one level closer:
//     labelling the ball of radius d(v,l(v))-1, and l(v), makes every
//     such read exact (see ball.grow). A destination costs the arcs its ball touches,
//     not O(n+m), and the balls are sharded over a worker pool into
//     per-worker scratch (O(workers·n) memory).
//
// Every port of the scheme is firstArc's lowest-port tie-break on an
// exact distance row or ball labelling, so the tables depend only on
// the graph and Options, never on workers or traversal order.
//
// Each pass runs on a par.For pool; workers <= 0 selects GOMAXPROCS
// (par.Workers).
func NewStreamed(g *graph.Graph, opt Options, workers int) (*Scheme, error) {
	n := g.Order()
	if n == 0 {
		return nil, graph.ErrNotConnected
	}
	s := newShell(g, opt) // freezes g: workers below only read the CSR arcs
	k := len(s.landmarks)

	// Landmark rows: distToLm[i][v] = d(landmarks[i], v) = d(v, l_i), one
	// MS-BFS pass per block of MSBFSWidth landmarks, each worker reusing
	// its own scratch across the blocks it claims.
	rows := make([]int32, k*n)
	blocks := (k + shortest.MSBFSWidth - 1) / shortest.MSBFSWidth
	newScratch := func() *shortest.MSBFSScratch { return &shortest.MSBFSScratch{} }
	_ = par.For(workers, blocks, newScratch, func(scr *shortest.MSBFSScratch, b int) error {
		lo, hi := b*shortest.MSBFSWidth, min((b+1)*shortest.MSBFSWidth, k)
		shortest.MSBFSInto(g, s.landmarks[lo:hi], rows[lo*n:hi*n:hi*n], scr)
		return nil // a BFS cannot fail
	})
	distToLm := make([][]int32, k)
	for i := range distToLm {
		distToLm[i] = rows[i*n : (i+1)*n]
	}
	// Connectivity gate, before any port is derived (firstArc has no
	// answer at an unreachable vertex): one row reaches every vertex iff
	// the graph is connected.
	for _, d := range distToLm[0] {
		if d == shortest.Unreachable {
			return nil, graph.ErrNotConnected
		}
	}

	// Nearest landmark (ties to the smallest id: landmarks are sorted and
	// the comparison is strict).
	for v := 0; v < n; v++ {
		bi := 0
		bd := distToLm[0][v]
		for i := 1; i < k; i++ {
			if d := distToLm[i][v]; d < bd {
				bi, bd = i, d
			}
		}
		s.nearest[v] = s.landmarks[bi]
	}

	// lmPort[x][i] is the canonical first arc of x toward landmark i,
	// NoPort at the landmark itself (distance 0). Landmark-outer: each
	// pass walks one finished row, so firstArc's probes stay within it.
	ports := make([]graph.Port, n*k)
	for x := range s.lmPort {
		s.lmPort[x] = ports[x*k : (x+1)*k : (x+1)*k]
	}
	_ = par.For(workers, k, func() struct{} { return struct{}{} }, func(_ struct{}, i int) error {
		row := distToLm[i]
		for x, d := range row {
			if d != 0 {
				s.lmPort[x][i] = firstArc(g, row, graph.NodeID(x))
			}
		}
		return nil // past the connectivity gate firstArc always answers
	})

	// Per-destination sweep: the ball around v answers every d(·,v) column
	// the tables read — cluster membership d(x,v) < d(v,l(v)), the cluster port
	// at each member x, and the address path l(v) -> v. Cluster entries
	// are collected per destination and folded into the per-router maps
	// serially afterwards (map values are keyed lookups, so insertion
	// order cannot matter).
	type member struct {
		x graph.NodeID
		p graph.Port
	}
	contrib := make([][]member, n)
	_ = par.For(workers, n, func() *ball { return &ball{} }, func(b *ball, v int) error {
		vi := graph.NodeID(v)
		l := s.nearest[v]
		b.grow(g, vi, l, distToLm[s.lmIndex[l]][v])
		var ms []member
		if len(b.q) > 2 {
			members := b.q[1 : len(b.q)-1]
			ms = make([]member, len(members))
			for i, x := range members {
				ms[i] = member{x: x, p: firstArc(g, b.label, x)}
			}
		}
		contrib[v] = ms
		var pp []graph.Port
		for x := l; x != vi; {
			p := firstArc(g, b.label, x)
			pp = append(pp, p)
			x = g.Arcs(x)[p-1]
		}
		s.pathPorts[v] = pp
		b.clear()
		return nil
	})
	for x := 0; x < n; x++ {
		s.cluster[x] = make(map[graph.NodeID]graph.Port)
	}
	for v := 0; v < n; v++ {
		for _, m := range contrib[v] {
			s.cluster[m.x][graph.NodeID(v)] = m.p
		}
	}
	s.fillBits()
	return s, nil
}

// ball is one worker's scratch for the per-destination search from v:
// the labels of v's cluster {x : d(x,v) < d(v,l(v))}, of v itself and
// of l(v).
type ball struct {
	// label holds d(x,v)+1 for the labelled x; 0 means not reached. The
	// +1 offset lets the zeroed allocation double as the cleared state,
	// and cancels in firstArc's test label[w]+1 == label[x].
	label []int32
	// q holds the labelled vertices in level order: v, then the cluster,
	// then l(v) when l(v) != v. The whole list is the set clear walks.
	q []graph.NodeID
}

// grow labels the ball of radius bound-1 around v by level-synchronous
// top-down BFS, stopped before the level at distance bound = d(v,l), and
// then l at distance bound. bound == 0 (v is its own landmark) labels v
// alone.
//
// Exactness. firstArc is asked of a cluster member or a vertex of the
// address path l -> v: a labelled x at distance k <= bound, whose
// answer is its lowest port with a head at distance k-1. Every vertex
// at distance k-1 <= bound-1 is labelled with its exact distance, and
// every other vertex is unlabelled (label 0, which matches only at v)
// or is l (label bound+1 > k), so firstArc on the labels returns
// exactly what it returns on the full row d(·,v). Dead ports (w < 0)
// are skipped exactly as BFSInto and firstArc skip them.
func (b *ball) grow(g *graph.Graph, v, l graph.NodeID, bound int32) {
	if b.label == nil {
		b.label = make([]int32, g.Order())
	}
	b.label[v] = 1
	b.q = append(b.q[:0], v)
	start := 0
	for next := int32(2); next <= bound; next++ {
		end := len(b.q)
		for _, x := range b.q[start:end] {
			for _, y := range g.Arcs(x) {
				if y < 0 {
					continue
				}
				if b.label[y] == 0 {
					b.label[y] = next
					b.q = append(b.q, y)
				}
			}
		}
		start = end
	}
	if l != v {
		b.label[l] = bound + 1
		b.q = append(b.q, l)
	}
}

// clear resets the labels through the visit list, so a search costs
// what it touched, not O(n).
func (b *ball) clear() {
	for _, x := range b.q {
		b.label[x] = 0
	}
}
