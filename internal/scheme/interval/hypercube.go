package interval

import (
	"fmt"

	"repro/internal/coding"
	"repro/internal/graph"
	"repro/internal/shortest"
)

// NewHypercube1IRS builds the classical one-interval-per-arc routing
// scheme on the d-dimensional hypercube with dimension-aligned port
// labels (gen.Hypercube's labeling).
//
// The port assignment corrects the HIGHEST differing bit (instead of
// e-cube's lowest): the destinations of port i+1 at vertex u are exactly
// the labels that agree with u above bit i and differ at bit i — a
// contiguous block of 2^i integers. Under identity labels every arc
// therefore carries exactly one (linear) interval, realizing the paper's
// hypercube row of Table 1 within the interval-routing framework: the
// Θ(log n) of e-cube and the O(d log n) = O(log² n) of 1-IRS both beat
// tables exponentially.
func NewHypercube1IRS(g *graph.Graph, d int) (*Scheme, error) {
	n := 1 << d
	if g.Order() != n {
		return nil, fmt.Errorf("interval: graph order %d is not 2^%d", g.Order(), d)
	}
	for u := 0; u < n; u++ {
		for bit := 0; bit < d; bit++ {
			if g.Neighbor(graph.NodeID(u), graph.Port(bit+1)) != graph.NodeID(u^(1<<bit)) {
				return nil, fmt.Errorf("interval: ports of %d are not dimension-aligned", u)
			}
		}
	}
	g.Freeze()
	s := &Scheme{
		g:      g,
		label:  make([]int32, n),
		invlab: make([]graph.NodeID, n),
		assign: make([][]graph.Port, n),
		ivals:  make([][]int, n),
		bits:   make([]int, n),
		hdr:    make([]header, n),
	}
	for v := 0; v < n; v++ {
		s.label[v] = int32(v)
		s.invlab[v] = graph.NodeID(v)
		s.hdr[v] = header(v)
	}
	for x := 0; x < n; x++ {
		row := make([]graph.Port, n)
		for v := 0; v < n; v++ {
			if v == x {
				continue
			}
			diff := uint32(x) ^ uint32(v)
			hi := 31
			for diff>>uint(hi)&1 == 0 {
				hi--
			}
			row[v] = graph.Port(hi + 1)
		}
		s.assign[x] = row
		s.ivals[x] = countIntervals(row, int32(x), d)
		wn := coding.BitsFor(uint64(n))
		b := wn
		for _, c := range s.ivals[x] {
			b += coding.GammaLen(uint64(c + 1))
			b += c * 2 * wn
		}
		s.bits[x] = b
	}
	// Correctness guard: highest-bit correction is a shortest-path rule
	// (each hop clears the top differing bit), checked here against BFS
	// to keep the constructor self-certifying on small cubes.
	if d <= 7 {
		apsp := shortest.NewAPSPParallel(g, 0)
		for x := 0; x < n; x++ {
			for v := 0; v < n; v++ {
				if v == x {
					continue
				}
				w := g.Neighbor(graph.NodeID(x), s.assign[x][v])
				if apsp.Dist(w, graph.NodeID(v))+1 != apsp.Dist(graph.NodeID(x), graph.NodeID(v)) {
					return nil, fmt.Errorf("interval: hypercube assignment is not shortest at (%d,%d)", x, v)
				}
			}
		}
	}
	return s, nil
}
