package landmark

import (
	"repro/internal/graph"
	"repro/internal/shortest"
)

// newDense is the reference construction NewStreamed is pinned against:
// it samples the same landmarks and reads every distance it needs from a
// dense all-pairs table, straight from the definitions in the package
// comment. It exists only in tests, which compare NewStreamed's tables
// with its tables entry for entry.
func newDense(g *graph.Graph, opt Options) (*Scheme, error) {
	apsp := shortest.NewAPSPParallel(g, 0)
	if !apsp.Connected() {
		return nil, graph.ErrNotConnected
	}
	n := g.Order()
	s := newShell(g, opt)
	// Nearest landmark of every vertex (ties to the smallest id).
	for v := 0; v < n; v++ {
		best := s.landmarks[0]
		bd := apsp.Dist(graph.NodeID(v), best)
		for _, l := range s.landmarks[1:] {
			if d := apsp.Dist(graph.NodeID(v), l); d < bd {
				best, bd = l, d
			}
		}
		s.nearest[v] = best
	}
	// Per-router tables.
	for x := 0; x < n; x++ {
		xi := graph.NodeID(x)
		ports := make([]graph.Port, len(s.landmarks))
		for i, l := range s.landmarks {
			if l == xi {
				ports[i] = graph.NoPort
				continue
			}
			ports[i] = firstArc(g, apsp.Row(l), xi)
		}
		s.lmPort[x] = ports
		rowX := apsp.Row(xi)
		cl := make(map[graph.NodeID]graph.Port)
		for v := 0; v < n; v++ {
			vi := graph.NodeID(v)
			if vi == xi {
				continue
			}
			if rowX[v] < apsp.Dist(vi, s.nearest[v]) {
				cl[vi] = firstArc(g, apsp.Row(vi), xi)
			}
		}
		s.cluster[x] = cl
	}
	// Source-routed suffix path l(v) -> v carried in v's address.
	for v := 0; v < n; v++ {
		vi := graph.NodeID(v)
		rowV := apsp.Row(vi)
		l := s.nearest[v]
		var pp []graph.Port
		x := l
		for x != vi {
			p := firstArc(g, rowV, x)
			pp = append(pp, p)
			x = g.Arcs(x)[p-1]
		}
		s.pathPorts[v] = pp
	}
	s.fillBits()
	return s, nil
}
