// Package spanner implements multiplicative graph spanners (Peleg &
// Schäffer, reference [11] of the paper). Spanners are the substrate
// behind the large-stretch upper bounds of the paper's Table 1: routing
// on a sparse t-spanner instead of the full graph trades stretch t for
// routing state proportional to the spanner's size.
//
// The construction is the classical greedy spanner (Althöfer et al.):
// scan edges in a fixed order and keep an edge only if the current
// spanner's distance between its endpoints exceeds t. The result is a
// t-spanner; for t = 2k-1 its size is O(n^(1+1/k)) (girth argument),
// which the tests check empirically.
package spanner

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/shortest"
)

// Greedy returns a t-spanner of g (t >= 1): a spanning subgraph H with
// d_H(u,v) <= t * d_G(u,v) for all u, v. Edges are scanned in sorted
// (u, v) order, so the output is deterministic. The returned graph has
// the same vertex set; ports are assigned in insertion order.
func Greedy(g *graph.Graph, t int) *graph.Graph {
	if t < 1 {
		panic("spanner: stretch must be >= 1")
	}
	n := g.Order()
	h := graph.New(n)
	// Distance check per candidate edge: bounded BFS in h from u up to
	// depth t, looking for v. The greedy invariant needs exact distances
	// in the PARTIAL spanner, which bounded BFS provides.
	dist := make([]int32, n)
	queue := make([]graph.NodeID, 0, n)
	withinT := func(u, v graph.NodeID) bool {
		for i := range dist {
			dist[i] = -1
		}
		dist[u] = 0
		queue = queue[:0]
		queue = append(queue, u)
		for head := 0; head < len(queue); head++ {
			x := queue[head]
			if dist[x] >= int32(t) {
				break // deeper vertices cannot certify <= t
			}
			dx1 := dist[x] + 1
			found := false
			for _, w := range h.Arcs(x) {
				if dist[w] == -1 {
					dist[w] = dx1
					if w == v {
						found = true
					}
					queue = append(queue, w)
				}
			}
			if found {
				return true
			}
		}
		return dist[v] != -1 && dist[v] <= int32(t)
	}
	for _, e := range g.Edges() {
		if !withinT(e[0], e[1]) {
			h.AddEdge(e[0], e[1])
		}
	}
	h.Freeze()
	return h
}

// Verify checks that h is a t-spanner of g by comparing all-pairs
// distances. It returns the measured maximum ratio and an error when the
// guarantee is violated (or h is not a subgraph of g on the same vertex
// set).
func Verify(g, h *graph.Graph, t int) (float64, error) {
	if g.Order() != h.Order() {
		return 0, fmt.Errorf("spanner: vertex sets differ (%d vs %d)", g.Order(), h.Order())
	}
	for _, e := range h.Edges() {
		if !g.HasEdge(e[0], e[1]) {
			return 0, fmt.Errorf("spanner: edge {%d,%d} not in the base graph", e[0], e[1])
		}
	}
	ag := shortest.NewAPSPParallel(g, 0)
	ah := shortest.NewAPSPParallel(h, 0)
	worst := 0.0
	for u := 0; u < g.Order(); u++ {
		for v := u + 1; v < g.Order(); v++ {
			dg := ag.Dist(graph.NodeID(u), graph.NodeID(v))
			dh := ah.Dist(graph.NodeID(u), graph.NodeID(v))
			if dg == shortest.Unreachable {
				continue
			}
			if dh == shortest.Unreachable {
				return 0, fmt.Errorf("spanner: pair (%d,%d) disconnected in the spanner", u, v)
			}
			r := float64(dh) / float64(dg)
			if r > worst {
				worst = r
			}
			if dh > int32(t)*dg {
				return worst, fmt.Errorf("spanner: pair (%d,%d): %d > %d*%d", u, v, dh, t, dg)
			}
		}
	}
	return worst, nil
}
