package core

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/shortest"
)

// ConstraintMatrixOf computes the matrix of constraints that the vertex
// sets A and B induce on an arbitrary graph g at stretch s, following
// Definition 1 directly: entry (i, j) is the unique first arc compatible
// with every stretch-s route a_i→b_j. It fails if some pair admits more
// than one first arc (then (A, B) does not certify a matrix of
// constraints at this stretch).
//
// This is the generalization behind Figure 1 of the paper, which exhibits
// such a matrix for shortest-path routing (s = 1) on the Petersen graph.
func ConstraintMatrixOf(g *graph.Graph, apsp *shortest.APSP, A, B []graph.NodeID, s float64) (*Matrix, error) {
	if apsp == nil {
		apsp = shortest.NewAPSPParallel(g, 0)
	}
	d := 0
	for _, a := range A {
		if deg := g.Degree(a); deg > d {
			d = deg
		}
	}
	cells := make([]uint8, 0, len(A)*len(B))
	for _, a := range A {
		for _, b := range B {
			if a == b {
				return nil, fmt.Errorf("core: constrained vertex %d is also a target", a)
			}
			port, ok := shortest.ForcedPort(g, apsp, a, b, s)
			if !ok {
				return nil, fmt.Errorf("core: pair %d→%d admits several stretch-%g first arcs", a, b, s)
			}
			cells = append(cells, uint8(port-1))
		}
	}
	return NewMatrix(len(A), len(B), d, cells)
}

// AllPairsForced reports whether EVERY ordered pair of distinct vertices
// of g has a unique stretch-s first arc. On the Petersen graph this holds
// at s = 1 because the graph is strongly regular (10,3,0,1): adjacent
// vertices share no common neighbor and non-adjacent ones share exactly
// one, so shortest paths are unique.
func AllPairsForced(g *graph.Graph, apsp *shortest.APSP, s float64) bool {
	if apsp == nil {
		apsp = shortest.NewAPSPParallel(g, 0)
	}
	n := g.Order()
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u == v {
				continue
			}
			if _, ok := shortest.ForcedPort(g, apsp, graph.NodeID(u), graph.NodeID(v), s); !ok {
				return false
			}
		}
	}
	return true
}

// UniqueShortestPaths reports whether every pair of distinct vertices is
// joined by exactly one shortest path — a sufficient condition for
// AllPairsForced at s = 1 (and slightly stronger: forcedness only needs a
// unique FIRST arc).
func UniqueShortestPaths(g *graph.Graph, apsp *shortest.APSP) bool {
	if apsp == nil {
		apsp = shortest.NewAPSPParallel(g, 0)
	}
	n := g.Order()
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u == v {
				continue
			}
			if shortest.CountShortestPaths(g, apsp, graph.NodeID(u), graph.NodeID(v), 4) != 1 {
				return false
			}
		}
	}
	return true
}
