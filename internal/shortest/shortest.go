// Package shortest computes distances, shortest-path structures and
// first-arc sets on unweighted graphs.
//
// The paper's definitions all reduce to distance queries: the stretch
// factor compares routing-path lengths with d_G, and a matrix of
// constraints exists exactly when, for each (a_i, b_j), a single outgoing
// arc of a_i is compatible with every route of length <= s*d_G(a_i, b_j).
// This package provides BFS, all-pairs tables, shortest-path DAGs, path
// counting, and the FeasibleFirstArcs/ForcedPort primitives that the
// constraint machinery in internal/core builds on.
package shortest

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/graph"
)

// Unreachable is the distance reported for disconnected pairs.
const Unreachable = int32(math.MaxInt32)

// BFS returns the distance vector from src: dist[v] = d_G(src, v), with
// Unreachable for vertices in other components.
func BFS(g *graph.Graph, src graph.NodeID) []int32 {
	dist, _ := BFSInto(g, src, nil, nil)
	return dist
}

// BFSInto is BFS with caller-owned scratch: dist and queue are reused
// when large enough and reallocated otherwise, and both are returned so
// a streaming reader can run one BFS per requested row with zero
// steady-state allocation. The computed row is bit-identical to BFS.
//
// The traversal is level-synchronized and direction-optimizing (Beamer
// et al.): a level whose outgoing arcs outnumber the scan cost of the
// remaining unvisited vertices is expanded bottom-up — each unvisited
// vertex probes its own arcs for a parent in the current level and stops
// at the first hit — instead of top-down. On the small-diameter graphs
// the suite sweeps, one or two bulk levels carry most of the arcs, and
// the switch removes the bulk of the failed-relaxation traffic. The
// distance vector cannot observe the direction: BFS levels are the sets
// {v : d(src,v) = k}, a property of the graph, not of discovery order.
// (The returned queue is visited vertices in level order; order WITHIN a
// level depends on the direction taken and is not part of the contract —
// no caller reads it, they reuse the queue as scratch capacity.)
func BFSInto(g *graph.Graph, src graph.NodeID, dist []int32, queue []graph.NodeID) ([]int32, []graph.NodeID) {
	n := g.Order()
	if cap(dist) < n {
		dist = make([]int32, n)
	}
	dist = dist[:n]
	for i := range dist {
		dist[i] = Unreachable
	}
	dist[src] = 0
	if cap(queue) < n {
		queue = make([]graph.NodeID, 0, n)
	}
	queue = queue[:0]
	queue = append(queue, src)
	unvisited := n - 1
	frontierArcs := len(g.Arcs(src))
	unvisitedArcs := 2*g.Size() - frontierArcs
	levelStart := 0
	for level := int32(0); levelStart < len(queue); level++ {
		frontier := queue[levelStart:]
		levelStart = len(queue)
		next := level + 1
		nextArcs := 0
		if unvisited > 0 && frontierArcs > n+unvisitedArcs/2 {
			// Bottom-up: cost ≈ n flag loads + early-exit parent probes.
			// Dead slots (w < 0, removed edges) are skipped; the arc-count
			// heuristic above may count them, which only shifts the
			// direction switch, never a distance.
			for v := 0; v < n; v++ {
				if dist[v] != Unreachable {
					continue
				}
				for _, w := range g.Arcs(graph.NodeID(v)) {
					if w < 0 {
						continue
					}
					if dist[w] == level {
						dist[v] = next
						queue = append(queue, graph.NodeID(v))
						d := len(g.Arcs(graph.NodeID(v)))
						nextArcs += d
						unvisitedArcs -= d
						unvisited--
						break
					}
				}
			}
		} else {
			// Top-down: classic frontier relaxation.
			for _, u := range frontier {
				for _, v := range g.Arcs(u) {
					if v < 0 {
						continue
					}
					if dist[v] == Unreachable {
						dist[v] = next
						queue = append(queue, v)
						d := len(g.Arcs(v))
						nextArcs += d
						unvisitedArcs -= d
						unvisited--
					}
				}
			}
		}
		frontierArcs = nextArcs
	}
	return dist, queue
}

// APSP holds an all-pairs distance table. For the graph orders used here
// (up to a few thousand) the n^2 table is the right tool; it is built by
// NewAPSPParallel (hop metric) or NewWeightedAPSPParallel (arc costs).
type APSP struct {
	n    int
	dist [][]int32
}

// RefreshRows recomputes the distance rows of the given roots in place
// against the current state of g — the incremental-repair counterpart of
// NewAPSPParallel. After a fault (RemoveEdge/RemoveVertex) only the rows whose
// BFS cone touched a removed arc can change; callers compute that dirty
// set (internal/faults.DirtyRoots) and refresh exactly those rows. The
// roots run through MSBFSInto MSBFSWidth at a time on the caller's
// goroutine, into one reused block from which each row is copied into
// place, so each refreshed row is bit-identical to the matching row of
// NewAPSPParallel on the mutated graph. Roots may repeat. g must have
// the same order the table was built with.
func (a *APSP) RefreshRows(g *graph.Graph, roots []graph.NodeID) {
	if g.Order() != a.n {
		panic(fmt.Sprintf("shortest: RefreshRows order mismatch: graph %d, table %d", g.Order(), a.n))
	}
	g.Freeze()
	n := a.n
	var block []int32
	var scr MSBFSScratch
	for lo := 0; lo < len(roots); lo += MSBFSWidth {
		chunk := roots[lo:min(lo+MSBFSWidth, len(roots))]
		block, _ = MSBFSInto(g, chunk, block, &scr)
		for i, u := range chunk {
			copy(a.dist[u], block[i*n:(i+1)*n])
		}
	}
}

// Dist returns d_G(u, v).
func (a *APSP) Dist(u, v graph.NodeID) int32 { return a.dist[u][v] }

// Row returns the distance vector from u. The caller must not modify it.
func (a *APSP) Row(u graph.NodeID) []int32 { return a.dist[u] }

// Order returns the number of vertices covered by the table.
func (a *APSP) Order() int { return a.n }

// Connected reports whether every pair is reachable. Tables are
// symmetric (RemoveEdge kills both half-edges and Weights.Validate
// enforces symmetric costs), so reachability is decided by row 0 alone.
// One caveat: a weighted table stores a path cost that reaches
// Unreachable as Unreachable. No pair saturates while twice the largest
// entry of row 0 stays below Unreachable (d(u,v) <= d(u,0) + d(0,v));
// every hop table qualifies, and any other falls back to a scan of the
// whole table.
func (a *APSP) Connected() bool {
	if a.n == 0 {
		return true
	}
	var ecc int64
	for _, d := range a.dist[0] {
		if d == Unreachable {
			return false
		}
		ecc = max(ecc, int64(d))
	}
	if 2*ecc < int64(Unreachable) {
		return true
	}
	for _, row := range a.dist[1:] {
		if slices.Contains(row, Unreachable) {
			return false
		}
	}
	return true
}

// Diameter returns max_{u,v} d_G(u,v), or Unreachable if disconnected.
func (a *APSP) Diameter() int32 {
	var diam int32
	for _, row := range a.dist {
		for _, d := range row {
			if d == Unreachable {
				return Unreachable
			}
			if d > diam {
				diam = d
			}
		}
	}
	return diam
}

// FeasibleFirstArcs returns the ports of u through which SOME routing path
// of length <= maxLen from u to v can start: port p qualifies iff
// 1 + d(Neighbor(u,p), v) <= maxLen. (A route may be longer than the
// shortest continuation, but never shorter, so this is exactly the set of
// first arcs compatible with the length bound.)
func FeasibleFirstArcs(g *graph.Graph, a *APSP, u, v graph.NodeID, maxLen int32) []graph.Port {
	if u == v {
		return nil
	}
	var out []graph.Port
	rowV := a.Row(v)
	for i, w := range g.Arcs(u) {
		if w < 0 {
			continue
		}
		if dw := rowV[w]; dw != Unreachable && dw+1 <= maxLen {
			out = append(out, graph.Port(i+1))
		}
	}
	return out
}

// ForcedPort returns (p, true) when EVERY route from u to v of stretch at
// most s must leave u through the single port p, and (NoPort, false)
// otherwise. The length budget is floor(s * d(u,v)) since path lengths are
// integers. This is Definition 1's condition, decided exactly.
func ForcedPort(g *graph.Graph, a *APSP, u, v graph.NodeID, s float64) (graph.Port, bool) {
	if u == v {
		return graph.NoPort, false
	}
	d := a.Dist(u, v)
	if d == Unreachable {
		return graph.NoPort, false
	}
	budget := int32(s * float64(d))
	arcs := FeasibleFirstArcs(g, a, u, v, budget)
	if len(arcs) == 1 {
		return arcs[0], true
	}
	return graph.NoPort, false
}

// CountShortestPaths returns the number of distinct shortest u→v paths,
// capped at cap to avoid overflow on dense graphs (the Petersen experiment
// only needs "is it exactly 1"). Counting proceeds by dynamic programming
// over the shortest-path DAG from u.
func CountShortestPaths(g *graph.Graph, a *APSP, u, v graph.NodeID, cap int64) int64 {
	if u == v {
		return 1
	}
	if a.Dist(u, v) == Unreachable {
		return 0
	}
	// Slice memo over vertex ids (-1 = unvisited): the DAG DP touches a
	// dense id range, so a flat array replaces the map's hashing on the
	// hot path while computing the identical counts.
	memo := make([]int64, g.Order())
	for i := range memo {
		memo[i] = -1
	}
	rowV := a.Row(v)
	var count func(x graph.NodeID) int64
	count = func(x graph.NodeID) int64 {
		if x == v {
			return 1
		}
		if c := memo[x]; c >= 0 {
			return c
		}
		var total int64
		dxv := rowV[x]
		for _, w := range g.Arcs(x) {
			if w < 0 {
				continue
			}
			if rowV[w]+1 == dxv {
				total += count(w)
				if total > cap {
					total = cap
				}
			}
		}
		memo[x] = total
		return total
	}
	return count(u)
}
