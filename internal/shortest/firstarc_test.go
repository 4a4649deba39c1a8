package shortest

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/xrand"
)

// connectedScan is the full-table connectivity test Connected replaced:
// every entry of every row is checked for Unreachable.
func connectedScan(a *APSP) bool {
	for _, row := range a.dist {
		for _, d := range row {
			if d == Unreachable {
				return false
			}
		}
	}
	return true
}

// connectivityGraphs returns connected graphs, edge-faulted copies
// (some of which disconnect), copies with vertex 0 or another vertex
// removed, and disconnected unions.
func connectivityGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	out := map[string]*graph.Graph{}
	for i, fam := range gen.FamilyNames {
		for _, n := range []int{2, 9, 64} {
			g, err := gen.ByName(fam, n, xrand.New(uint64(90+i)))
			if err != nil {
				continue // a family without an instance of this order
			}
			name := fmt.Sprintf("%s/%d", fam, g.Order())
			out[name] = g
			r := xrand.New(uint64(n + i))
			for k, kills := range []int{1, 3, g.Size() / 2} {
				h := g.Clone()
				edges := h.Edges()
				for j := 0; j < kills && len(edges) > 0; j++ {
					e := edges[r.Intn(len(edges))]
					if h.PortTo(e[0], e[1]) != graph.NoPort {
						h.RemoveEdge(e[0], e[1])
					}
				}
				out[fmt.Sprintf("%s/edges%d", name, k)] = h
			}
			for _, v := range []graph.NodeID{0, graph.NodeID(g.Order() - 1), graph.NodeID(g.Order() / 2)} {
				h := g.Clone()
				h.RemoveVertex(v)
				out[fmt.Sprintf("%s/vertex%d", name, v)] = h
			}
		}
	}
	for _, parts := range [][]int{{1, 1}, {3, 5}, {10, 1, 7}} {
		n := 0
		for _, p := range parts {
			n += p
		}
		g := graph.New(n)
		base := 0
		for _, p := range parts {
			for v := base + 1; v < base+p; v++ {
				g.AddEdge(graph.NodeID(v-1), graph.NodeID(v))
			}
			base += p
		}
		out[fmt.Sprintf("union%v", parts)] = g
	}
	return out
}

// TestConnectedMatchesFullScan pins the row-0 Connected to the full
// scan on hop tables and on weighted ones, including weights large
// enough that a pair saturates at Unreachable while row 0 does not.
func TestConnectedMatchesFullScan(t *testing.T) {
	seen := map[bool]int{}
	for name, g := range connectivityGraphs(t) {
		a := NewAPSPParallel(g, 0)
		if got, want := a.Connected(), connectedScan(a); got != want {
			t.Fatalf("%s: Connected() = %v, full scan %v", name, got, want)
		}
		seen[connectedScan(a)]++
		w := RandomWeights(g, 9, xrand.New(uint64(len(name))))
		wa, err := NewWeightedAPSPParallel(g, w, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := wa.Connected(), connectedScan(wa); got != want {
			t.Fatalf("%s weighted: Connected() = %v, full scan %v", name, got, want)
		}
	}
	if seen[true] == 0 || seen[false] == 0 {
		t.Fatalf("fixtures cover only one outcome: %v", seen)
	}
	// A star whose leaf edges cost MaxInt32/2+k: row 0 is finite, but
	// leaf-to-leaf paths saturate, so the table is not connected. With
	// costs a little lower every pair fits and it is.
	for _, c := range []int32{math.MaxInt32/2 + 7, math.MaxInt32/2 - 7, math.MaxInt32 - 2} {
		g := gen.Star(4)
		w := UniformWeights(g)
		for p := graph.Port(1); p <= 3; p++ {
			leaf := g.Neighbor(0, p)
			w[0][p-1] = c
			w[leaf][g.BackPort(0, p)-1] = c
		}
		a, err := NewWeightedAPSPParallel(g, w, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := a.Connected(), connectedScan(a); got != want {
			t.Fatalf("star with leaf cost %d: Connected() = %v, full scan %v", c, got, want)
		}
	}
}

// FirstArcs returns the ports p of u that begin some shortest path from u
// to v: Neighbor(u,p) is one step closer to v. For u == v it returns nil.
// The scan reads the destination row a.Row(v) — equal to the d(·,v)
// column by symmetry — so neighbor lookups stay within one contiguous
// row.
func FirstArcs(g *graph.Graph, a *APSP, u, v graph.NodeID) []graph.Port {
	if u == v {
		return nil
	}
	var out []graph.Port
	rowV := a.Row(v)
	duv := rowV[u]
	for i, w := range g.Arcs(u) {
		if w < 0 {
			continue
		}
		if rowV[w]+1 == duv {
			out = append(out, graph.Port(i+1))
		}
	}
	return out
}

// WeightedFirstArcs returns the ports of u that begin some minimum-cost
// path toward v under w — the weighted analogue of FirstArcs. The
// membership test runs in int64 so near-MaxInt32 costs cannot wrap the
// d(x,v) + w(u,x) sum negative and admit (or hide) arcs.
func WeightedFirstArcs(g *graph.Graph, a *APSP, w Weights, u, v graph.NodeID) []graph.Port {
	if u == v {
		return nil
	}
	var out []graph.Port
	duv := int64(a.Dist(u, v))
	wu := w[u]
	for i, x := range g.Arcs(u) {
		if x < 0 {
			continue
		}
		if dx := a.Dist(x, v); dx != Unreachable && int64(dx)+int64(wu[i]) == duv {
			out = append(out, graph.Port(i+1))
		}
	}
	return out
}

// firstArcs is FirstArcs or, under weights, WeightedFirstArcs.
func firstArcs(g *graph.Graph, a *APSP, w Weights, x, v graph.NodeID) []graph.Port {
	if w != nil {
		return WeightedFirstArcs(g, a, w, x, v)
	}
	return FirstArcs(g, a, x, v)
}

// TestMinPortRowAcrossTiles compares MinPortRow with the lowest port of
// firstArcs on a graph of more than one kernel tile (so tile seams and
// the short last tile are crossed), with port holes left by removed
// edges, under the hop metric and under weights. Keeps is checked for
// every live port at every destination.
func TestMinPortRowAcrossTiles(t *testing.T) {
	n := 2*arcTile + 77
	g := gen.RandomConnected(n, 6.0/float64(n), xrand.New(3))
	edges := g.Edges()
	r := xrand.New(4)
	for k := 0; k < 40; k++ {
		e := edges[r.Intn(len(edges))]
		if g.PortTo(e[0], e[1]) != graph.NoPort {
			g.RemoveEdge(e[0], e[1])
		}
	}
	g.Freeze()
	w := RandomWeights(g, 5, xrand.New(5))
	hop := NewAPSPParallel(g, 0)
	weighted, err := NewWeightedAPSPParallel(g, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	var av ArcRows
	for _, tc := range []struct {
		name string
		a    *APSP
		w    Weights
	}{{"hop", hop, nil}, {"weighted", weighted, w}} {
		for _, x := range []graph.NodeID{0, 1, graph.NodeID(arcTile), graph.NodeID(n - 1), graph.NodeID(n / 2)} {
			av.Load(tc.a, g.Arcs(x), x, tc.w)
			row := make([]graph.Port, n)
			av.MinPortRow(row)
			for v := 0; v < n; v++ {
				arcs := firstArcs(g, tc.a, tc.w, x, graph.NodeID(v))
				want := graph.NoPort
				if len(arcs) > 0 {
					want = arcs[0] // nil at v == x
				}
				if row[v] != want {
					t.Fatalf("%s: row %d entry %d = %d, want %d", tc.name, x, v, row[v], want)
				}
				if graph.NodeID(v) == x {
					continue
				}
				for p := graph.Port(1); int(p) <= g.Degree(x); p++ {
					if got, want := av.Keeps(p, v), slices.Contains(arcs, p); got != want {
						t.Fatalf("%s: Keeps(%d, %d) at %d = %v, want %v", tc.name, p, v, x, got, want)
					}
				}
			}
		}
	}
}
