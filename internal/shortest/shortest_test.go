package shortest

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/xrand"
)

func TestBFSPath(t *testing.T) {
	g := gen.Path(6)
	d := BFS(g, 0)
	for v := 0; v < 6; v++ {
		if d[v] != int32(v) {
			t.Fatalf("d(0,%d) = %d, want %d", v, d[v], v)
		}
	}
}

func TestBFSDisconnected(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1)
	d := BFS(g, 0)
	if d[2] != Unreachable {
		t.Fatal("unreachable vertex got a finite distance")
	}
}

func TestAPSPSymmetryAndTriangle(t *testing.T) {
	check := func(seed uint64, nn uint8) bool {
		n := int(nn%30) + 2
		g := gen.RandomConnected(n, 0.15, xrand.New(seed))
		a := NewAPSPParallel(g, 0)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if a.Dist(graph.NodeID(u), graph.NodeID(v)) != a.Dist(graph.NodeID(v), graph.NodeID(u)) {
					return false
				}
				for w := 0; w < n; w++ {
					if a.Dist(graph.NodeID(u), graph.NodeID(v)) >
						a.Dist(graph.NodeID(u), graph.NodeID(w))+a.Dist(graph.NodeID(w), graph.NodeID(v)) {
						return false
					}
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestAPSPAdjacency(t *testing.T) {
	g := gen.Petersen()
	a := NewAPSPParallel(g, 0)
	for u := 0; u < 10; u++ {
		for v := 0; v < 10; v++ {
			d := a.Dist(graph.NodeID(u), graph.NodeID(v))
			switch {
			case u == v && d != 0:
				t.Fatalf("d(%d,%d) = %d", u, v, d)
			case u != v && g.HasEdge(graph.NodeID(u), graph.NodeID(v)) && d != 1:
				t.Fatalf("adjacent pair at distance %d", d)
			case u != v && !g.HasEdge(graph.NodeID(u), graph.NodeID(v)) && d != 2:
				t.Fatalf("non-adjacent Petersen pair at distance %d", d)
			}
		}
	}
}

func TestDiameterAndEccentricity(t *testing.T) {
	g := gen.Path(7)
	a := NewAPSPParallel(g, 0)
	if a.Diameter() != 6 {
		t.Fatalf("path diameter %d, want 6", a.Diameter())
	}
}

func TestConnectedFlag(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	if NewAPSPParallel(g, 0).Connected() {
		t.Fatal("disconnected graph reported connected")
	}
}

func TestFirstArcsOnCycle(t *testing.T) {
	g := gen.Cycle(6)
	a := NewAPSPParallel(g, 0)
	// Antipodal pair: both directions are shortest.
	arcs := FirstArcs(g, a, 0, 3)
	if len(arcs) != 2 {
		t.Fatalf("antipodal pair has %d first arcs, want 2", len(arcs))
	}
	// Adjacent pair: unique.
	arcs = FirstArcs(g, a, 0, 1)
	if len(arcs) != 1 {
		t.Fatalf("adjacent pair has %d first arcs, want 1", len(arcs))
	}
}

func TestFeasibleFirstArcsWidens(t *testing.T) {
	g := gen.Cycle(8)
	a := NewAPSPParallel(g, 0)
	// 0 -> 2: shortest = 2, only one direction. With budget 6 the long way
	// round (length 6) also qualifies.
	tight := FeasibleFirstArcs(g, a, 0, 2, 2)
	loose := FeasibleFirstArcs(g, a, 0, 2, 6)
	if len(tight) != 1 {
		t.Fatalf("tight budget: %d arcs, want 1", len(tight))
	}
	if len(loose) != 2 {
		t.Fatalf("loose budget: %d arcs, want 2", len(loose))
	}
}

func TestForcedPortPetersenShortest(t *testing.T) {
	g := gen.Petersen()
	a := NewAPSPParallel(g, 0)
	for u := 0; u < 10; u++ {
		for v := 0; v < 10; v++ {
			if u == v {
				continue
			}
			p, ok := ForcedPort(g, a, graph.NodeID(u), graph.NodeID(v), 1.0)
			if !ok {
				t.Fatalf("Petersen pair (%d,%d) not forced at s=1", u, v)
			}
			w := g.Neighbor(graph.NodeID(u), p)
			if a.Dist(w, graph.NodeID(v))+1 != a.Dist(graph.NodeID(u), graph.NodeID(v)) {
				t.Fatalf("forced port does not shorten distance")
			}
		}
	}
}

func TestForcedPortVanishesAtHighStretch(t *testing.T) {
	g := gen.Petersen()
	a := NewAPSPParallel(g, 0)
	// At s = 3 every neighbor is within budget (diameter 2, budget >= 3 -
	// wait: budget = 3*d; for adjacent pairs budget 3, any neighbor is at
	// distance <= 3 of anything), so nothing is forced.
	forced := 0
	for u := 0; u < 10; u++ {
		for v := 0; v < 10; v++ {
			if u == v {
				continue
			}
			if _, ok := ForcedPort(g, a, graph.NodeID(u), graph.NodeID(v), 3.0); ok {
				forced++
			}
		}
	}
	if forced != 0 {
		t.Fatalf("%d pairs still forced at stretch 3 on Petersen", forced)
	}
}

func TestCountShortestPathsGrid(t *testing.T) {
	g := gen.Grid2D(3, 3)
	a := NewAPSPParallel(g, 0)
	// Corner to corner of a 3x3 grid: C(4,2) = 6 lattice paths.
	if c := CountShortestPaths(g, a, 0, 8, 1000); c != 6 {
		t.Fatalf("3x3 grid corner-to-corner shortest paths = %d, want 6", c)
	}
	if c := CountShortestPaths(g, a, 0, 0, 1000); c != 1 {
		t.Fatalf("trivial pair count = %d, want 1", c)
	}
}

func TestCountShortestPathsCap(t *testing.T) {
	g := gen.Grid2D(5, 5)
	a := NewAPSPParallel(g, 0)
	if c := CountShortestPaths(g, a, 0, 24, 3); c != 3 {
		t.Fatalf("cap not applied: got %d", c)
	}
}

// TestCountShortestPathsPetersen pins the Petersen path counts the
// Figure 1 experiment (E2) depends on: the Petersen graph is strongly
// regular srg(10,3,0,1) — adjacent vertices share no common neighbor,
// non-adjacent vertices share exactly one — so EVERY ordered pair has
// exactly one shortest path. This is the regression guard for the
// slice-memo rewrite of CountShortestPaths.
func TestCountShortestPathsPetersen(t *testing.T) {
	g := gen.Petersen()
	a := NewAPSPParallel(g, 0)
	for u := 0; u < 10; u++ {
		for v := 0; v < 10; v++ {
			got := CountShortestPaths(g, a, graph.NodeID(u), graph.NodeID(v), 1<<20)
			want := int64(1)
			if got != want {
				t.Fatalf("Petersen: %d shortest paths %d->%d, want %d", got, u, v, want)
			}
		}
	}
	// Contrast pin: C6 has exactly two shortest paths between antipodal
	// vertices, exercising the memo's accumulation across branches.
	c := gen.Cycle(6)
	ca := NewAPSPParallel(c, 0)
	if got := CountShortestPaths(c, ca, 0, 3, 1<<20); got != 2 {
		t.Fatalf("C6: %d shortest paths 0->3, want 2", got)
	}
}

func TestBFSMatchesAPSP(t *testing.T) {
	g := gen.Hypercube(5)
	a := NewAPSPParallel(g, 0)
	for u := 0; u < g.Order(); u++ {
		d := BFS(g, graph.NodeID(u))
		for v := 0; v < g.Order(); v++ {
			if d[v] != a.Dist(graph.NodeID(u), graph.NodeID(v)) {
				t.Fatalf("BFS/APSP mismatch at (%d,%d)", u, v)
			}
		}
	}
}

func TestHypercubeDistanceIsHamming(t *testing.T) {
	g := gen.Hypercube(4)
	a := NewAPSPParallel(g, 0)
	for u := 0; u < 16; u++ {
		for v := 0; v < 16; v++ {
			ham := int32(0)
			for x := u ^ v; x > 0; x &= x - 1 {
				ham++
			}
			if a.Dist(graph.NodeID(u), graph.NodeID(v)) != ham {
				t.Fatalf("hypercube distance (%d,%d) != Hamming", u, v)
			}
		}
	}
}

// TestRefreshRowsMatchesRebuild refreshes a table built before a fault
// (eight edges and one vertex removed) for root lists that are empty,
// shorter than one MS-BFS chunk, one chunk, one past it, not a multiple
// of MSBFSWidth with repeated roots, and every vertex: each refreshed
// row must equal BFSInto's on the faulted graph, one scalar BFS per row
// (not NewAPSPParallel, which runs the MS-BFS kernel under test), and
// every other row must keep its pre-fault value.
func TestRefreshRowsMatchesRebuild(t *testing.T) {
	const n = 300
	g := gen.RandomConnected(n, 6.0/n, xrand.New(11))
	pre := NewAPSPParallel(g, 0)
	h := g.Clone()
	for _, e := range g.Edges()[:8] {
		h.RemoveEdge(e[0], e[1])
	}
	h.RemoveVertex(17)
	want := make([][]int32, n)
	var queue []graph.NodeID
	for u := range want {
		want[u], queue = BFSInto(h, graph.NodeID(u), nil, queue)
	}
	rng := xrand.New(12)
	every := make([]graph.NodeID, n)
	for u := range every {
		every[u] = graph.NodeID(u)
	}
	repeated := make([]graph.NodeID, 150)
	for i := range repeated {
		repeated[i] = graph.NodeID(rng.Intn(n / 2))
	}
	for name, roots := range map[string][]graph.NodeID{
		"nil": nil, "empty": {}, "short": every[40:45], "chunk": every[:MSBFSWidth],
		"chunk+1": every[100 : 101+MSBFSWidth], "repeated": repeated, "every": every,
	} {
		a := &APSP{n: n, dist: make([][]int32, n)}
		for u := range a.dist {
			a.dist[u] = append(make([]int32, 0, n), pre.dist[u]...)
		}
		a.RefreshRows(h, roots)
		for u := range n {
			ref := pre.Row(graph.NodeID(u))
			for _, r := range roots {
				if int(r) == u {
					ref = want[u]
					break
				}
			}
			if !slices.Equal(a.Row(graph.NodeID(u)), ref) {
				t.Fatalf("%s: row %d differs from the reference", name, u)
			}
		}
	}
}
