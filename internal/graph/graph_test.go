package graph

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func triangle() *Graph {
	g := New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 0)
	return g
}

func TestEmptyGraph(t *testing.T) {
	g := New(0)
	if g.Order() != 0 || g.Size() != 0 {
		t.Fatal("empty graph has wrong order/size")
	}
	if !g.Connected() {
		t.Fatal("empty graph should count as connected")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAddEdgePorts(t *testing.T) {
	g := New(3)
	pu, pv := g.AddEdge(0, 1)
	if pu != 1 || pv != 1 {
		t.Fatalf("first edge ports = (%d,%d), want (1,1)", pu, pv)
	}
	pu, pv = g.AddEdge(0, 2)
	if pu != 2 || pv != 1 {
		t.Fatalf("second edge ports = (%d,%d), want (2,1)", pu, pv)
	}
	if g.Size() != 2 {
		t.Fatalf("size = %d, want 2", g.Size())
	}
	if g.Degree(0) != 2 || g.Degree(1) != 1 || g.Degree(2) != 1 {
		t.Fatal("degrees wrong")
	}
}

func TestSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("self-loop did not panic")
		}
	}()
	New(2).AddEdge(1, 1)
}

func TestDuplicateEdgePanics(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate edge did not panic")
		}
	}()
	g.AddEdge(1, 0)
}

func TestNeighborAndBackPort(t *testing.T) {
	g := triangle()
	for u := NodeID(0); u < 3; u++ {
		for p := Port(1); int(p) <= g.Degree(u); p++ {
			v := g.Neighbor(u, p)
			bp := g.BackPort(u, p)
			if g.Neighbor(v, bp) != u {
				t.Fatalf("back port of (%d, port %d) broken", u, p)
			}
		}
	}
}

func TestPortTo(t *testing.T) {
	g := triangle()
	if p := g.PortTo(0, 1); g.Neighbor(0, p) != 1 {
		t.Fatal("PortTo(0,1) wrong")
	}
	g2 := New(3)
	g2.AddEdge(0, 1)
	if g2.PortTo(0, 2) != NoPort {
		t.Fatal("PortTo for non-adjacent pair should be NoPort")
	}
}

func TestHasEdgeSymmetric(t *testing.T) {
	g := triangle()
	for u := NodeID(0); u < 3; u++ {
		for v := NodeID(0); v < 3; v++ {
			if u != v && g.HasEdge(u, v) != g.HasEdge(v, u) {
				t.Fatalf("HasEdge asymmetric on (%d,%d)", u, v)
			}
		}
	}
}

func TestPermutePorts(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1) // port 1 at 0
	g.AddEdge(0, 2) // port 2 at 0
	g.AddEdge(0, 3) // port 3 at 0
	// Rotate: old port k moves to position perm[k-1]+1.
	g.PermutePorts(0, []int{2, 0, 1})
	if g.Neighbor(0, 3) != 1 || g.Neighbor(0, 1) != 2 || g.Neighbor(0, 2) != 3 {
		t.Fatalf("permuted neighbors wrong: %v %v %v",
			g.Neighbor(0, 1), g.Neighbor(0, 2), g.Neighbor(0, 3))
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("validate after permute: %v", err)
	}
}

func TestPermutePortsRejectsBadPerm(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("bad permutation did not panic")
		}
	}()
	g.PermutePorts(0, []int{0, 0})
}

func TestSortPortsByNeighbor(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 3)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.SortPortsByNeighbor()
	for p := Port(1); p <= 3; p++ {
		if g.Neighbor(0, p) != NodeID(p) {
			t.Fatalf("port %d -> %d, want %d", p, g.Neighbor(0, p), p)
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIndependence(t *testing.T) {
	g := triangle()
	h := g.Clone()
	h.AddNode()
	h.AddEdge(0, 3)
	if g.Order() != 3 || g.Size() != 3 {
		t.Fatal("clone mutation leaked into original")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConnected(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	if g.Connected() {
		t.Fatal("two components reported connected")
	}
	g.AddEdge(1, 2)
	if !g.Connected() {
		t.Fatal("path reported disconnected")
	}
}

func TestEdgesSorted(t *testing.T) {
	g := triangle()
	es := g.Edges()
	if len(es) != 3 {
		t.Fatalf("got %d edges, want 3", len(es))
	}
	for i := 1; i < len(es); i++ {
		if es[i-1][0] > es[i][0] || (es[i-1][0] == es[i][0] && es[i-1][1] >= es[i][1]) {
			t.Fatal("edges not sorted")
		}
	}
}

func randomGraph(seed uint64, n int, prob float64) *Graph {
	r := xrand.New(seed)
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.Float64() < prob {
				g.AddEdge(NodeID(u), NodeID(v))
			}
		}
	}
	return g
}

func TestValidateProperty(t *testing.T) {
	check := func(seed uint64, nn uint8) bool {
		n := int(nn%20) + 2
		g := randomGraph(seed, n, 0.4)
		return g.Validate() == nil
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPermutePortsPreservesValidity(t *testing.T) {
	check := func(seed uint64, nn uint8) bool {
		n := int(nn%15) + 3
		r := xrand.New(seed)
		g := randomGraph(seed+1, n, 0.5)
		for u := 0; u < n; u++ {
			if d := g.Degree(NodeID(u)); d > 0 {
				g.PermutePorts(NodeID(u), r.Perm(d))
			}
		}
		return g.Validate() == nil
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

// TestValidateErrors pins Validate's error text for each invariant a
// decoded or mutated graph can break, so callers that surface these
// messages (the scheme container's graph section) keep stable errors.
func TestValidateErrors(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(g *Graph)
		want    string
	}{
		{"duplicate", func(g *Graph) { g.adj[0][1] = 1; g.backPort[0][1] = 1 }, "vertex 0: duplicate edge to 1"},
		{"self-loop", func(g *Graph) { g.adj[0][0] = 0 }, "vertex 0: self-loop on port 1"},
		{"outside", func(g *Graph) { g.adj[0][1] = 7 }, "vertex 0: port 2 points outside the graph"},
		{"back port range", func(g *Graph) { g.backPort[0][0] = 3 }, "vertex 0 port 1: back port 3 out of range at 1"},
		{"back port asymmetric", func(g *Graph) { g.backPort[0][0] = 2 }, "vertex 0 port 1: back port 2 at 1 leads to 2, not back"},
		{"dead port", func(g *Graph) { g.adj[0][0] = DeadEnd }, "vertex 0: dead port 1 keeps back port 1"},
		{"edge count", func(g *Graph) { g.edges++ }, "edge count 4 inconsistent with 6 arcs"},
	} {
		g := triangle()
		tc.corrupt(g)
		if err := g.Validate(); err == nil || err.Error() != tc.want {
			t.Errorf("%s: Validate() = %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestValidateAllocs bounds Validate's allocations: one n-sized stamp
// slice, never a per-vertex set.
func TestValidateAllocs(t *testing.T) {
	g := randomGraph(9, 4096, 0.002)
	g.Freeze()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(5, func() { _ = g.Validate() }); allocs > 2 {
		t.Fatalf("Validate at n=4096: %.0f allocs/op, want <= 2", allocs)
	}
}

// csrOf copies g's frozen arena into the three FromCSR arrays.
func csrOf(g *Graph) (deg []int32, nbr []NodeID, back []Port) {
	deg = make([]int32, g.Order())
	for u := range deg {
		deg[u] = int32(g.Degree(NodeID(u)))
		nbr = append(nbr, g.Arcs(NodeID(u))...)
		back = append(back, g.BackPorts(NodeID(u))...)
	}
	return deg, nbr, back
}

// TestFromCSR pins the adopting constructor: a frozen graph's arena
// rebuilds the identical port labeling, frozen, and every malformed
// arena is an error.
func TestFromCSR(t *testing.T) {
	r := xrand.New(5)
	g := randomGraph(42, 10, 0.5)
	for u := 0; u < g.Order(); u++ {
		if d := g.Degree(NodeID(u)); d > 1 {
			g.PermutePorts(NodeID(u), r.Perm(d))
		}
	}
	h, err := FromCSR(csrOf(g))
	if err != nil {
		t.Fatal(err)
	}
	if !h.Frozen() || h.Order() != g.Order() || h.Size() != g.Size() {
		t.Fatalf("FromCSR: frozen=%v order %d size %d, want frozen order %d size %d", h.Frozen(), h.Order(), h.Size(), g.Order(), g.Size())
	}
	for u := 0; u < g.Order(); u++ {
		if !slices.Equal(h.Arcs(NodeID(u)), g.Arcs(NodeID(u))) || !slices.Equal(h.BackPorts(NodeID(u)), g.BackPorts(NodeID(u))) {
			t.Fatalf("port labeling changed at vertex %d", u)
		}
	}
	// Rows are capacity-clamped: growing one must not overwrite the next.
	w := NodeID(1)
	for h.HasEdge(0, w) {
		w++
	}
	h.AddEdge(0, w)
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	for u := NodeID(1); int(u) < g.Order(); u++ {
		if u != w && !slices.Equal(h.Arcs(u), g.Arcs(u)) {
			t.Fatalf("AddEdge(0, %d) after FromCSR changed row %d", w, u)
		}
	}

	tri := triangle()
	tri.Freeze()
	for _, tc := range []struct {
		name string
		edit func(deg []int32, nbr []NodeID, back []Port) ([]int32, []NodeID, []Port)
		want string
	}{
		{"odd arcs", func(d []int32, n []NodeID, b []Port) ([]int32, []NodeID, []Port) {
			d[2]--
			return d, n[:5], b[:5]
		}, "do not pair"},
		{"short back", func(d []int32, n []NodeID, b []Port) ([]int32, []NodeID, []Port) { return d, n, b[:4] }, "do not pair"},
		{"degree overrun", func(d []int32, n []NodeID, b []Port) ([]int32, []NodeID, []Port) {
			d[0] = 5
			return d, n, b
		}, "overruns"},
		{"negative degree", func(d []int32, n []NodeID, b []Port) ([]int32, []NodeID, []Port) {
			d[0] = -1
			return d, n, b
		}, "overruns"},
		{"degree sum short", func(d []int32, n []NodeID, b []Port) ([]int32, []NodeID, []Port) {
			d[2] = 0
			return d, n, b
		}, "sum to 4"},
		{"asymmetric", func(d []int32, n []NodeID, b []Port) ([]int32, []NodeID, []Port) {
			b[0] = 2
			return d, n, b
		}, "not back"},
		{"hole", func(d []int32, n []NodeID, b []Port) ([]int32, []NodeID, []Port) {
			// Two dead slots are Validate-clean holes, but a hole-free
			// arena must count every slot as half an edge.
			n[0], b[0] = DeadEnd, NoPort
			n[2], b[2] = DeadEnd, NoPort
			return d, n, b
		}, "inconsistent"},
	} {
		h, err := FromCSR(tc.edit(csrOf(tri)))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: FromCSR = %v, %v; want error containing %q", tc.name, h, err, tc.want)
		}
	}
}

func TestMaxDegree(t *testing.T) {
	g := New(5)
	if g.MaxDegree() != 0 {
		t.Fatal("max degree of edgeless graph should be 0")
	}
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(0, 3)
	if g.MaxDegree() != 3 {
		t.Fatalf("max degree = %d, want 3", g.MaxDegree())
	}
}
