package graph

import (
	"bytes"
	"runtime"
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

func TestSerializeRoundTrip(t *testing.T) {
	g := randomGraph(77, 12, 0.4)
	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	h, err := ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.Order() != g.Order() || h.Size() != g.Size() {
		t.Fatalf("round trip changed shape: (%d,%d) -> (%d,%d)", g.Order(), g.Size(), h.Order(), h.Size())
	}
	ge, he := g.Edges(), h.Edges()
	for i := range ge {
		if ge[i] != he[i] {
			t.Fatalf("edge %d changed: %v -> %v", i, ge[i], he[i])
		}
	}
}

func TestPortedSerializeRoundTrip(t *testing.T) {
	r := xrand.New(5)
	g := randomGraph(42, 10, 0.5)
	for u := 0; u < g.Order(); u++ {
		if d := g.Degree(NodeID(u)); d > 1 {
			g.PermutePorts(NodeID(u), r.Perm(d))
		}
	}
	var buf bytes.Buffer
	if err := g.WritePorted(&buf); err != nil {
		t.Fatal(err)
	}
	h, err := ReadPorted(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.Order(); u++ {
		for p := Port(1); int(p) <= g.Degree(NodeID(u)); p++ {
			if g.Neighbor(NodeID(u), p) != h.Neighbor(NodeID(u), p) {
				t.Fatalf("port labeling changed at (%d, %d)", u, p)
			}
		}
	}
}

// TestReadPortedHeaderAllocation pins what a header alone can make the
// ported reader allocate: the empty n-vertex graph (two slice headers
// per vertex, 48 B) and nothing twice. A header-only input is the
// cheapest hostile payload, so this bound is what MaxSerializedOrder's
// worst case rests on.
func TestReadPortedHeaderAllocation(t *testing.T) {
	const n = 1 << 16
	limit := uint64(3 * 48 * n / 2)
	var before, after runtime.MemStats
	best := ^uint64(0)
	for range 3 {
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := ReadPorted(strings.NewReader("65536\n")); err == nil {
			t.Fatal("header-only input accepted")
		}
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	if best > limit {
		t.Fatalf("ReadPorted allocated %d bytes for a header-only order-%d input, want <= %d", best, n, limit)
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
