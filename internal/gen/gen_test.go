package gen

import (
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/shortest"
	"repro/internal/xrand"
)

func mustValid(t *testing.T, g *graph.Graph) {
	t.Helper()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if !g.Connected() {
		t.Fatal("generated graph not connected")
	}
}

func TestPath(t *testing.T) {
	g := Path(5)
	mustValid(t, g)
	if g.Size() != 4 {
		t.Fatalf("P_5 has %d edges, want 4", g.Size())
	}
	if g.Degree(0) != 1 || g.Degree(2) != 2 || g.Degree(4) != 1 {
		t.Fatal("path degrees wrong")
	}
}

func TestCycle(t *testing.T) {
	g := Cycle(6)
	mustValid(t, g)
	if g.Size() != 6 {
		t.Fatalf("C_6 has %d edges, want 6", g.Size())
	}
	for u := 0; u < 6; u++ {
		if g.Degree(graph.NodeID(u)) != 2 {
			t.Fatal("cycle is not 2-regular")
		}
	}
}

func TestComplete(t *testing.T) {
	g := Complete(7)
	mustValid(t, g)
	if g.Size() != 21 {
		t.Fatalf("K_7 has %d edges, want 21", g.Size())
	}
	for u := 0; u < 7; u++ {
		if g.Degree(graph.NodeID(u)) != 6 {
			t.Fatal("K_7 is not 6-regular")
		}
	}
}

func TestCompleteBipartite(t *testing.T) {
	g := CompleteBipartite(3, 4)
	mustValid(t, g)
	if g.Size() != 12 {
		t.Fatalf("K_{3,4} has %d edges, want 12", g.Size())
	}
	if g.HasEdge(0, 1) || g.HasEdge(3, 4) {
		t.Fatal("edge inside a part")
	}
}

func TestStar(t *testing.T) {
	g := Star(9)
	mustValid(t, g)
	if g.Degree(0) != 8 {
		t.Fatal("star center degree wrong")
	}
}

func TestGrid2D(t *testing.T) {
	g := Grid2D(3, 4)
	mustValid(t, g)
	if g.Order() != 12 {
		t.Fatal("grid order wrong")
	}
	// Edges: 3*3 horizontal + 2*4 vertical = 17.
	if g.Size() != 17 {
		t.Fatalf("3x4 grid has %d edges, want 17", g.Size())
	}
}

func TestTorus2D(t *testing.T) {
	g := Torus2D(3, 5)
	mustValid(t, g)
	for u := 0; u < g.Order(); u++ {
		if g.Degree(graph.NodeID(u)) != 4 {
			t.Fatal("torus is not 4-regular")
		}
	}
}

func TestHypercubePortAlignment(t *testing.T) {
	for d := 1; d <= 6; d++ {
		g := Hypercube(d)
		mustValid(t, g)
		if g.Order() != 1<<d {
			t.Fatalf("H_%d order %d", d, g.Order())
		}
		for u := 0; u < g.Order(); u++ {
			for bit := 0; bit < d; bit++ {
				want := graph.NodeID(u ^ (1 << bit))
				if got := g.Neighbor(graph.NodeID(u), graph.Port(bit+1)); got != want {
					t.Fatalf("H_%d: port %d at %d -> %d, want %d", d, bit+1, u, got, want)
				}
			}
		}
	}
}

func TestPetersenStructure(t *testing.T) {
	g := Petersen()
	mustValid(t, g)
	if g.Order() != 10 || g.Size() != 15 {
		t.Fatalf("Petersen shape (%d,%d), want (10,15)", g.Order(), g.Size())
	}
	apsp := shortest.NewAPSPParallel(g, 0)
	if apsp.Diameter() != 2 {
		t.Fatalf("Petersen diameter %d, want 2", apsp.Diameter())
	}
	// Strong regularity (10,3,0,1): adjacent pairs share 0 common
	// neighbors, non-adjacent share exactly 1.
	for u := 0; u < 10; u++ {
		for v := u + 1; v < 10; v++ {
			common := 0
			for w := 0; w < 10; w++ {
				if w != u && w != v &&
					g.HasEdge(graph.NodeID(u), graph.NodeID(w)) &&
					g.HasEdge(graph.NodeID(v), graph.NodeID(w)) {
					common++
				}
			}
			adj := g.HasEdge(graph.NodeID(u), graph.NodeID(v))
			if adj && common != 0 {
				t.Fatalf("adjacent pair (%d,%d) has %d common neighbors", u, v, common)
			}
			if !adj && common != 1 {
				t.Fatalf("non-adjacent pair (%d,%d) has %d common neighbors", u, v, common)
			}
		}
	}
}

func TestDeBruijn(t *testing.T) {
	g := DeBruijn(4)
	mustValid(t, g)
	if g.Order() != 16 {
		t.Fatal("de Bruijn order wrong")
	}
}

func TestRandomTreeIsTree(t *testing.T) {
	check := func(seed uint64, nn uint16) bool {
		n := int(nn%200) + 1
		g := RandomTree(n, xrand.New(seed))
		return g.Order() == n && g.Size() == n-1 && g.Connected() && g.Validate() == nil
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRandomTreeSmall(t *testing.T) {
	for n := 1; n <= 4; n++ {
		g := RandomTree(n, xrand.New(1))
		if g.Order() != n || g.Size() != n-1 || !g.Connected() {
			t.Fatalf("RandomTree(%d) malformed", n)
		}
	}
}

func TestCaterpillar(t *testing.T) {
	g := Caterpillar(5, 7)
	mustValid(t, g)
	if g.Order() != 12 || g.Size() != 11 {
		t.Fatal("caterpillar is not a tree of the right size")
	}
}

func TestCompleteBinaryTree(t *testing.T) {
	g := CompleteBinaryTree(15)
	mustValid(t, g)
	if g.Size() != 14 {
		t.Fatal("binary tree edge count wrong")
	}
	if g.Degree(0) != 2 {
		t.Fatal("root degree wrong")
	}
}

func TestMaximalOuterplanar(t *testing.T) {
	check := func(seed uint64, nn uint8) bool {
		n := int(nn%30) + 3
		g := MaximalOuterplanar(n, xrand.New(seed))
		// Maximal outerplanar on n >= 3 vertices has exactly 2n-3 edges.
		return g.Validate() == nil && g.Connected() && g.Size() == 2*n-3
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKTreeChordalSize(t *testing.T) {
	// A k-tree on n vertices has kn - k(k+1)/2 edges.
	for _, tc := range []struct{ n, k int }{{5, 1}, {8, 2}, {10, 3}} {
		g := KTree(tc.n, tc.k, xrand.New(3))
		mustValid(t, g)
		want := tc.k*tc.n - tc.k*(tc.k+1)/2
		if g.Size() != want {
			t.Fatalf("KTree(%d,%d) has %d edges, want %d", tc.n, tc.k, g.Size(), want)
		}
	}
}

func TestUnitInterval(t *testing.T) {
	check := func(seed uint64, nn uint8) bool {
		n := int(nn%40) + 1
		g := UnitInterval(n, 0.7, xrand.New(seed))
		return g.Validate() == nil && g.Connected()
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUnitCircularArc(t *testing.T) {
	check := func(seed uint64, nn uint8) bool {
		n := int(nn%40) + 3
		g := UnitCircularArc(n, 0.15, xrand.New(seed))
		return g.Validate() == nil && g.Connected()
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRandomConnected(t *testing.T) {
	check := func(seed uint64, nn uint8) bool {
		n := int(nn%50) + 2
		g := RandomConnected(n, 0.1, xrand.New(seed))
		return g.Validate() == nil && g.Connected()
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRandomRegular(t *testing.T) {
	g := RandomRegular(20, 3, xrand.New(8))
	mustValid(t, g)
	for u := 0; u < 20; u++ {
		if g.Degree(graph.NodeID(u)) != 3 {
			t.Fatal("not 3-regular")
		}
	}
}

func TestAttachPath(t *testing.T) {
	g := Cycle(4)
	end := AttachPath(g, 0, 5)
	mustValid(t, g)
	if g.Order() != 9 {
		t.Fatalf("order %d after padding, want 9", g.Order())
	}
	if g.Degree(end) != 1 {
		t.Fatal("far end of padding path should be a leaf")
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a := RandomConnected(30, 0.2, xrand.New(42))
	b := RandomConnected(30, 0.2, xrand.New(42))
	ae, be := a.Edges(), b.Edges()
	if len(ae) != len(be) {
		t.Fatal("same seed, different edge counts")
	}
	for i := range ae {
		if ae[i] != be[i] {
			t.Fatal("same seed, different graphs")
		}
	}
}
