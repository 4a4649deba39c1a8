package core

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/shortest"
	"repro/internal/xrand"
)

func TestPetersenUniqueShortestPaths(t *testing.T) {
	g := gen.Petersen()
	if !UniqueShortestPaths(g, nil) {
		t.Fatal("Petersen graph should have unique shortest paths (strong regularity)")
	}
}

func TestPetersenAllPairsForced(t *testing.T) {
	g := gen.Petersen()
	if !AllPairsForced(g, nil, 1.0) {
		t.Fatal("every Petersen pair should have a forced first arc at s=1")
	}
}

func TestFigure1Matrix(t *testing.T) {
	// The paper's Figure 1: a 5×5 shortest-path matrix of constraints on
	// the Petersen graph with A and B of size 5. The specific labels are
	// immaterial (any disjoint choice works by strong regularity); we use
	// the outer cycle as A and the inner pentagram as B.
	g := gen.Petersen()
	A := []graph.NodeID{0, 1, 2, 3, 4}
	B := []graph.NodeID{5, 6, 7, 8, 9}
	m, err := ConstraintMatrixOf(g, nil, A, B, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if m.P != 5 || m.Q != 5 {
		t.Fatal("matrix shape wrong")
	}
	// Every row must reference at most deg = 3 distinct ports.
	for i := 0; i < 5; i++ {
		if m.RowValues(i) > 3 {
			t.Fatalf("row %d uses %d ports, Petersen degree is 3", i, m.RowValues(i))
		}
	}
	// Cross-check each entry against an explicit shortest path.
	apsp := shortest.NewAPSPParallel(g, 0)
	for i, a := range A {
		for j, b := range B {
			port := graph.Port(m.At(i, j) + 1)
			w := g.Neighbor(a, port)
			if apsp.Dist(w, b)+1 != apsp.Dist(a, b) {
				t.Fatalf("entry (%d,%d): port %d does not start a shortest path", i, j, port)
			}
		}
	}
}

func TestConstraintMatrixRejectsOverlap(t *testing.T) {
	g := gen.Petersen()
	if _, err := ConstraintMatrixOf(g, nil, []graph.NodeID{0}, []graph.NodeID{0}, 1.0); err == nil {
		t.Fatal("overlapping A and B accepted")
	}
}

func TestConstraintMatrixFailsOnAmbiguousGraph(t *testing.T) {
	// On an even cycle, antipodal pairs have two shortest first arcs, so
	// no matrix of constraints exists for A, B containing such a pair.
	g := gen.Cycle(6)
	if _, err := ConstraintMatrixOf(g, nil, []graph.NodeID{0}, []graph.NodeID{3}, 1.0); err == nil {
		t.Fatal("ambiguous pair accepted")
	}
}

func TestAllPairsForcedFailsOnGrid(t *testing.T) {
	if AllPairsForced(gen.Grid2D(3, 3), nil, 1.0) {
		t.Fatal("grids have many shortest paths; forcing must fail")
	}
}

func TestUniqueShortestPathsOddCycle(t *testing.T) {
	if !UniqueShortestPaths(gen.Cycle(7), nil) {
		t.Fatal("odd cycles have unique shortest paths")
	}
	if UniqueShortestPaths(gen.Cycle(8), nil) {
		t.Fatal("even cycles have antipodal ties")
	}
}

func TestFigure1PortLabelingInvariance(t *testing.T) {
	// Scrambling ports changes the matrix entries but never the
	// EXISTENCE of the constraint matrix, and the scrambled matrix is the
	// old one up to per-row value permutation (same equivalence class
	// after padding rows — here rows are full permutation images, so we
	// check class equality via Canonicalize on normalized copies).
	g := gen.Petersen()
	A := []graph.NodeID{0, 1, 2, 3, 4}
	B := []graph.NodeID{5, 6, 7, 8, 9}
	m1, err := ConstraintMatrixOf(g, nil, A, B, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(13)
	for _, a := range A {
		g.PermutePorts(a, r.Perm(g.Degree(a)))
	}
	m2, err := ConstraintMatrixOf(g, nil, A, B, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	c1, c2 := m1.Clone(), m2.Clone()
	c1.NormalizeRows()
	c2.NormalizeRows()
	if !c1.Canonicalize().Equal(c2.Canonicalize()) {
		t.Fatal("port scrambling moved the matrix to a different class")
	}
}
