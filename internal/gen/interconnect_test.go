package gen

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/shortest"
)

func TestCCCRegular(t *testing.T) {
	for d := 3; d <= 5; d++ {
		g := CubeConnectedCycles(d)
		mustValid(t, g)
		if g.Order() != (1<<d)*d {
			t.Fatalf("CCC(%d) order %d", d, g.Order())
		}
		for u := 0; u < g.Order(); u++ {
			if g.Degree(graph.NodeID(u)) != 3 {
				t.Fatalf("CCC(%d) vertex %d has degree %d, want 3", d, u, g.Degree(graph.NodeID(u)))
			}
		}
	}
}

func TestCCCEdgeCount(t *testing.T) {
	// 3-regular on d*2^d vertices: 3*d*2^d/2 edges.
	d := 4
	g := CubeConnectedCycles(d)
	want := 3 * d * (1 << d) / 2
	if g.Size() != want {
		t.Fatalf("CCC(%d) has %d edges, want %d", d, g.Size(), want)
	}
}

func TestButterflyRegular(t *testing.T) {
	for d := 3; d <= 5; d++ {
		g := Butterfly(d)
		mustValid(t, g)
		if g.Order() != d*(1<<d) {
			t.Fatalf("WBF(%d) order %d", d, g.Order())
		}
		for u := 0; u < g.Order(); u++ {
			if g.Degree(graph.NodeID(u)) != 4 {
				t.Fatalf("WBF(%d) vertex %d degree %d, want 4", d, u, g.Degree(graph.NodeID(u)))
			}
		}
	}
}

func TestButterflyDiameter(t *testing.T) {
	// Wrapped butterfly diameter is Theta(d); for d=3 it is small.
	g := Butterfly(3)
	a := shortest.NewAPSPParallel(g, 0)
	if diam := a.Diameter(); diam < 3 || diam > 6 {
		t.Fatalf("WBF(3) diameter %d outside plausible band", diam)
	}
}

func TestPancakeShape(t *testing.T) {
	for k := 2; k <= 5; k++ {
		g := Pancake(k)
		mustValid(t, g)
		fact := 1
		for i := 2; i <= k; i++ {
			fact *= i
		}
		if g.Order() != fact {
			t.Fatalf("P_%d order %d, want %d", k, g.Order(), fact)
		}
		for u := 0; u < g.Order(); u++ {
			if g.Degree(graph.NodeID(u)) != k-1 {
				t.Fatalf("P_%d vertex degree %d, want %d", k, g.Degree(graph.NodeID(u)), k-1)
			}
		}
	}
}

func TestPancakeDiameterP4(t *testing.T) {
	// Known small values: diameter of the pancake graph P_4 is 4.
	g := Pancake(4)
	a := shortest.NewAPSPParallel(g, 0)
	if a.Diameter() != 4 {
		t.Fatalf("P_4 diameter %d, want 4", a.Diameter())
	}
}
